import math
import os
import random
from types import SimpleNamespace

import pytest

from mctab import gbt
from mctab.calculus import OPEN
from mctab.cli import corpus_dir
from mctab.config import Config
from mctab.features import FeatureExtractor
from mctab.guidance import (
    DefaultGuidance,
    ModelGuidance,
    default_policy,
    default_value,
    policy_target,
    priors_from_predictions,
    value_from_prediction,
    value_target,
)
from mctab.loop import list_problems
from mctab.mcts import extract_training_data, search_problem
from mctab.problems import parse_problem

from helpers import random_eq_matrix, random_matrix, reference_priors


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_default_value_closed_forms():
    assert abs(default_value(0) - sigmoid(1.2)) < 1e-9
    assert abs(default_value(0) - 0.768524783499) < 1e-9
    # infimum as goals grow without bound
    assert abs(default_value(10**9) - sigmoid(-2.5)) < 1e-9
    assert abs(sigmoid(-2.5) - 0.075858180021) < 1e-9


def test_default_value_strictly_decreasing():
    assert default_value(10) > default_value(20)
    values = [default_value(t) for t in range(0, 200, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_default_policy_uniform():
    assert default_policy(1) == [1.0]
    assert default_policy(4) == [0.25] * 4
    for n in range(1, 30):
        assert abs(sum(default_policy(n)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        default_policy(0)


def test_value_target_examples():
    assert value_target(0, 0.99) == 3.0
    assert abs(value_target(69, 0.99)) < 1e-3  # 0.99^69 is almost exactly one half
    assert value_target(None, 0.99) == -3.0
    assert value_target(10**6, 0.99) == -3.0  # reward underflows, clipped


def test_value_target_roundtrip_in_unclipped_region():
    for k in range(1, 300):
        t = value_target(k, 0.99)
        if abs(t) < 3.0:
            assert abs(sigmoid(t) - 0.99**k) < 1e-9


def test_value_from_prediction():
    assert value_from_prediction(123.4, 0) == 1.0
    assert abs(value_from_prediction(0.0, 2) - 0.5) < 1e-12
    for vp in (-2.0, 0.0, 1.5):
        assert value_from_prediction(vp, 4) < value_from_prediction(vp, 2)
        assert 0.0 < value_from_prediction(vp, 4) <= 1.0


def test_policy_target_examples():
    assert abs(policy_target(8, 2, 4)) < 1e-12  # exactly uniform
    assert abs(policy_target(10, 5, 4) - math.log(2.0)) < 1e-9
    assert policy_target(10**6, 1, 1) == -6.0  # deep below the clip
    assert policy_target(5, 0, 3) == -6.0


def test_priors_from_predictions():
    assert priors_from_predictions([0.0, 0.0], 2.0) == [0.5, 0.5]
    p = priors_from_predictions([2.0, 0.0], 2.0)
    e = math.e
    assert abs(p[0] - e / (e + 1)) < 1e-9
    assert abs(p[1] - 1 / (e + 1)) < 1e-9


def test_priors_shift_invariance_and_normalization():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 8)
        scores = [rng.uniform(-10, 10) for _ in range(n)]
        p = priors_from_predictions(scores, 2.0)
        assert abs(sum(p) - 1.0) < 1e-9
        shifted = priors_from_predictions([s + 3.7 for s in scores], 2.0)
        assert all(abs(a - b) < 1e-9 for a, b in zip(p, shifted))
        # temperature preserves ranking
        assert p.index(max(p)) == scores.index(max(scores))


def test_targets_respect_clips():
    rng = random.Random(1)
    for _ in range(500):
        k = rng.randint(0, 2000)
        assert -3.0 <= value_target(k, 0.99) <= 3.0
        N = rng.randint(1, 1000)
        Nj = rng.randint(1, N)
        n = rng.randint(1, 50)
        assert policy_target(N, Nj, n) >= -6.0


def test_priors_score_each_action_delta_once_as_the_per_action_oracle():
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60, limited_policy=False)
    matrices = []
    for name in list_problems(corpus_dir()):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            matrices.append(parse_problem(fh.read()))
    rows = []
    for m in matrices:
        result = search_problem(m, DefaultGuidance(), cfg)
        ex = FeatureExtractor(m, cfg.feature_dim)
        rows.extend(extract_training_data(result.tree, cfg, ex)[1])
    policy = gbt.train(gbt.Dataset(rows, cfg.feature_dim), Config(rounds=20, patience=50))
    assert policy.trees
    predictions = []
    predict = policy.predict
    policy.predict = lambda fv: predictions.append(fv) or predict(fv)
    states = shared = 0
    repeated = 0
    for m in matrices:
        ex = FeatureExtractor(m, cfg.feature_dim)
        tree = search_problem(m, ModelGuidance(None, policy, ex, 2.0), cfg).tree
        # a fresh guidance asked in the search's order scores what the search did
        guidance = ModelGuidance(None, policy, ex, 2.0)
        scored = set()
        for node in tree.nodes:
            s = node.state
            if s is None or not s.actions:
                continue
            del predictions[:]
            priors = guidance.priors(s)
            keys = {ex.action_key(s, a) for a in s.actions}
            vector = tuple(ex.state_features(s).items())
            new = {k for k in keys if (vector, k) not in scored}
            # one score per action delta, none for a (vector, delta) scored before
            assert len(predictions) == len(new)
            scored.update((vector, k) for k in keys)
            assert priors == reference_priors(guidance, s)
            states += 1
            shared += len(keys) < len(s.actions)
            repeated += len(new) < len(keys)
    assert states > 0 and shared > 0 and repeated > 0


class _Recorded:
    """A model that records each input it scores."""

    def __init__(self, model):
        self.model, self.dim, self.inputs = model, model.dim, []

    def predict(self, entries: dict) -> float:
        self.inputs.append(tuple(entries.items()))
        return self.model.predict(entries)


class _Checked:
    """Asks `guidance` and checks every answer, bit for bit, against a
    memo-free computation through its own extractor and the bare models."""

    def __init__(self, guidance, reference):
        self.guidance, self.reference = guidance, reference
        self.states = []  # each state asked, in order

    def value(self, s):
        value = self.guidance.value(s)
        ref = self.reference
        raw = ref.value_model.predict(ref.extractor.state_features(s))
        assert value == value_from_prediction(raw, len(s.goals))
        self.states.append(s)
        return value

    def priors(self, s):
        priors = self.guidance.priors(s)
        assert priors == reference_priors(self.reference, s)
        assert s is self.states[-1]  # the search asks a state's value, then its priors
        return priors


def test_the_prediction_memo_equals_predicting_every_state_and_action():
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60, limited_policy=False)
    corpus = []
    for name in list_problems(corpus_dir()):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            corpus.append(parse_problem(fh.read()))
    value_rows, policy_rows = [], []
    for m in corpus:
        result = search_problem(m, DefaultGuidance(), cfg)
        rows = extract_training_data(result.tree, cfg, FeatureExtractor(m, cfg.feature_dim))
        value_rows.extend(rows[0])
        policy_rows.extend(rows[1])
    train_cfg = Config(rounds=20, patience=50)
    value_model = gbt.train(gbt.Dataset(value_rows, cfg.feature_dim), train_cfg)
    policy_model = gbt.train(gbt.Dataset(policy_rows, cfg.feature_dim), train_cfg)
    assert value_model.trees and policy_model.trees
    rng = random.Random(28)
    draws = [(random_matrix if i % 2 else random_eq_matrix)(rng)[0] for i in range(40)]
    asked = value_predictions = scored = policy_predictions = 0
    for m in corpus + draws:
        value, policy = _Recorded(value_model), _Recorded(policy_model)
        ex = FeatureExtractor(m, cfg.feature_dim)
        reference = SimpleNamespace(value_model=value_model, policy_model=policy_model,
                                    extractor=FeatureExtractor(m, cfg.feature_dim),
                                    temperature=cfg.temperature)
        checked = _Checked(ModelGuidance(value, policy, ex, cfg.temperature), reference)
        tree = search_problem(m, checked, cfg).tree
        assert len(checked.states) == sum(1 for node in tree.nodes
                                          if node.state is not None and node.state.result == OPEN)
        # the memo's key is order-sensitive, so inputs are told apart by item order
        vectors = [tuple(reference.extractor.state_features(s).items()) for s in checked.states]
        pairs = {(v, FeatureExtractor.action_key(s, a)) for v, s in zip(vectors, checked.states)
                 for a in s.actions}
        assert sorted(value.inputs) == sorted(set(vectors))  # once per distinct vector
        assert len(policy.inputs) == len(pairs)  # once per distinct (vector, action delta)
        asked += len(vectors)
        value_predictions += len(value.inputs)
        scored += sum(len({ex.action_key(s, a) for a in s.actions}) for s in checked.states)
        policy_predictions += len(policy.inputs)
    # repeated states were served from the memo
    assert value_predictions < asked and policy_predictions < scored


def test_model_dimension_mismatch_errors():
    m = parse_problem("p(a).\n-p(X).\n")
    model = gbt.parse_model("GBT v1 dim=10 eta=0.3 base=0.0\n")
    ModelGuidance(model, model, FeatureExtractor(m, 10), 2.0)
    for value_model, policy_model in ((model, None), (None, model)):
        with pytest.raises(gbt.DatasetError,
                           match="^feature dimension 11 does not match model 10$"):
            ModelGuidance(value_model, policy_model, FeatureExtractor(m, 11), 2.0)
