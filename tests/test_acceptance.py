"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The end-to-end experiment uses the bundled corpus at desk
budgets and finishes, together with everything else here, well under the
ten-minute target on an ordinary laptop.
"""

import functools
import math
import os
import random
import time
from pathlib import Path

import pytest

from mctab import gbt
from mctab.calculus import format_proof, initial_states
from mctab.checker import check_proof_texts, _dpll
from mctab.cli import corpus_dir, main
from mctab.config import Config
from mctab.features import FeatureExtractor
from mctab.guidance import (
    DefaultGuidance,
    default_value,
    policy_target,
    priors_from_predictions,
    value_from_prediction,
    value_target,
)
from mctab.loop import run_loop, solve_one
from mctab.mcts import (
    SearchTree,
    _dedup,
    bigstep,
    extract_training_data,
    playout,
    search_problem,
    uct_score,
)
from mctab.problems import parse_problem
from mctab.terms import Literal, resolve_term, unify_literals

from helpers import (
    RewardReplay,
    alpha_equal,
    check_tree_invariants,
    oracle_apply,
    oracle_unify,
    random_matrix,
    random_term_pair,
)
from test_gbt import brute_best, make_dataset
from test_checker import random_cnf, truth_table_unsat


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
            return result

        return wrapper

    return deco


DESK = dict(
    inference_limit=20000,
    time_limit_s=600.0,
    bigstep_freq=100,
    path_limit=60,
    rounds=60,
    patience=15,
    max_depth=6,
)


def corpus_problems():
    names = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".p"))
    out = []
    for name in names:
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            out.append((name, fh.read()))
    return out


@pytest.fixture(scope="module")
def corpus_runs():
    """Unguided desk-budget search results over the whole bundled corpus."""
    cfg = Config(**DESK)
    runs = {}
    for name, text in corpus_problems():
        m = parse_problem(text)
        runs[name] = (m, text, search_problem(m, DefaultGuidance(), cfg, name=name))
    return cfg, runs


# ---------------------------------------------------------------------------

@criterion("unification oracle equivalence (10000 pairs, <10s)")
def test_unification_oracle_equivalence():
    rng = random.Random(12345)
    t0 = time.monotonic()
    for _ in range(10_000):
        a, b = random_term_pair(rng, max_size=12)
        mine = unify_literals(Literal(True, "p", (a,)), Literal(True, "p", (b,)))
        ref = oracle_unify(a, b)
        assert (mine is None) == (ref is None), (a, b)
        if mine is not None:
            assert resolve_term(mine, a) == resolve_term(mine, b)
            assert alpha_equal(resolve_term(mine, a), oracle_apply(ref, a)), (a, b)
    assert time.monotonic() - t0 < 10.0


@criterion("closed-form guidance transforms (1e-9)")
def test_closed_form_transforms():
    sigmoid = lambda x: 1.0 / (1.0 + math.exp(-x))
    assert abs(default_value(0) - sigmoid(1.2)) < 1e-9
    assert abs(default_value(0) - 0.768525) < 1e-6
    assert abs(default_value(10**9) - sigmoid(-2.5)) < 1e-9
    assert value_target(0, 0.99) == 3.0
    assert abs(value_target(69, 0.99)) < 1e-3
    assert value_target(None, 0.99) == -3.0
    assert value_from_prediction(7.3, 0) == 1.0
    assert abs(value_from_prediction(0.0, 2) - 0.5) < 1e-9
    assert abs(policy_target(8, 2, 4)) < 1e-9
    assert abs(policy_target(10, 5, 4) - math.log(2.0)) < 1e-9
    assert policy_target(10**6, 1, 1) == -6.0
    p = priors_from_predictions([2.0, 0.0], 2.0)
    assert abs(p[0] - math.e / (math.e + 1.0)) < 1e-9

    class N:
        reward, visits, prior = 2.0, 4, 0.25

    score = uct_score(N, math.log(16), 3.0)
    assert abs(score - (0.5 + 0.75 * math.sqrt(math.log(16.0) / 4.0))) < 1e-9
    assert abs(score - 1.1245) < 1e-4

    rng = random.Random(0)
    for _ in range(1000):
        scores = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 9))]
        assert abs(sum(priors_from_predictions(scores, 2.0)) - 1.0) < 1e-9


@criterion("MCTS structural invariants (100 random problems, UCT brute force x10000)")
def test_mcts_structural_invariants():
    rng = random.Random(77)
    cfg = Config(rewrite=False, inference_limit=80, bigstep_freq=9, path_limit=40)
    guidance = DefaultGuidance()
    checked = 0
    for _ in range(100):
        m, _ = random_matrix(rng)
        try:
            root = initial_states(m, cfg)
        except Exception:
            continue
        tree = SearchTree(m, guidance, root)
        replay = RewardReplay(tree)
        for _ in range(30):
            if tree.proved_node is not None or tree.nodes[tree.bigstep_root].dead:
                break
            nid = playout(tree, guidance, cfg, cp=3.0)
            replay.after_playout(tree, nid)
            check_tree_invariants(tree)
            replay.check(tree)
            checked += 1
            if tree.playouts % cfg.bigstep_freq == 0:
                bigstep(tree)
    assert checked > 300

    class Node:
        def __init__(self, reward, visits, prior):
            self.reward, self.visits, self.prior = reward, visits, prior

    for _ in range(10_000):
        n = rng.randint(2, 8)
        children = [
            Node(rng.uniform(0, 1) * (v := rng.randint(1, 60)), v, rng.uniform(0.01, 1))
            for _ in range(n)
        ]
        parent_visits = sum(c.visits for c in children) + 1
        cp = rng.choice([0.0, 1.0, 2.0, 3.0])
        scores = [uct_score(c, math.log(parent_visits), cp) for c in children]
        mine = max(range(n), key=lambda i: (scores[i], -i))
        brute = 0
        for i in range(1, n):
            if scores[i] > scores[brute]:
                brute = i
        assert mine == brute


@criterion("training-data contracts (2-choice problem, duplicate filtering)")
def test_training_data_contracts():
    text = "p.\n-p | r.\n-p | s.\n-s.\n"
    m = parse_problem(text)
    extractor = FeatureExtractor(m, 1000)

    starved = Config(rewrite=False, inference_limit=1)
    res = search_problem(m, DefaultGuidance(), starved)
    assert res.outcome == "exhausted"
    value_rows, policy_rows = extract_training_data(res.tree, starved, extractor)
    assert policy_rows == []
    assert value_rows and all(t == -3.0 for _, t in value_rows)

    cfg = Config(rewrite=False)
    res = search_problem(m, DefaultGuidance(), cfg)
    assert res.outcome == "proved"
    value_rows, policy_rows = extract_training_data(res.tree, cfg, extractor)
    # the proved node was never a bigstep node but is on the proof path
    bigstep_ids = set(res.tree.bigstep_nodes)
    assert res.tree.proved_node not in bigstep_ids
    assert any(t == 3.0 for _, t in value_rows)
    assert len(policy_rows) == 2

    fv = {3: 1.0}
    out = _dedup([(fv, -3.0), (fv, 1.5), ({4: 1.0}, 0.0)])
    assert len(out) == 2 and out[0][1] == 1.5


@criterion("learner contracts (constant fit, step fn, brute-force splits)")
def test_learner_contracts():
    data = make_dataset([({0: 1.0}, 2.5) for _ in range(12)])
    model = gbt.train(data, Config(rounds=1))
    assert abs(model.predict({0: 1.0}) - 2.5) < 1e-6

    rows = [({5: float(i % 10 + 1)}, 1.0 if i % 10 + 1 > 5 else 0.0) for i in range(40)]
    model = gbt.train(make_dataset(rows), Config(rounds=20, patience=50))
    assert len(model.history.train_rmse) <= 20
    assert model.history.train_rmse[-1] < 0.01
    assert all(
        a >= b - 1e-12
        for a, b in zip(model.history.train_rmse, model.history.train_rmse[1:])
    )

    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(5, 80)
        entries = [
            {rng.randrange(20): float(rng.randint(1, 5)) for _ in range(rng.randint(0, 6))}
            for _ in range(n)
        ]
        grad = [rng.uniform(-2, 2) for _ in range(n)]
        hess = [rng.uniform(0.5, 2.0) for _ in range(n)]
        mine = gbt._best_split(gbt._columns(list(range(n)), entries), n, grad, hess, 1.5,
                               sum(grad), sum(hess))
        ref = brute_best(list(range(n)), grad, hess, entries, 1.5)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert abs(mine[0] - ref[0]) < 1e-9

    rng = random.Random(4)
    rows = [
        ({rng.randrange(10): rng.uniform(0.5, 3.0)}, rng.uniform(-2, 2))
        for _ in range(60)
    ]
    model = gbt.train(make_dataset(rows), Config(rounds=12, patience=50))
    clone = gbt.parse_model(gbt.format_model(model))
    for fvec, _ in make_dataset(rows).rows:
        assert model.predict(fvec) == clone.predict(fvec)


@criterion("checker: DPLL vs truth table, corpus proofs, mutation battery")
def test_checker_contracts(corpus_runs):
    rng = random.Random(99)
    for _ in range(1000):
        clauses, nvars = random_cnf(rng, max_vars=15)
        model = _dpll([list(c) for c in clauses], {})
        assert (model is None) == truth_table_unsat(clauses, nvars)

    app_a = "-p(X).\np(Y) | -q(a).\nq(a).\n"
    m = parse_problem(app_a)
    res = search_problem(m, DefaultGuidance(), Config(rewrite=False))
    trace = format_proof(res.proof, res.proof_subst)
    assert check_proof_texts(trace, app_a).ok

    cfg, runs = corpus_runs
    battery = {"polarity": 0, "clause_id": 0, "theta": 0, "dropped": 0}
    proved = 0
    for name, (matrix, text, result) in runs.items():
        if result.outcome != "proved":
            continue
        proved += 1
        trace = format_proof(result.proof, result.proof_subst)
        verdict = check_proof_texts(trace, text)
        assert verdict.ok, (name, verdict.message)
        lines = trace.strip().splitlines()
        ext_ids = [i for i, l in enumerate(lines) if l.startswith("ext")]
        if ext_ids:
            # polarity flip on an extension goal literal
            fields = lines[ext_ids[0]].split()
            fields[-1] = fields[-1][1:] if fields[-1].startswith("-") else "-" + fields[-1]
            mutated = lines[: ext_ids[0]] + [" ".join(fields)] + lines[ext_ids[0] + 1 :]
            assert not check_proof_texts("\n".join(mutated) + "\n", text).ok, name
            battery["polarity"] += 1
            # clause reference swapped to a structurally different clause
            fields = lines[ext_ids[0]].split()
            old = int(fields[1])
            target = next(
                c.id
                for c in matrix.clauses
                if c.id != old
                and sorted((l.positive, l.predicate) for l in c.literals)
                != sorted((l.positive, l.predicate) for l in matrix.clauses[old].literals)
            )
            fields[1] = str(target)
            mutated = lines[: ext_ids[0]] + [" ".join(fields)] + lines[ext_ids[0] + 1 :]
            assert not check_proof_texts("\n".join(mutated) + "\n", text).ok, name
            battery["clause_id"] += 1
            # substitution corruption
            corrupted = []
            touched = False
            for line in lines:
                if not touched and "{" in line and "{}" not in line:
                    head, _, rest = line.partition("{")
                    body, _, tail = rest.partition("}")
                    names = [b.partition("=")[0] for b in body.split(",")]
                    line = head + "{" + ",".join(f"{n}=mutant" for n in names) + "}" + tail
                    touched = True
                corrupted.append(line)
            if touched:
                assert not check_proof_texts("\n".join(corrupted) + "\n", text).ok, name
                battery["theta"] += 1
            # dropped proof clause breaking unsatisfiability
            rejected = False
            for drop in ext_ids:
                mutated = lines[:drop] + lines[drop + 1 :]
                if not check_proof_texts("\n".join(mutated) + "\n", text).ok:
                    rejected = True
                    break
            assert rejected, name
            battery["dropped"] += 1
    assert proved >= 20
    assert all(v >= 15 for v in battery.values()), battery


@criterion("end-to-end desk experiment (coverage, rewrite, learning, limited policy)")
def test_end_to_end_desk(corpus_runs, tmp_path):
    cfg, runs = corpus_runs

    # (a) unguided iteration 0 proves at least 70% of the corpus
    total = len(runs)
    proved = sum(1 for _, _, r in runs.values() if r.outcome == "proved")
    assert proved / total >= 0.70, (proved, total)

    # (b) rewriting finds the eq_chain_16 proof with strictly fewer inferences
    text = Path(corpus_dir(), "eq_chain_16.p").read_text(encoding="utf-8")
    m = parse_problem(text)
    big_on = Config(**{**DESK, "inference_limit": 100000})
    big_off = Config(**{**DESK, "inference_limit": 100000, "rewrite": False})
    res_on = search_problem(m, DefaultGuidance(), big_on)
    res_off = search_problem(m, DefaultGuidance(), big_off)
    assert res_on.outcome == "proved" and res_off.outcome == "proved"
    assert res_on.stats.inferences < res_off.stats.inferences

    # (c) two data-collection/training iterations, then compare how many
    # problems each prover settles within the reduced 20000-inference budget
    out_root = tmp_path / "loop"
    reports = run_loop(corpus_dir(), 2, str(out_root), cfg)
    assert len(reports) == 2
    vmodel = gbt.load(str(out_root / "iter1" / "value.model"))
    pmodel = gbt.load(str(out_root / "iter1" / "policy.model"))
    reduced = Config(**DESK)
    base_count = sum(1 for _, _, r in runs.values() if r.outcome == "proved")
    guided_count = 0
    for name, text in corpus_problems():
        _, trace, _, _ = solve_one(name, text, reduced, vmodel, pmodel)
        guided_count += trace is not None
    assert guided_count >= base_count, (guided_count, base_count)

    # (d) limited policy training keeps only rows from proved searches
    rows_on: list = []
    rows_off: list = []
    proved_rows = 0
    failed_searches = 0
    for name, (matrix, text, result) in runs.items():
        extractor = FeatureExtractor(matrix, cfg.feature_dim)
        cfg_on = Config(**DESK)
        cfg_off = Config(**{**DESK, "limited_policy": False})
        _, p_on = extract_training_data(result.tree, cfg_on, extractor)
        _, p_off = extract_training_data(result.tree, cfg_off, extractor)
        rows_on.extend(p_on)
        rows_off.extend(p_off)
        if result.outcome == "proved":
            proved_rows += len(p_on)
        else:
            failed_searches += 1
            assert p_on == []  # nothing is learned from a failed search
    assert failed_searches >= 5
    key = lambda row: (tuple(sorted(row[0].items())), row[1])
    on_keys = {key(r) for r in rows_on}
    off_keys = {key(r) for r in rows_off}
    assert on_keys < off_keys  # strict subset
    assert len(rows_on) == proved_rows


@criterion("determinism: repeated loops are byte-identical")
def test_loop_determinism(tmp_path):
    subset = tmp_path / "probs"
    subset.mkdir()
    for name in ("app_a.p", "chain5.p", "or_case.p", "eq_chain_4.p", "twopath_03.p", "unsat_quick.p"):
        text = Path(corpus_dir(), name).read_text(encoding="utf-8")
        (subset / name).write_text(text)
    fast = [
        "-s", "inference_limit=2000", "-s", "bigstep_freq=100", "-s", "path_limit=60",
        "-s", "rounds=30", "-s", "patience=10", "-s", "max_depth=5",
    ]
    assert main(["loop", str(subset), "--iterations", "2", "--out", str(tmp_path / "one"), *fast]) == 0
    assert main(["loop", str(subset), "--iterations", "2", "--out", str(tmp_path / "two"), *fast]) == 0
    for k in (0, 1):
        for name in ("report.tsv", "value.data", "policy.data", "value.model", "policy.model"):
            a = (tmp_path / "one" / f"iter{k}" / name).read_bytes()
            b = (tmp_path / "two" / f"iter{k}" / name).read_bytes()
            assert a == b, (k, name)
