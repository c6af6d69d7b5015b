"""Value and policy functions: defaults, model transforms, training targets.

All squashing between model space and search space lives here; the learner
deals in raw regression values only.  Natural logarithms throughout.
`ModelGuidance` checks each model's dimension against its extractor's once
per problem, when it is built, so a mismatched model fails before any search.
It lives for one problem and keeps only its raw predictions, under the
state's `FeatureExtractor.state_key`, the skeleton ids of its goals and path:
a state whose key was seen before reuses that key's raw value and raw action
scores without building a vector, and only the transforms into search space
run per state.  A vector is built only for a prediction the memo misses.
This is exact, because a raw prediction depends only on its input vector,
and states with one key have one vector.  The extractor's `_last` is the one
per-state memo: the search asks a state's value and then its priors, and
both find the state's key, and its vector once built, there.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .calculus import ProverState
from .gbt import DatasetError, left_sum
from .terms import term_stats

VALUE_CLIP = 3.0  # value targets lie in [-VALUE_CLIP, VALUE_CLIP]
POLICY_CLIP = -6.0  # policy targets lie at or above POLICY_CLIP


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def default_value(total_goal_size: int) -> float:
    """Heuristic state value from the total term size of the open goals."""
    return _sigmoid(3.7 * math.exp(-0.05 * total_goal_size) - 2.5)


def default_policy(n: int) -> list:
    if n < 1:
        raise ValueError("no actions to assign priors to")
    return [1.0 / n] * n


def value_target(k: Optional[int], discount: float) -> float:
    """Clipped logit of the discounted reward; k=None marks a failure node."""
    if k is None:
        return -VALUE_CLIP
    reward = discount**k
    if reward >= 1.0:
        return VALUE_CLIP
    if reward <= 0.0:  # underflow for very distant proofs
        return -VALUE_CLIP
    return min(VALUE_CLIP, max(-VALUE_CLIP, math.log(reward / (1.0 - reward))))


def value_from_prediction(v_raw: float, open_goals: int) -> float:
    """Map a raw model output into [0,1] with an incentive toward few goals."""
    squashed = _sigmoid(v_raw)
    return squashed ** (open_goals / 2.0)


def policy_target(parent_visits: int, child_visits: int, n_actions: int) -> float:
    """Clipped log of the child's visit frequency relative to uniform."""
    ratio = (child_visits / parent_visits) * n_actions
    if ratio <= 0.0:
        return POLICY_CLIP
    return max(POLICY_CLIP, math.log(ratio))


def priors_from_predictions(scores: Sequence[float], temperature: float) -> list:
    if not scores:
        raise ValueError("empty score list")
    top = max(scores)
    exps = [math.exp((s - top) / temperature) for s in scores]
    total = left_sum(exps)
    return [e / total for e in exps]


# ---------------------------------------------------------------------------
# guidance objects used by the search

class DefaultGuidance:
    """First-iteration guidance: size heuristic value, uniform priors."""

    def __init__(self):
        # n -> default_policy(n), one list shared by every state with n
        # actions; the search never mutates a node's priors
        self._uniform: dict = {}

    def value(self, s: ProverState) -> float:
        return default_value(term_stats(s.goals)[0])

    def priors(self, s: ProverState) -> list:
        n = len(s.actions)
        uniform = self._uniform.get(n)
        if uniform is None:
            uniform = self._uniform[n] = default_policy(n)
        return uniform


class ModelGuidance:
    """Learned guidance; either model may be absent, falling back to defaults."""

    def __init__(self, value_model, policy_model, extractor, temperature: float):
        for model in (value_model, policy_model):
            if model is not None and model.dim != extractor.dim:
                raise DatasetError(
                    f"feature dimension {extractor.dim} does not match model {model.dim}")
        self.value_model = value_model
        self.policy_model = policy_model
        self.extractor = extractor
        self.temperature = temperature
        self._default = DefaultGuidance()
        # state key -> raw predictions for its vector: the value under None,
        # each action's score under its action key
        self._predictions: dict = {}

    def value(self, s: ProverState) -> float:
        if self.value_model is None:
            return self._default.value(s)
        predicted = self._predictions.setdefault(self.extractor.state_key(s), {})
        raw = predicted.get(None)
        if raw is None:
            raw = predicted[None] = self.value_model.predict(self.extractor.state_features(s))
        return value_from_prediction(raw, len(s.goals))

    def priors(self, s: ProverState) -> list:
        if self.policy_model is None:
            return self._default.priors(s)
        # actions with one delta key have one vector: score each key once
        predicted = self._predictions.setdefault(self.extractor.state_key(s), {})
        keys = [self.extractor.action_key(s, a) for a in s.actions]
        for k in keys:
            if k not in predicted:
                predicted[k] = self.policy_model.predict(self.extractor.action_features(s, k))
        return priors_from_predictions([predicted[k] for k in keys], self.temperature)
