"""mctab's layers as the traced run sees them: which names to wrap, and the
per-layer metrics derived from the spans.

Each entry rebinds a name where its caller looks it up.  Spans nest, so a
layer's self time excludes the layers it calls (features inside guidance,
calculus inside mcts).
"""

from __future__ import annotations

from mctab import calculus, features, gbt, guidance, loop, mcts, terms

# run-level root spans opened by the benchmark itself; coverage is measured
# over them
SETUP, PASS = "run.setup", "run.pass"


def _add(observed: dict, key: str, value):
    observed[key] = observed.get(key, 0) + value


def _obs_actions(o, args, result):
    _add(o, "actions", len(result))


def _obs_apply(o, args, result):
    _add(o, "apply_inferences", result.inference_count - args[1].inference_count)


def _obs_search(o, args, result):
    _add(o, "nodes", len(result.tree.nodes))


def _obs_extract(o, args, result):
    _add(o, "rows", len(result[0]) + len(result[1]))


def _obs_check(o, args, result):
    _add(o, "accepted", int(result.ok))


def _obs_train(o, args, result):
    _add(o, "trees", len(result.trees))


# (owner, attribute, span name, observer)
SPANS = (
    (loop, "parse_problem", "problems.parse_problem", None),
    (mcts, "initial_states", "calculus.initial_states", None),
    (mcts, "apply_action", "calculus.apply_action", _obs_apply),
    (calculus, "valid_actions", "calculus.valid_actions", _obs_actions),
    (loop, "format_proof", "calculus.format_proof", None),
    (features.FeatureExtractor, "state_features", "features.state_features", None),
    (features.FeatureExtractor, "action_features", "features.action_features", None),
    (features, "compress", "features.compress", None),
    (guidance.DefaultGuidance, "value", "guidance.value", None),
    (guidance.DefaultGuidance, "priors", "guidance.priors", None),
    (guidance.ModelGuidance, "value", "guidance.value", None),
    (guidance.ModelGuidance, "priors", "guidance.priors", None),
    (gbt.GbtModel, "predict", "gbt.predict", None),
    (gbt, "train", "gbt.train", _obs_train),
    (loop, "search_problem", "mcts.search_problem", _obs_search),
    (mcts, "playout", "mcts.playout", None),
    (mcts, "bigstep", "mcts.bigstep", None),
    (loop, "extract_training_data", "mcts.extract_training_data", _obs_extract),
    (loop, "check_proof_texts", "checker.check_proof_texts", _obs_check),
)

# called millions of times: counted, never spanned
COUNTS = (
    (features, "fnv1a64", "features.fnv1a64"),
    (terms, "fnv1a64", "terms.fnv1a64"),
)

# name -> unit, in report order
PER_LAYER = {
    "problems.parse_problem.ns": "ns",
    "calculus.apply_action.calls": "count",
    "calculus.apply_action.ns": "ns",
    "calculus.apply_action.self_ns": "ns",
    "calculus.valid_actions.calls": "count",
    "calculus.valid_actions.ns": "ns",
    "calculus.actions_per_call": "actions/call",
    "calculus.inferences_per_apply": "inferences/apply",
    "calculus.initial_states.ns": "ns",
    "features.state_features.calls": "count",
    "features.state_features.ns": "ns",
    "features.action_features.calls": "count",
    "features.action_features.ns": "ns",
    "features.compress.calls": "count",
    "features.compress.ns": "ns",
    "features.cache_hit_ratio": "ratio",
    "features.fnv1a64.calls": "count",
    "terms.fnv1a64.calls": "count",
    "guidance.value.calls": "count",
    "guidance.value.self_ns": "ns",
    "guidance.priors.calls": "count",
    "guidance.priors.self_ns": "ns",
    "gbt.predict.calls": "count",
    "gbt.predict.ns": "ns",
    "gbt.train.calls": "count",
    "gbt.train.ns": "ns",
    "gbt.trees": "count",
    "mcts.search_problem.ns": "ns",
    "mcts.playout.calls": "count",
    "mcts.playout.self_ns": "ns",
    "mcts.bigstep.calls": "count",
    "mcts.nodes": "count",
    "mcts.expand_ratio": "nodes/playout",
    "mcts.extract_training_data.calls": "count",
    "mcts.extract_training_data.ns": "ns",
    "mcts.extract_training_data.rows": "count",
    "checker.check_proof_texts.calls": "count",
    "checker.check_proof_texts.ns": "ns",
    "checker.check_proof_texts.accepted": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def install(tracer):
    for owner, attr, name, observe in SPANS:
        tracer.wrap(owner, attr, name, observe)
    for owner, attr, name in COUNTS:
        tracer.count(owner, attr, name)


def originals() -> list:
    """(owner, attribute, object) for every name `install` rebinds."""
    return [(o, a, vars(o)[a]) for o, a, *_ in SPANS + COUNTS]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, overhead_s: float) -> dict:
    """Every per-layer metric over all traced spans; a layer that never ran
    on this workload reads 0."""
    totals = tracer.totals()
    obs = tracer.observed

    def span(layer: str, field_: str) -> int:
        return totals.get(layer, {}).get(field_, 0)

    values = {}
    for metric in PER_LAYER:
        layer, _, field_ = metric.rpartition(".")
        if field_ in ("calls", "ns", "self_ns"):
            counted = tracer.counts.get(layer)
            values[metric] = counted[0] if counted else span(layer, field_)
    extractor_calls = span("features.state_features", "calls") + span(
        "features.action_features", "calls"
    )
    values.update({
        "calculus.actions_per_call": _ratio(
            obs.get("actions", 0), span("calculus.valid_actions", "calls")
        ),
        "calculus.inferences_per_apply": _ratio(
            obs.get("apply_inferences", 0), span("calculus.apply_action", "calls")
        ),
        "features.cache_hit_ratio": (
            1.0 - _ratio(span("features.compress", "calls"), extractor_calls)
            if extractor_calls else 0.0
        ),
        "gbt.trees": obs.get("trees", 0),
        "mcts.nodes": obs.get("nodes", 0),
        "mcts.expand_ratio": _ratio(obs.get("nodes", 0), span("mcts.playout", "calls")),
        "mcts.extract_training_data.rows": obs.get("rows", 0),
        "checker.check_proof_texts.accepted": obs.get("accepted", 0),
        "trace.overhead_s": overhead_s,
        "trace.coverage": tracer.coverage((SETUP, PASS)),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
