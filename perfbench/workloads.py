"""The benchmark's workloads, each driven through mctab's public functions.

A workload is a set-up plus a pass: `loop.solve_one` over the 35-problem
corpus, one problem at a time.  `check` verifies a pass's outputs and
returns a work fingerprint: deterministic counts that any run of the same
code must reproduce exactly.

- unguided: no models, `desk.ini`, as `mctab bench --config desk.ini` runs
  it.  The calculus does most of the work.
- guided: the models a 2-iteration `run_loop` trains in set-up.  Feature
  extraction and prediction do most of the work, and the set-up loop runs
  every layer, the learner included.

guided runs `desk.ini` with `inference_limit = 1000` (set-up loop and passes
alike), as `-s inference_limit=1000` would.  At desk.ini's 4000, two guided
searches that exhaust their budget take 13 s of a 15 s pass (on a 2-vCPU
Xeon VM), so a run could time only one pass, and single passes spread by
20% from run to run there.

The seed fixes the order in which a pass visits the problems.  Each problem
is searched from scratch, so the order changes no outcome; the fingerprint
is built to be order-free and shows it.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from mctab import checker, gbt, loop
from mctab.config import load_config

CORPUS = os.path.join("src", "mctab", "corpus")
CONFIG = os.path.join("src", "mctab", "ini", "desk.ini")
LOOP_ITERATIONS = 2
GUIDED_OVERRIDES = ("inference_limit=1000",)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class State:
    cfg: object
    texts: dict  # problem name -> text
    order: list  # problem names in seeded order
    value_model: Optional[object] = None
    policy_model: Optional[object] = None
    model_texts: dict = field(default_factory=dict)  # file name -> text as saved
    fingerprint: dict = field(default_factory=dict)  # set-up part


def _read_inputs(root: str, seed: int, overrides=()) -> State:
    cfg = load_config(os.path.join(root, CONFIG), overrides)
    corpus = os.path.join(root, CORPUS)
    texts = {}
    for name in loop.list_problems(corpus):
        with open(os.path.join(corpus, name), "r", encoding="utf-8") as fh:
            texts[name] = fh.read()
    order = sorted(texts)
    random.Random(seed).shuffle(order)
    fp = {"corpus_sha256": sha256("".join(n + "\0" + texts[n] for n in sorted(texts)))}
    return State(cfg=cfg, texts=texts, order=order, fingerprint=fp)


def setup_unguided(root: str, tmp: str, seed: int) -> State:
    """Read the config and the corpus, as `mctab bench` does before it searches."""
    return _read_inputs(root, seed)


def setup_guided(root: str, tmp: str, seed: int) -> State:
    """Train the models with the loop in tmp and read them back from disk,
    as `mctab prove --value-model ... --policy-model ...` would."""
    state = _read_inputs(root, seed, GUIDED_OVERRIDES)
    reports = loop.run_loop(os.path.join(root, CORPUS), LOOP_ITERATIONS, tmp, state.cfg)
    last = os.path.join(tmp, f"iter{LOOP_ITERATIONS - 1}")
    for name in ("value.model", "policy.model", "value.data", "policy.data"):
        with open(os.path.join(last, name), "r", encoding="utf-8") as fh:
            text = fh.read()
        state.fingerprint[name.replace(".", "_") + "_sha256"] = sha256(text)
        if name.endswith(".model"):
            state.model_texts[name] = text
    state.fingerprint["loop_proved"] = [r.proved for r in reports]
    state.fingerprint["loop_rows"] = [[r.value_rows, r.policy_rows] for r in reports]
    state.value_model = gbt.parse_model(state.model_texts["value.model"])
    state.policy_model = gbt.parse_model(state.model_texts["policy.model"])
    return state


def reference() -> int:
    """A fixed pure-Python loop, about 1 ms, that shares no code with mctab.
    Timed between the problems of a pass, it sees the same slow and fast
    phases of a shared host as the pass does, so pass time over its time
    stays steady when the host does not.  It allocates nothing the garbage
    collector tracks, so the prover's heap does not change its speed."""
    s = 0
    for i in range(12_000):
        s += i * i % 7
    return s


def search_pass(state: State):
    """One pass; returns the outputs, the seconds the problems took and the
    seconds the reference loop took, once before each problem."""
    out, seconds, ref_seconds = [], 0.0, 0.0
    for name in state.order:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        stats, trace, value_rows, policy_rows = loop.solve_one(
            name, state.texts[name], state.cfg, state.value_model, state.policy_model
        )
        seconds += time.perf_counter() - t1
        ref_seconds += t1 - t0
        out.append((name, stats, trace, len(value_rows), len(policy_rows)))
    return out, seconds, ref_seconds


def check(state: State, out: list):
    """Re-verify every emitted proof against its problem text, and every
    set-up model by a parse/format round trip; returns (failed, attempted,
    fingerprint)."""
    failed = 0
    proved = []
    for name, stats, trace, _, _ in out:
        if trace is None:
            continue
        if checker.check_proof_texts(trace, state.texts[name]).ok:
            proved.append(name)
        else:
            failed += 1
    for text in state.model_texts.values():
        if gbt.format_model(gbt.parse_model(text)) != text:
            failed += 1
    fp = {
        **state.fingerprint,
        "inferences": sum(o[1].inferences for o in out),
        "playouts": sum(o[1].playouts for o in out),
        "bigsteps": sum(o[1].bigsteps for o in out),
        "value_rows": sum(o[3] for o in out),
        "policy_rows": sum(o[4] for o in out),
        "proved": sorted(proved),
        "report_sha256": sha256("\n".join(sorted(o[1].line() for o in out))),
    }
    return failed, len(out) + len(state.model_texts), fp


# name -> (set-up, set-ups per run, passes per run); the median set-up is
# reported, and each set-up is followed by a pass
WORKLOADS = {
    "unguided": (setup_unguided, 9, 20),
    "guided": (setup_guided, 3, 10),
}
