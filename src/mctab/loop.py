"""Searching one problem, and the expert-iteration loop.

`solve_one` is the one path from a problem text to a proof: every search,
`mctab prove` and `mctab bench` as much as the loop, goes through it, and it
hands each found proof to the independent checker against the text it parsed
(a rejected proof raises `ProofRejected`: the search may never grade its own
homework).

`run_loop` reads the problem files once.  Each iteration then searches every
problem under the models the one before trained (iteration 0 runs
unguided), appends the extracted rows to the cumulative datasets, retrains
the value and policy models on everything collected so far, and writes its
report, datasets, models and proofs under `<out>/iter<k>`.  Both models
follow one rule: a model is trained, and its `.model` written, only when
its dataset has rows; the next iteration searches without a model it
lacks.  First it removes every file of those kinds from each `iter<k>`
under `<out>`, then the directories left empty, so a rerun equals a fresh
run; other files stay.

Problems are processed in sorted filename order so repeated runs are
bit-for-bit reproducible.  Wall-clock time is reported on stdout but kept
out of report.tsv for the same reason.

Each `solve_one` and each training the loop makes runs as one collector
unit (`collector_unit`): the prover and the learner build no reference
cycles, so reference counting frees what they drop, and the cyclic
collector, paused inside the unit, never rescans a live search tree or
training; one collection when the unit ends sweeps what it left and
empties the interpreter's free lists.
"""

from __future__ import annotations

import gc
import glob
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import gbt
from .checker import check_proof_texts
from .calculus import format_proof
from .config import Config
from .features import FeatureExtractor
from .guidance import DefaultGuidance, ModelGuidance
from .mcts import extract_training_data, search_problem, _dedup
from .problems import parse_problem


class LoopError(Exception):
    pass


class ProofRejected(LoopError):
    """A proof failed independent verification; the run must not continue."""


@dataclass
class IterationReport:
    iteration: int
    attempted: int
    proved: int
    cumulative_proved: int
    value_rows: int
    policy_rows: int
    wall_time: float


def list_problems(problem_dir: str) -> list:
    names = sorted(f for f in os.listdir(problem_dir) if f.endswith(".p"))
    if not names:
        raise LoopError(f"no .p problem files in {problem_dir!r}")
    return names


def read_problems(problem_dir: str) -> dict:
    """The text of every problem file, keyed by name in sorted order."""
    texts = {}
    for name in list_problems(problem_dir):
        with open(os.path.join(problem_dir, name), "r", encoding="utf-8") as fh:
            texts[name] = fh.read()
    return texts


@contextmanager
def collector_unit():
    """Run the block with the cyclic collector paused, then collect once.

    What exists on entry is frozen, so the one `gc.collect()` on exit,
    exceptions included, scans only what the block allocated and left
    alive.  When the caller has disabled the collector, the unit does
    nothing: so a unit nested in another is free.
    """
    if not gc.isenabled():
        yield
        return
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.collect()
        gc.unfreeze()
        gc.enable()


@collector_unit()
def solve_one(name: str, text: str, cfg: Config, value_model=None, policy_model=None):
    """Search one problem and verify what it finds; returns (stats, trace or
    None, value rows, policy rows).

    A found proof is checked against `text`, not against the parsed matrix,
    by a checker that shares with the search only the names its module
    docstring lists.  A rejection raises `ProofRejected`.  The call is one
    collector unit: its search tree is freed by reference counting when the
    body returns, before the unit's one collection.
    """
    m = parse_problem(text)
    extractor = FeatureExtractor(m, cfg.feature_dim)
    if value_model is None and policy_model is None:
        guidance = DefaultGuidance()
    else:
        guidance = ModelGuidance(value_model, policy_model, extractor, cfg.temperature)
    result = search_problem(m, guidance, cfg, name=name)
    trace = None
    if result.outcome == "proved":
        trace = format_proof(result.proof, result.proof_subst)
        verdict = check_proof_texts(trace, text)
        if not verdict.ok:
            raise ProofRejected(f"{name}: checker rejected an emitted proof: {verdict.message}")
    value_rows, policy_rows = extract_training_data(result.tree, cfg, extractor)
    return result.stats, trace, value_rows, policy_rows


# what a loop writes in each `iter<k>` directory
ARTIFACTS = ("report.tsv", "value.data", "policy.data", "value.model", "policy.model",
             os.path.join("proofs", "*.p.proof"))


def _remove_artifacts(out_root: str):
    """Delete what an earlier loop wrote under out_root, then the
    directories that leaves empty."""
    for out_dir in [os.path.join(out_root, d) for d in os.listdir(out_root)
                    if re.fullmatch("iter[0-9]+", d)]:
        for pattern in ARTIFACTS:
            for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
                os.remove(path)
        for path in (os.path.join(out_dir, "proofs"), out_dir):
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)


def run_loop(problem_dir: str, iterations: int, out_root: str, cfg: Config) -> list:
    """Iteration 0 runs unguided; every later one under the models the one before trained."""
    if iterations < 1:
        raise LoopError(f"iterations must be at least 1, got {iterations}")
    texts = read_problems(problem_dir)
    os.makedirs(out_root, exist_ok=True)
    _remove_artifacts(out_root)
    reports = []
    value_model = policy_model = None
    value_rows: list = []
    policy_rows: list = []
    proved_ever: set = set()
    for k in range(iterations):
        t0 = time.monotonic()
        out_dir = os.path.join(out_root, f"iter{k}")
        os.makedirs(os.path.join(out_dir, "proofs"), exist_ok=True)
        lines = []
        proved = 0
        for name, text in texts.items():
            stats, trace, values, policies = solve_one(name, text, cfg, value_model, policy_model)
            if trace is not None:
                with open(os.path.join(out_dir, "proofs", name + ".proof"), "w",
                          encoding="utf-8") as fh:
                    fh.write(trace)
                proved += 1
                proved_ever.add(name)
            lines.append(stats.line())
            value_rows.extend(values)
            policy_rows.extend(policies)

        sizes, models = [], []
        for kind, rows in (("value", value_rows), ("policy", policy_rows)):
            data = gbt.Dataset(_dedup(rows), cfg.feature_dim)
            gbt.save_dataset(data, os.path.join(out_dir, kind + ".data"))
            model = None
            if data.rows:
                with collector_unit():
                    model = gbt.train(data, cfg)
                gbt.save(model, os.path.join(out_dir, kind + ".model"))
            sizes.append(len(data.rows))
            models.append(model)
        value_model, policy_model = models
        with open(os.path.join(out_dir, "report.tsv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        reports.append(IterationReport(k, len(texts), proved, len(proved_ever), *sizes,
                                       time.monotonic() - t0))
    return reports
