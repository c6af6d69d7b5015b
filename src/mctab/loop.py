"""Searching one problem, and iterated data collection and training (the
expert-iteration loop).

`solve_one` is the one path from a problem text to a proof: every search,
`mctab prove` and `mctab bench` as much as the loop, goes through it, and it
hands each found proof to the independent checker against the text it parsed
(a rejected proof raises `ProofRejected`: the search may never grade its own
homework).  Each iteration of the loop searches every problem under the
current guidance, appends the extracted rows to the cumulative datasets, and
retrains the value and policy models on everything collected so far.

Problems are processed in sorted filename order so repeated runs are
bit-for-bit reproducible.  Wall-clock time is reported on stdout but kept
out of report.tsv for the same reason.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Optional

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
    trained_value: gbt.GbtModel
    trained_policy: Optional[gbt.GbtModel]  # None without policy rows


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


def _guidance_for(m, cfg: Config, value_model, policy_model):
    extractor = FeatureExtractor(m, cfg.feature_dim)
    if value_model is None and policy_model is None:
        return DefaultGuidance(), extractor, cfg.cp_initial
    guidance = ModelGuidance(value_model, policy_model, extractor, cfg.temperature)
    return guidance, extractor, cfg.cp_later


def solve_one(name: str, text: str, cfg: Config, value_model=None, policy_model=None):
    """Search one problem and verify what it finds; returns (stats, trace or
    None, value rows, policy rows).

    A found proof is checked against `text`, not against the parsed matrix,
    by a checker that shares with the search only the names its module
    docstring lists.  A rejection raises `ProofRejected`.
    """
    m = parse_problem(text)
    guidance, extractor, cp = _guidance_for(m, cfg, value_model, policy_model)
    result = search_problem(m, guidance, cfg, cp=cp, name=name)
    trace = None
    if result.outcome == "proved":
        trace = format_proof(result.proof, result.proof_subst)
        verdict = check_proof_texts(trace, text)
        if not verdict.ok:
            raise ProofRejected(f"{name}: checker rejected an emitted proof: {verdict.message}")
    value_rows, policy_rows = extract_training_data(result.tree, cfg, extractor)
    return result.stats, trace, value_rows, policy_rows


def _remove(path: str):
    """Delete an artifact this run does not make, left by an earlier run
    into the same directory."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def run_iteration(
    problem_dir: str,
    out_dir: str,
    iteration: int,
    cfg: Config,
    value_model=None,
    policy_model=None,
    cumulative_value: Optional[list] = None,
    cumulative_policy: Optional[list] = None,
    proved_ever: Optional[set] = None,
) -> IterationReport:
    """One data-collection plus training pass over the problem directory."""
    t0 = time.monotonic()
    texts = read_problems(problem_dir)
    results = [solve_one(n, t, cfg, value_model, policy_model) for n, t in texts.items()]

    proofs_dir = os.path.join(out_dir, "proofs")
    os.makedirs(proofs_dir, exist_ok=True)
    cumulative_value = cumulative_value if cumulative_value is not None else []
    cumulative_policy = cumulative_policy if cumulative_policy is not None else []
    proved_ever = proved_ever if proved_ever is not None else set()

    lines = []
    proved = 0
    for name, (stats, trace, value_rows, policy_rows) in zip(texts, results):
        proof_path = os.path.join(proofs_dir, name + ".proof")
        if trace is not None:
            with open(proof_path, "w", encoding="utf-8") as fh:
                fh.write(trace)
            proved += 1
            proved_ever.add(name)
        else:
            _remove(proof_path)
        lines.append(stats.line())
        cumulative_value.extend(value_rows)
        cumulative_policy.extend(policy_rows)

    value_data = gbt.Dataset(_dedup(cumulative_value), cfg.feature_dim)
    policy_data = gbt.Dataset(_dedup(cumulative_policy), cfg.feature_dim)
    gbt.save_dataset(value_data, os.path.join(out_dir, "value.data"))
    gbt.save_dataset(policy_data, os.path.join(out_dir, "policy.data"))

    new_value = gbt.train(value_data, cfg)
    gbt.save(new_value, os.path.join(out_dir, "value.model"))
    new_policy = None
    if policy_data.rows:
        new_policy = gbt.train(policy_data, cfg)
        gbt.save(new_policy, os.path.join(out_dir, "policy.model"))
    else:
        _remove(os.path.join(out_dir, "policy.model"))

    with open(os.path.join(out_dir, "report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    return IterationReport(
        iteration=iteration,
        attempted=len(texts),
        proved=proved,
        cumulative_proved=len(proved_ever),
        value_rows=len(value_data.rows),
        policy_rows=len(policy_data.rows),
        wall_time=time.monotonic() - t0,
        trained_value=new_value,
        trained_policy=new_policy,
    )


def run_loop(problem_dir: str, iterations: int, out_root: str, cfg: Config) -> list:
    """Iteration 0 runs unguided; every later iteration loads the fresh models."""
    if iterations < 1:
        raise LoopError(f"iterations must be at least 1, got {iterations}")
    reports = []
    value_model = None
    policy_model = None
    cumulative_value: list = []
    cumulative_policy: list = []
    proved_ever: set = set()
    for k in range(iterations):
        out_dir = os.path.join(out_root, f"iter{k}")
        os.makedirs(out_dir, exist_ok=True)
        report = run_iteration(
            problem_dir,
            out_dir,
            k,
            cfg,
            value_model=value_model,
            policy_model=policy_model,
            cumulative_value=cumulative_value,
            cumulative_policy=cumulative_policy,
            proved_ever=proved_ever,
        )
        reports.append(report)
        value_model = report.trained_value
        policy_model = report.trained_policy
    return reports
