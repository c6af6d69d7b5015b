import dataclasses
import gc
import os
import random

import pytest

from mctab import checker, loop
from mctab.config import Config
from mctab.loop import (
    LoopError,
    ProofRejected,
    collector_unit,
    list_problems,
    run_loop,
    solve_one,
)

from helpers import random_eq_matrix, random_matrix

FAST = dict(
    inference_limit=500,
    time_limit_s=60.0,
    bigstep_freq=50,
    path_limit=60,
    rounds=10,
    patience=5,
    max_depth=4,
)

PROBLEMS = {
    "a_chain.p": "-s0.\ns0 | -s1.\ns1.\n",
    "b_fo.p": "-p(f(a)).\np(f(X)) | -q(X).\nq(a).\n",
    "c_dead.p": "p(a).\n-p(b).\n",
}


@pytest.fixture
def problem_dir(tmp_path):
    d = tmp_path / "probs"
    d.mkdir()
    for name, text in PROBLEMS.items():
        (d / name).write_text(text)
    return str(d)


def test_solve_one_returns_a_record_without_the_search_tree():
    """Every field of the per-problem record is a `str` or an `int`, so it
    can never hold a search tree: the benchmark keeps every problem's record
    until its pass ends, and returning the tree-holding `SearchResult`
    instead raised the unguided pass's peak RSS from 30.8 to about 36 MB
    (2-vCPU host, Python 3.11.7)."""
    for name, text in PROBLEMS.items():
        stats = solve_one(name, text, Config(**FAST))[0]
        values = [getattr(stats, f.name) for f in dataclasses.fields(stats)]
        assert values and all(type(v) in (str, int) for v in values), (name, stats)


def test_list_problems_sorted_and_errors(tmp_path, problem_dir):
    assert list_problems(problem_dir) == sorted(PROBLEMS)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(LoopError):
        list_problems(str(empty))


def test_run_iteration_outputs(problem_dir, tmp_path):
    [report] = run_loop(problem_dir, 1, str(tmp_path / "out"), Config(**FAST))
    out = tmp_path / "out" / "iter0"
    assert report.attempted == 3
    assert report.proved == 2
    assert report.cumulative_proved == 2
    for name in ("value.data", "policy.data", "value.model", "report.tsv"):
        assert (out / name).exists()
    proofs = sorted(os.listdir(out / "proofs"))
    assert proofs == ["a_chain.p.proof", "b_fo.p.proof"]
    lines = (out / "report.tsv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("a_chain.p\tproved\t")


def test_run_loop_accumulates(problem_dir, tmp_path):
    cfg = Config(**FAST)
    reports = run_loop(problem_dir, 2, str(tmp_path / "out"), cfg)
    assert len(reports) == 2
    assert reports[1].value_rows >= reports[0].value_rows
    assert reports[1].cumulative_proved >= reports[0].cumulative_proved
    assert (tmp_path / "out" / "iter1" / "value.model").exists()


def test_loop_deterministic(problem_dir, tmp_path):
    cfg = Config(**FAST)
    run_loop(problem_dir, 2, str(tmp_path / "one"), cfg)
    run_loop(problem_dir, 2, str(tmp_path / "two"), cfg)
    for k in (0, 1):
        for name in ("report.tsv", "value.data", "policy.data", "value.model"):
            a = (tmp_path / "one" / f"iter{k}" / name).read_bytes()
            b = (tmp_path / "two" / f"iter{k}" / name).read_bytes()
            assert a == b, (k, name)


def test_solve_one_roundtrip():
    stats, trace, value_rows, policy_rows = solve_one(
        "x.p", PROBLEMS["a_chain.p"], Config(**FAST)
    )
    assert stats.outcome == "proved"
    assert trace.startswith("start ")
    assert value_rows and policy_rows is not None


def test_solve_one_checks_the_proof_against_the_text_it_parsed(monkeypatch):
    seen = []

    def spy(proof_text, problem_text):
        seen.append((proof_text, problem_text))
        return checker.check_proof_texts(proof_text, problem_text)

    monkeypatch.setattr(loop, "check_proof_texts", spy)
    _, trace, _, _ = solve_one("x.p", PROBLEMS["a_chain.p"], Config(**FAST))
    assert seen == [(trace, PROBLEMS["a_chain.p"])]
    solve_one("x.p", PROBLEMS["c_dead.p"], Config(**FAST))
    assert len(seen) == 1  # nothing to check without a proof


def marked(start_ids, text: str) -> str:
    """`text`, one clause a line, with `#` added to each start clause."""
    return "".join(line[:-1] + " | #.\n" if cid in start_ids else line + "\n"
                   for cid, line in enumerate(text.splitlines()))


def test_a_mark_on_the_default_start_clauses_changes_nothing():
    # every outcome, trace and training row is the same with the start
    # clauses marked; a marked clause used again once left a `#` goal that
    # nothing closed, which changed 6 of these 150 searches
    cfg = Config(inference_limit=150, bigstep_freq=10, path_limit=20)
    rng = random.Random(20)
    for i in range(150):
        m, text = (random_matrix if i % 2 else random_eq_matrix)(rng)
        plain = solve_one("random.p", text, cfg)
        assert solve_one("random.p", marked(m.start_ids, text), cfg) == plain, text
    # the marked clause is used twice
    stats, trace, _, _ = solve_one("reuse.p", "-p(a) | -p(b).\np(X) | #.\n", cfg)
    assert stats.line() == "reuse.p\tproved\t2\t1\t0\t3"
    assert trace == "start 1 {X=a}\next 0 {} p(a)\next 1 {X=b} -p(b)\n"


def test_solve_one_raises_when_the_checker_rejects(monkeypatch):
    monkeypatch.setattr(
        loop, "check_proof_texts", lambda proof, problem: checker.CheckResult(False, "planted")
    )
    frozen = gc.get_freeze_count()
    with pytest.raises(ProofRejected, match="^x.p: checker rejected an emitted proof: planted$"):
        solve_one("x.p", PROBLEMS["a_chain.p"], Config(**FAST))
    # the unit ended all the same (see the next test for the count)
    assert gc.isenabled() and gc.get_freeze_count() <= frozen


def collections(call, *args) -> list:
    """The (phase, generation) of every collection while `call(*args)` runs."""
    seen = []

    def watch(phase, info):
        seen.append((phase, info["generation"]))

    gc.collect()  # no automatic collection is due before the call pauses it
    gc.callbacks.append(watch)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(watch)
    return seen


def test_a_unit_pauses_the_collector_and_collects_once_when_it_ends():
    # each freeze count is compared with the one read before the call, as
    # it is not 0 on every interpreter: 3.12.1 reads 375 at start and again
    # after any full collection, frozen or not.  A unit's `gc.unfreeze()`
    # empties the permanent generation, so after a unit it holds no more.
    def solve():
        frozen = gc.get_freeze_count()
        solve_one("x.p", PROBLEMS["b_fo.p"], Config(**FAST))
        assert not gc.isenabled() and gc.get_freeze_count() == frozen

    def unit_solve():
        frozen = gc.get_freeze_count()
        with collector_unit():
            assert not gc.isenabled() and gc.get_freeze_count() > frozen
            solve_one("x.p", PROBLEMS["b_fo.p"], Config(**FAST))

    frozen = gc.get_freeze_count()
    assert collections(solve_one, "x.p", PROBLEMS["b_fo.p"], Config(**FAST)) == [
        ("start", 2), ("stop", 2)]
    assert gc.isenabled() and gc.get_freeze_count() <= frozen
    # a solve_one nested in a unit or called with the collector disabled
    # leaves the collector as it found it
    frozen = gc.get_freeze_count()
    assert collections(unit_solve) == [("start", 2), ("stop", 2)]
    assert gc.isenabled() and gc.get_freeze_count() <= frozen
    gc.disable()
    try:
        assert collections(solve) == []
        assert not gc.isenabled()
    finally:
        gc.enable()

