"""Self-tests of the benchmark: span arithmetic, restoring wrapped names, and
the output contract against BENCHMARK.json."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_synthetic_nest():
    # root [0,100] > a [10,40] > b [15,25];  root > c [50,90]
    tr = Tracer(clock=_fake_clock([0, 10, 15, 25, 40, 50, 90, 100]))
    root = tr.open("root")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    c = tr.open("c")
    tr.close(c)
    tr.close(root)
    assert tr.self_times() == [30, 20, 10, 40]
    totals = tr.totals()
    assert totals["a"] == {"calls": 1, "ns": 30, "self_ns": 20}
    assert totals["root"] == {"calls": 1, "ns": 100, "self_ns": 30}
    assert tr.coverage(["root"]) == 0.7  # a and c cover 70 of 100


def test_wrapped_names_are_restored():
    from mctab import loop
    from mctab.config import Config

    before = layers.originals()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(vars(o)[a] is not f for o, a, f in before)
        stats, trace, _, _ = loop.solve_one("t.p", "p(a).\n-p(X) | q.\n-q.\n", Config())
    finally:
        tracer.restore()
    assert trace is not None and stats.outcome == "proved"
    assert all(vars(o)[a] is f for o, a, f in before)
    totals = tracer.totals()
    assert totals["mcts.search_problem"]["calls"] == 1
    assert tracer.counts["terms.fnv1a64"][0] > 0


def test_output_carries_every_metric_with_its_unit(monkeypatch, capsys):
    import run
    import workloads

    setup, _, _ = workloads.WORKLOADS["unguided"]
    monkeypatch.setitem(workloads.WORKLOADS, "unguided", (setup, 1, 1))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "unguided", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert layers.PER_LAYER == expected


def test_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "unguided",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
