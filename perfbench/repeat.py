"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload guided --seeds 1-10
        [--trajectory LABEL] [--write-reference]

For each metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json.  With --trajectory the summary, the
work fingerprint and the per-layer metrics of one extra traced run are
appended to perfbench/trajectory.jsonl under LABEL.  --write-reference
stores the runs' common fingerprint in perfbench/reference.json.  Runs are
sequential, from the root of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            notes[key] = json.loads(value)
    return json.loads(lines[-1]), notes, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trajectory", metavar="LABEL")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    results, raw_walls = [], []
    fingerprints = set()
    for seed in seeds(args.seeds):
        result, notes, elapsed = run_once(args.workload, seed, seconds)
        results.append(result)
        raw_walls.append(notes["wall_s"])
        fingerprints.add(json.dumps(notes["fingerprint"], sort_keys=True))
        flat = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {flat}", flush=True)
    common = json.loads(fingerprints.pop()) if len(fingerprints) == 1 else None
    if common is None:
        print("FLAG: work fingerprint differs between runs")
    elif args.write_reference:
        path = os.path.join(HERE, "reference.json")
        with open(path, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
        reference[args.workload] = common
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
        print(f"{name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {metric['bound']}")
    q1, med, q3 = statistics.quantiles(raw_walls, n=4) if len(raw_walls) > 1 else raw_walls * 3
    print(f"{'wall_s':12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
          f"spread {(q3 - q1) / med:.4f} (median pass in seconds, not gated)")
    if args.trajectory:
        traced, _, _ = run_once(args.workload, seeds(args.seeds)[0], seconds, trace=1)
        entry = {
            "label": args.trajectory,
            "workload": args.workload,
            "seeds": args.seeds,
            "run_seconds": seconds,
            "env": notes.get("env_start"),
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
            "metrics": summary,
            "wall_s": {"median": med, "q1": q1, "q3": q3, "unit": "s"},
            "fingerprint": common,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        with open(os.path.join(HERE, "trajectory.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
