"""mctab's benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload {unguided,guided} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports mctab from `src/` of
that checkout and nothing else.  The load is a closed loop with one client:
one process runs one pass after another, one problem at a time.

A run sets the workload up several times (the median is `setup_s`), with a
whole pass after each set-up, then adds passes up to the workload's fixed
pass count, so every commit is measured on the same number of samples.
`--seconds` only caps the passes' total time: once they have taken that
long, no further pass starts.

`wall_ref` is one pass's time in units of a fixed reference loop (see
`workloads.reference`) run between its problems: the median over the run's
passes of pass seconds / reference seconds.  On a shared 2-vCPU Xeon VM the
host ran whole runs 1.2-1.5x slower for minutes at a time.  That was not
vCPU steal: CPU time stayed within about 2% of wall time.  Over ten runs,
the quartile spread (q3 - q1 over the median) of pass seconds reached 0.33
for the sum of each problem's fastest time and 0.30 for the median pass,
beyond the largest bound a metric may have (0.25); the ratio, which a slow
phase scales on both sides, spread 0.06-0.13.  It cancels only part of a
slowdown: when the host's median pass grew 13-19%, the ratio grew 7-8%.
The median pass in seconds is printed as `# wall_s`.

Every pass's outputs are checked: proofs by the independent checker, the
set-up's models by a parse/format round trip.  Each pass must reproduce the
first pass's work fingerprint exactly, and the fingerprint is compared with
`reference.json` (a difference there is flagged, not failed).

With `--trace 1` the timed passes still run untraced; after them the run
wraps mctab's public entry points (see layers.py), repeats the set-up and
one pass under the wrappers, and reports per-layer counts and times over
both, the tracing overhead in seconds (the traced pass minus `wall_ref`
times the reference loop's time in the traced pass, that is, minus the
untraced pass at the same host speed) and the share of set-up and pass time
the layer spans cover.

Extra lines before the last one give the environment at start and end, the
fingerprint and the per-pass times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB", "solved": "count"}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def import_package():
    """Import mctab from this checkout's src/, or exit with an error if it is not there."""
    init = os.path.join(SRC, "mctab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no mctab package at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import mctab

    if os.path.realpath(mctab.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported mctab from {mctab.__file__}, not {init}")


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Run:
    """Outcome bookkeeping shared by the timed and the traced passes."""

    def __init__(self, check):
        self._check = check
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None

    def check(self, state, out):
        failed, attempted, fp = self._check(state, out)
        self.attempted += attempted
        self.failed += failed
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            print(f"FAIL: pass fingerprint differs from the first pass: {fp}", file=sys.stderr)
            self.failed += attempted


def run_traced(setup, run_pass, tmp, seed, run: Run, untraced_ratio: float) -> dict:
    import layers
    from tracer import Tracer

    originals = layers.originals()
    tracer = Tracer()
    layers.install(tracer)
    try:
        state = tracer.span(layers.SETUP, setup, ROOT, os.path.join(tmp, "traced"), seed)
        gc.collect()
        out, traced_wall, traced_ref = tracer.span(layers.PASS, run_pass, state)
    finally:
        tracer.restore()
    run.check(state, out)  # untraced: the gate's own checker calls are not the program's
    moved = [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in originals if vars(o)[a] is not f]
    if moved:
        print(f"FAIL: not restored after tracing: {moved}", file=sys.stderr)
        run.failed += 1
    # the untraced pass at the traced pass's host speed, as the reference loop measured it
    return layers.metrics(tracer, traced_wall - untraced_ratio * traced_ref)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_start = environment()
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup, setup_repeats, passes = workloads.WORKLOADS[args.workload]

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        setups, walls, refs = [], [], []
        run = Run(workloads.check)
        while len(setups) < setup_repeats or (len(walls) < passes and sum(walls) < args.seconds):
            if len(setups) < setup_repeats:
                tmp_k = os.path.join(tmp, f"setup{len(setups)}")
                state, seconds = timed(setup, ROOT, tmp_k, args.seed)
                setups.append(seconds)
            gc.collect()
            out, seconds, ref_seconds = workloads.search_pass(state)
            walls.append(seconds)
            refs.append(ref_seconds)
            run.check(state, out)
            del out
        wall_ref = statistics.median(w / r for w, r in zip(walls, refs))
        if args.trace:
            metrics = run_traced(setup, workloads.search_pass, tmp, args.seed, run, wall_ref)
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_ref": wall_ref,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "solved": len(run.fingerprint["proved"]),
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload)
    same = reference == run.fingerprint
    if not same:
        print(f"FLAG: work fingerprint differs from reference.json[{args.workload!r}]",
              file=sys.stderr)
    print("# env_start " + json.dumps(env_start))
    print("# env_end " + json.dumps(environment()))
    print("# setup_s " + json.dumps(setups))
    print("# pass_s " + json.dumps(walls))
    print("# ref_s " + json.dumps(refs))
    print("# wall_s " + json.dumps(statistics.median(walls)))
    print("# fingerprint " + json.dumps(run.fingerprint, sort_keys=True))
    print("# fingerprint_matches_reference " + json.dumps(same))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
