"""Command-line entry point: prove, check, train, loop, bench.

Exit codes: 0 success, 1 proof not found or verification failure, 2 usage,
configuration or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import gbt
from .calculus import NoStartClauseError
from .checker import check_trace
from .config import Config, ConfigError, _digits, load_config, to_ini
from .loop import LoopError, ProofRejected, collector_unit, read_problems, run_loop, solve_one
from .problems import ParseError, parse_problem


def corpus_dir() -> str:
    return str(Path(__file__).parent / "corpus")


def _add_common(parser):
    parser.add_argument("--config", help="ini configuration file")
    parser.add_argument(
        "-s",
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration value (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctab",
        description="Connection-tableau prover with Monte-Carlo search and learned guidance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof of one problem")
    p.add_argument("problem")
    p.add_argument("--value-model")
    p.add_argument("--policy-model")
    p.add_argument("--proof-out", help="proof trace path (default: <problem>.proof)")
    _add_common(p)

    p = sub.add_parser("check", help="verify a proof trace against its problem")
    p.add_argument("proof")
    p.add_argument("problem")

    p = sub.add_parser("train", help="train a model from a dataset file")
    p.add_argument("dataset")
    p.add_argument("model_out")
    _add_common(p)

    p = sub.add_parser("loop", help="run data-collection/training iterations")
    p.add_argument("problem_dir")
    p.add_argument("--iterations", default="2")
    p.add_argument("--out", default="out")
    _add_common(p)

    p = sub.add_parser("bench", help="run the prover over a problem directory")
    p.add_argument("problem_dir", nargs="?", default=corpus_dir())
    p.add_argument("--value-model")
    p.add_argument("--policy-model")
    _add_common(p)

    p = sub.add_parser("config", help="print the effective configuration")
    _add_common(p)
    return parser


def _load_models(args):
    value_model = gbt.load(args.value_model) if args.value_model else None
    policy_model = gbt.load(args.policy_model) if args.policy_model else None
    return value_model, policy_model


def _cmd_prove(args, cfg: Config) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        text = fh.read()
    value_model, policy_model = _load_models(args)
    name = os.path.basename(args.problem)
    stats, trace, _, _ = solve_one(name, text, cfg, value_model, policy_model)
    print(stats.line())
    if trace is None:
        return 1
    with open(args.proof_out or args.problem + ".proof", "w", encoding="utf-8") as fh:
        fh.write(trace)
    return 0


def _cmd_check(args) -> int:
    proof_text = Path(args.proof).read_text(encoding="utf-8")
    problem_text = Path(args.problem).read_text(encoding="utf-8")
    # an unparsable problem is an input error (exit 2), not a rejected proof
    verdict = check_trace(proof_text, parse_problem(problem_text))
    if verdict.ok:
        print("OK")
        return 0
    where = f" at step {verdict.step}" if verdict.step is not None else ""
    print(f"REJECTED{where}: {verdict.message}")
    if verdict.witness:
        print("satisfying assignment: " + ", ".join(f"{a}={v}" for a, v in verdict.witness.items()))
    return 1


def _cmd_train(args, cfg: Config) -> int:
    data = gbt.load_dataset(args.dataset, cfg.feature_dim)
    with collector_unit():
        model = gbt.train(data, cfg)
    gbt.save(model, args.model_out)
    h = model.history
    print(f"trained {len(model.trees)} trees (best round {h.best_round}, "
          f"holdout rmse {h.best_rmse:.6f})")
    return 0


def _cmd_loop(args, cfg: Config) -> int:
    if not _digits(args.iterations):  # the spelling of an int in the ini file
        raise ConfigError(f"bad value for --iterations: {args.iterations!r}")
    reports = run_loop(args.problem_dir, int(args.iterations), args.out, cfg)
    for r in reports:
        print(
            f"iteration {r.iteration}: proved {r.proved}/{r.attempted} "
            f"(cumulative {r.cumulative_proved}), rows value={r.value_rows} "
            f"policy={r.policy_rows}, {r.wall_time:.1f}s"
        )
    return 0


def _cmd_bench(args, cfg: Config) -> int:
    value_model, policy_model = _load_models(args)
    texts = read_problems(args.problem_dir)
    proved = 0
    totals = [0, 0, 0]
    for name, text in texts.items():
        stats, trace, _, _ = solve_one(name, text, cfg, value_model, policy_model)
        print(stats.line())
        if trace is not None:
            proved += 1
        totals[0] += stats.inferences
        totals[1] += stats.playouts
        totals[2] += stats.bigsteps
    print(f"# proved\t{proved}/{len(texts)}\tinferences\t{totals[0]}\t"
          f"playouts\t{totals[1]}\tbigsteps\t{totals[2]}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(getattr(args, "config", None), getattr(args, "overrides", []))
        if args.command == "prove":
            return _cmd_prove(args, cfg)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "train":
            return _cmd_train(args, cfg)
        if args.command == "loop":
            return _cmd_loop(args, cfg)
        if args.command == "bench":
            return _cmd_bench(args, cfg)
        # "config": argparse accepts no other command (the subparsers are required)
        sys.stdout.write(to_ini(cfg))
        return 0
    except (ConfigError, ParseError, NoStartClauseError, LoopError,
            gbt.DatasetError, gbt.ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if not isinstance(exc, ProofRejected) else 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
