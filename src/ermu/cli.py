"""Command line interface: run, report, diff, selftest."""

from __future__ import annotations

import argparse
import sys
from ermu import __version__
from ermu.errors import ConfigError, ErmuError


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_run(args) -> int:
    from dataclasses import replace

    from ermu.campaign import run_campaign
    from ermu.config import load_config

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed_override is not None:
        config = replace(config, master_seed=args.seed_override)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    try:
        summary = run_campaign(config, args.out)
    except ErmuError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {summary.n_rows} trial rows to {summary.out_dir} "
        f"({summary.quarantined} quarantined) in {summary.wall_time_s:.1f} s"
    )
    return 0


def cmd_report(args) -> int:
    from ermu.report import write_report

    try:
        path = write_report(args.results, out_dir=args.out)
    except ErmuError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def cmd_diff(args) -> int:
    from pathlib import Path

    from ermu.diff import diff_dirs

    a, b = Path(args.a), Path(args.b)
    for path in (a, b):
        if not path.is_dir():
            print(f"diff failed: {path} is not a directory", file=sys.stderr)
            return 2
    try:
        lines, differ = diff_dirs(a, b)
    except (OSError, ValueError, ErmuError) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if differ else 0


def cmd_selftest(args) -> int:
    from ermu.selftest import run_selftest

    ok = run_selftest(threads=args.threads)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ermu",
        description="Monte Carlo testbench comparing feature-model ERM with its Gaussian twin",
    )
    parser.add_argument("--version", action="version", version=f"ermu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=_thread_count, default=None, help="worker processes")
    p_run.add_argument("--seed-override", type=int, default=None, help="replace the master seed")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("--results", required=True, help="directory holding trials.csv")
    p_rep.add_argument("--out", default=None, help="where to write report artifacts")
    p_rep.set_defaults(fn=cmd_report)

    p_diff = sub.add_parser(
        "diff", help="compare two results directories artifact by artifact (exit 1 if they differ)"
    )
    p_diff.add_argument("a", help="first results directory")
    p_diff.add_argument("b", help="second results directory")
    p_diff.set_defaults(fn=cmd_diff)

    p_self = sub.add_parser("selftest", help="run the fast property suite")
    p_self.add_argument("--threads", type=_thread_count, default=1)
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
