"""Command line interface for the benchmark harness.

Subcommands:

* ``run``: execute a plan (the built-in desk-scale plan when no file is
  given) and write traces plus a summary.
* ``verify``: recheck the stored traces against the update laws and
  bookkeeping invariants, and print the determinism digest if they hold.
* ``summarize``: rebuild and print the summary from the run sidecars.

Exit codes: 0 on success, 1 for validation problems (bad plan, bad
flags, failed verification), 2 for runtime failures during solver runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    SOLVERS,
    RunSet,
    default_plan,
    determinism_digest,
    format_summary,
    parse_plan,
    run_plan,
    set_plan_value,
    summarize_traces,
    verify_traces,
    write_summary,
)
from .errors import PlanError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="riemarc",
        description="Cubic-regularization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark plan")
    p_run.add_argument("--plan", type=Path, default=None, help="plan file")
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument(
        "--solvers",
        type=str,
        default=None,
        help=f"subset of {','.join(SOLVERS)}, split on commas or spaces",
    )
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a plan parameter, repeatable",
    )

    p_verify = sub.add_parser("verify", help="recheck stored traces")
    p_verify.add_argument("traces", type=Path, help="directory of trace files")

    p_summ = sub.add_parser("summarize", help="rebuild the summary from sidecars")
    p_summ.add_argument("traces", type=Path, help="directory of trace files")
    p_summ.add_argument("--out", type=Path, default=None, help="write CSV here")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            plan = default_plan()
            if args.plan is not None:
                plan = parse_plan(args.plan.read_text(encoding="utf-8"))
            if args.seed is not None:
                plan.master_seed = args.seed
            if args.solvers is not None:
                set_plan_value(plan, "solvers", args.solvers)
            for pair in args.overrides:
                key, sep, value = pair.partition("=")
                if not sep:
                    raise PlanError(f"--set expects key=value, got {pair!r}")
                set_plan_value(plan, key.strip(), value)
            report = run_plan(plan, args.out)
            print(format_summary(report.rows), end="")
            if report.failures:
                for failure in report.failures:
                    print(f"failure: {failure}", file=sys.stderr)
                return 2
            return 0

        if args.command == "verify":
            runs = RunSet(args.traces)
            violations = verify_traces(runs)
            if violations:
                for v in violations:
                    print(f"violation: {v}", file=sys.stderr)
                return 1
            print(f"ok, digest {determinism_digest(runs)}")
            return 0

        if args.command == "summarize":
            runs = RunSet(args.traces)
            if not runs:
                raise PlanError(f"no trace files found in {args.traces}")
            rows = summarize_traces(runs)
            print(format_summary(rows), end="")
            if args.out is not None:
                write_summary(rows, args.out)
            return 0
    except (PlanError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parser.error("unknown command")
    return 1


if __name__ == "__main__":
    sys.exit(main())
