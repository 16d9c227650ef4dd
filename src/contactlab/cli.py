"""Command-line interface: run, validate, catalog, plot.

Exit codes: 0 success, 1 check failure, 2 config error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .geometry import FORMS
from .maps import HAMILTONIANS, PRIMITIVES
from .report import TASK_NAMES, ConfigError, TaskError, emit_plot_data, load_config, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="Numerical experiments on contactomorphisms of contact-element spaces over tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument(
        "--refine",
        type=int,
        default=1,
        help="multiply all grid resolutions (convergence studies)",
    )

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", type=Path)

    sub.add_parser(
        "catalog", help="list available primitives, Hamiltonians, forms and tasks"
    )

    p_plot = sub.add_parser("plot", help="extract two-column plot data for a task")
    p_plot.add_argument("report", type=Path, help="document.json from a run")
    p_plot.add_argument("task", help="task id within the report")
    p_plot.add_argument("--out", type=Path, default=None, help="output file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_config(args.config)
            print(f"config ok: {args.config}")
            return 0
        if args.command == "catalog":
            print("primitives: " + ", ".join(PRIMITIVES))
            print("hamiltonians: " + ", ".join(HAMILTONIANS))
            print("forms: " + ", ".join(FORMS))
            print("tasks: " + ", ".join(TASK_NAMES))
            return 0
        if args.command == "run":
            config = load_config(args.config)
            if args.refine < 1:
                raise ConfigError(["--refine must be a positive integer"])
            document = run(config, out_dir=args.out, refine=args.refine)
            for task_id, res in document["results"].items():
                verdict = res.get("verdict", "")
                check = (
                    ""
                    if "pass" not in res
                    else (" PASS" if res["pass"] else " FAIL")
                )
                print(f"{task_id}: {verdict}{check}".rstrip(": "))
            if not document["all_checks_pass"]:
                print("one or more checks FAILED")
                return 1
            print("all checks passed")
            return 0
        if args.command == "plot":
            document = json.loads(args.report.read_text())
            out = args.out or args.report.with_name(f"{args.task}.dat")
            path = emit_plot_data(document, args.task, out)
            print(f"wrote {path}")
            return 0
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except TaskError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
