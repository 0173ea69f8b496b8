"""Command-line front end.

Two subcommands: ``analyze`` runs one method against a case file or the
built-in case, ``reproduce-paper`` recomputes every published figure and
exits nonzero if any row misses its tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from rosterstat.case import CaseFile, CaseValidationError, builtin_paper_case, not_utf8, parse_case

# The --method choices, in report order; report.run_method rejects any other.
METHODS = (
    "elffers", "per-ward", "bonferroni", "pooled", "convolved", "fisher",
    "poisson-lr", "binomial-cond", "bayes", "relative-risk",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosterstat",
        description="Evaluate suspicious-coincidence evidence in roster data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run one analysis method on a case")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", metavar="PATH", help="path to a case file")
    source.add_argument("--builtin", choices=("original", "corrected"),
                        help="use the built-in case in the given data variant")
    analyze.add_argument("--method", choices=METHODS, required=True)
    analyze.add_argument("--wards", metavar="A,B",
                         help="comma-separated ward names (default: the RKZ pair "
                              "if present, else all wards)")
    analyze.add_argument("--jkz-multiplier", type=int, metavar="M",
                         help="post-hoc multiplier, required for --method elffers "
                              "(deliberately never defaulted)")
    analyze.add_argument("--mu-basis", default="exclude-suspect", metavar="BASIS",
                         help="exclude-suspect | include-suspect | fixed=<value>")
    analyze.add_argument("--prior", type=float, default=1e-5,
                         help="prior probability of guilt for --method bayes")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--replicates", type=int, default=100_000)
    analyze.add_argument("--workers", type=int, default=1)
    analyze.add_argument("--output", choices=("text", "machine"), default="text")

    repro = sub.add_parser("reproduce-paper",
                           help="recompute every published figure and check it")
    repro.add_argument("--seed", type=int, default=0)
    repro.add_argument("--replicates", type=int, default=100_000)
    repro.add_argument("--output", choices=("text", "machine"), default="text")
    return parser


def _load_case(args: argparse.Namespace) -> CaseFile:
    if args.builtin:
        return builtin_paper_case(args.builtin)
    path = Path(args.case)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"rosterstat: cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CaseValidationError(f"{path}: {not_utf8(exc)}") from None
    return parse_case(text)


def _analyze(args: argparse.Namespace) -> int:
    case = _load_case(args)
    # the analysis layers load only once the case file has been accepted
    from rosterstat.report import (
        build_report, render_machine, render_text, result_entry, run_method)

    if args.wards:
        names = [name.strip() for name in args.wards.split(",") if name.strip()]
    else:
        names = case.default_ward_names()
    runs = run_method(
        case, args.method, names, jkz_multiplier=args.jkz_multiplier,
        mu_basis=args.mu_basis, prior=args.prior, seed=args.seed,
        replicates=args.replicates, workers=args.workers,
    )
    results = [result_entry(label, result, **extra) for label, result, extra in runs]
    report = build_report(case, args.method, results)
    print(render_machine(report) if args.output == "machine" else render_text(report))
    return 0


def _reproduce(args: argparse.Namespace) -> int:
    from rosterstat.report import render_repro_table, reproduce_paper, strict_json

    rows = reproduce_paper(seed=args.seed, replicates=args.replicates)
    if args.output == "machine":
        print(strict_json({"results": rows}))
    else:
        print(render_repro_table(rows))
    return 0 if all(r.passed for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _analyze(args) if args.command == "analyze" else _reproduce(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except ValueError as exc:  # CaseValidationError is one
        print(f"rosterstat: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (say, `| head`): the final flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
