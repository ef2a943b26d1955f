"""The ``repro-lint`` command line.

.. code-block:: console

    $ python -m repro.devtools.lint src/repro --format json
    $ python -m repro.devtools.lint --select RPL0 src/repro   # determinism only
    $ python -m repro.devtools.lint --format sarif --output results/lint.sarif src
    $ python -m repro.devtools.lint --list-rules

Inline ``# repro-lint: disable=RPLxxx -- reason`` pragmas are the one
way to suppress a finding (:mod:`.suppressions`).

Exit codes: 0 clean, 1 active findings (or budget exceeded), 2 usage
error (an unknown rule id, a path that does not exist, a budget that
is not a finite number > 0).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

from .engine import (
    ALL_RULES,
    RuleSelectionError,
    lint_paths,
    select_rules,
    validate_rule_ids,
)
from .findings import Finding
from .formats import to_sarif


def _budget(text: str) -> float:
    """``--max-seconds``: a finite number > 0 (``nan`` never trips)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "repro-lint: AST + dataflow invariant checker for "
            "determinism, parallel-safety, schema, observability, "
            "and hygiene contracts."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the formatted report to FILE instead of stdout "
        "(a one-line text summary still goes to stdout)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="IDS",
        help="comma-separated rule-id prefixes to run (RPL001,RPL2)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="IDS",
        help="comma-separated rule-id prefixes to skip",
    )
    parser.add_argument(
        "--max-seconds",
        type=_budget,
        default=None,
        metavar="S",
        help="fail (exit 1) if the lint pass exceeds S wall-clock "
        "seconds — the CI budget guard",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory findings paths are relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_ids(values: Sequence[str] | None) -> list[str] | None:
    if not values:
        return None
    ids = [
        part.strip()
        for value in values
        for part in value.split(",")
        if part.strip()
    ]
    return ids or None


def _render_text(
    active: list[Finding],
    suppressed: list[Finding],
    n_files: int,
    out,
) -> None:
    for finding in active:
        marker = " (warning)" if finding.severity == "warning" else ""
        print(finding.render() + marker, file=out)
        if finding.fix_hint:
            print(f"    hint: {finding.fix_hint}", file=out)
    summary = (
        f"{len(active)} finding(s), {len(suppressed)} suppressed, "
        f"{n_files} file(s) checked"
    )
    print(summary, file=out)


def _render_json(
    active: list[Finding],
    suppressed: list[Finding],
    n_files: int,
    out,
) -> None:
    payload = {
        "findings": [f.to_dict() for f in active],
        "suppressed": [f.to_dict() for f in suppressed],
        "checked_files": n_files,
    }
    json.dump(payload, out, indent=2)
    print(file=out)


def _format_report(args, active, suppressed, n_files) -> str:
    """The report in the chosen format, as a string."""
    import io

    buffer = io.StringIO()
    if args.format == "json":
        _render_json(active, suppressed, n_files, buffer)
    elif args.format == "sarif":
        json.dump(
            to_sarif(active, ALL_RULES), buffer, indent=2
        )
        buffer.write("\n")
    else:
        _render_text(active, suppressed, n_files, buffer)
    return buffer.getvalue()


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(
                f"{rule.id}  [{rule.category}] {rule.name}: "
                f"{rule.description}",
                file=out,
            )
        return 0

    select_ids = _split_ids(args.select)
    ignore_ids = _split_ids(args.ignore)
    try:
        validate_rule_ids(select_ids)
        validate_rule_ids(ignore_ids)
    except RuleSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rules = select_rules(ALL_RULES, select_ids, ignore_ids)
    if not rules:
        print("error: no rules selected", file=sys.stderr)
        return 2

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    started = time.perf_counter()
    result = lint_paths(args.paths, rules=rules, root=args.root)
    elapsed = time.perf_counter() - started
    active, suppressed = result.findings, result.pragma_suppressed

    report = _format_report(args, active, suppressed, result.n_files)
    if args.output:
        target = Path(args.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report, encoding="utf-8")
        print(
            f"{len(active)} finding(s), {len(suppressed)} suppressed, "
            f"{result.n_files} file(s) checked -> {args.output}",
            file=out,
        )
    else:
        out.write(report)

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"error: lint took {elapsed:.2f}s, over the "
            f"--max-seconds {args.max_seconds:g} budget",
            file=sys.stderr,
        )
        return 1
    return 1 if active else 0


if __name__ == "__main__":
    raise SystemExit(main())
