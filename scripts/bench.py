"""Perf-regression gate: run a canonical workload, append a ledger line.

Runs one of the preset benchmark workloads (micro/tiny/small/large)
fully instrumented and distills its run report into one run-ledger
record with ``RunRecord.from_report``: per-phase wall/CPU/peak RSS,
root-span totals, the counter snapshot, and run identity including
the ``config_digest``.  The record is appended to
``results/ledger/bench.jsonl`` (tracked in git), so the perf
trajectory accumulates across machines and commits.

The gate diffs the run against the **median of the last K** comparable
ledger records (same scale + workers) via ``diff_trajectory``.  Any
phase slower than ``--threshold`` (default +35%) makes the script
**exit non-zero** — wire it next to the tier-1 pytest command to catch
perf regressions per PR:

    REPRO_SCALE=tiny PYTHONPATH=src python scripts/bench.py

Every phase span records its wall-clock, CPU seconds and peak RSS.  For
the hot functions behind a phase, run the script under the standard
profiler: ``python -m cProfile -s cumtime scripts/bench.py ...``.
"""

from __future__ import annotations

import argparse
import datetime
import logging
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import configure_logging  # noqa: E402
from repro.analysis import WORKLOAD_NAMES, run_bench_workload  # noqa: E402
from repro.obs import (  # noqa: E402
    HealthEngine,
    RunLedger,
    RunRecord,
    diff_trajectory,
    resources,
)
from repro.obs.ledger import DEFAULT_LAST_K, DEFAULT_THRESHOLD  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


def _threshold(text: str) -> float:
    """``--threshold``: a finite fraction >= 0 (``nan`` passes any run)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _last_k(text: str) -> int:
    """``--last-k``: a trajectory window of at least one record."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=WORKLOAD_NAMES,
        default=os.environ.get("REPRO_SCALE", "tiny"),
        help="workload preset (env REPRO_SCALE; default tiny)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "0") or "0"),
        help=(
            "process-pool size for CPU-bound phases (env "
            "REPRO_WORKERS; 0 = sequential, -1 = all cores); "
            "recorded as meta.workers in the ledger line"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=_threshold,
        default=DEFAULT_THRESHOLD,
        help="regression gate as a fraction (0.35 = fail on +35%%)",
    )
    parser.add_argument(
        "--runid",
        default=None,
        help="ledger record id (default: UTC timestamp)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help=(
            "run-ledger JSONL to append to and gate against (default: "
            "results/ledger/bench.jsonl under the repo root)"
        ),
    )
    parser.add_argument(
        "--last-k",
        type=_last_k,
        default=DEFAULT_LAST_K,
        help=(
            "trajectory window: gate against the median of the last "
            f"K comparable ledger records (default {DEFAULT_LAST_K})"
        ),
    )
    parser.add_argument(
        "--health",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "watch the run with the default health-rule pack and "
            "record totals.alerts_fired (plus the incident list) in "
            "the ledger; --no-health skips the watchdog entirely"
        ),
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="append the ledger line but never fail on regressions",
    )
    return parser.parse_args(argv)


def _comparable(record: RunRecord, current: RunRecord) -> bool:
    """Whether a ledger record is trajectory material for this run."""
    return (
        record.kind == "bench"
        and record.meta.get("scale") == current.meta.get("scale")
        and record.meta.get("workers") == current.meta.get("workers")
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    configure_logging(logging.WARNING)
    runid = args.runid or datetime.datetime.now(
        datetime.timezone.utc
    ).strftime("%Y%m%dT%H%M%SZ")
    health = HealthEngine().attach() if args.health else None
    try:
        report = run_bench_workload(
            args.scale, seed=args.seed, workers=args.workers
        )
    finally:
        if health is not None:
            health.detach()
    if health is not None and health.alerts_fired:
        print(
            f"health: {health.alerts_fired} alert(s) fired "
            f"({', '.join(sorted(i.rule for i in health.incidents.incidents))})"
        )

    record = RunRecord.from_report(
        report,
        runid,
        kind="bench",
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
    )
    if not record.phases:
        print(
            "benchmark report has no experiment.* spans; "
            "nothing appended to the ledger",
            file=sys.stderr,
        )
        return 2
    # Peak RSS of the whole run (ru_maxrss is monotonic): the scale
    # workloads exist to track memory as much as wall time.
    record.totals["max_rss_kb"] = resources.sample().max_rss_kb
    if health is not None:
        record.totals["alerts_fired"] = health.alerts_fired
        record.incidents = health.incidents.to_payload()

    # The trajectory accumulates even when gating is skipped: history
    # is what makes future medians trustworthy.  The baseline is read
    # BEFORE appending so this run never gates against itself.
    ledger = RunLedger(
        args.ledger
        if args.ledger is not None
        else RunLedger.default(REPO_ROOT).path
    )
    history, skipped = ledger.scan()
    if skipped:
        print(
            f"ledger: skipped {skipped} unusable line(s) in {ledger.path}",
            file=sys.stderr,
        )
    baseline = [past for past in history if _comparable(past, record)]
    ledger.append(record, timestamp=runid)
    print(f"ledger: {ledger.path} ({len(baseline) + 1} runs)")

    if not baseline:
        print("no comparable ledger history; regression gate skipped")
        return 0
    diff = diff_trajectory(
        baseline, record, threshold=args.threshold, k=args.last_k
    )
    print()
    print(diff.render())
    if not diff.ok and not args.no_gate:
        print(
            f"\nPERF REGRESSION: {len(diff.regressions)} phase(s) "
            f"slower than +{100 * args.threshold:.0f}% "
            f"vs {diff.previous_runid}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
