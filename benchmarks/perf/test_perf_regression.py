"""The perf harness end-to-end: ledger lines and the trajectory gate.

These run the real ``scripts/bench.py`` CLI (micro workload, seconds)
against a scratch ledger, so they live under ``benchmarks/`` rather
than the tier-1 ``tests/`` tree.  They prove the acceptance loop: a
first run appends a full ledger line and skips the gate, a second run
diffs against the median of the first at the default threshold, and a
doctored fast trajectory trips the non-zero exit unless ``--no-gate``.
Every invocation points the ledger at the scratch directory — the
repo's committed ``results/ledger/bench.jsonl`` must never absorb test
runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_CLI = REPO_ROOT / "scripts" / "bench.py"


def run_bench(ledger: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    args = [
        sys.executable,
        str(BENCH_CLI),
        "--scale",
        "micro",
        "--ledger",
        str(ledger),
        *extra,
    ]
    return subprocess.run(
        args, capture_output=True, text=True, env=env, check=False
    )


def ledger_lines(ledger: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in ledger.read_text().splitlines()
        if line.strip()
    ]


def test_ledger_trajectory_accumulates_and_gates(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    first = run_bench(ledger, "--runid", "run_a")
    assert first.returncode == 0, first.stderr
    assert "gate skipped" in first.stdout
    (entry,) = ledger_lines(ledger)
    assert any(name.startswith("experiment.") for name in entry["phases"])
    assert all("max_rss_kb" in phase for phase in entry["phases"].values())
    assert entry["totals"]["wall_s"] > 0
    assert entry["metrics"], "bench line carries no counters"
    assert entry["meta"]["config_digest"]
    second = run_bench(
        ledger, "--runid", "run_b", "--threshold", "5.0"
    )
    assert second.returncode == 0, second.stderr
    assert "median[1]" in second.stdout
    lines = ledger_lines(ledger)
    assert [entry["runid"] for entry in lines] == ["run_a", "run_b"]
    # The ledger reader accepts v1 records; the writer stamps the
    # current schema (bumped to /2 when incident payloads landed).
    assert all(
        entry["schema"] == "repro-ledger/2" for entry in lines
    )


def test_second_run_diffs_against_previous(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    first = run_bench(ledger, "--runid", "run_a")
    assert first.returncode == 0, first.stderr
    second = run_bench(ledger, "--runid", "run_b")
    assert second.returncode == 0, second.stderr
    assert "median[1]" in second.stdout
    assert "threshold +35%" in second.stdout
    assert "experiment.collect_ground_truth" in second.stdout
    assert "<total>" in second.stdout


def test_doctored_slow_trajectory_trips_the_gate(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    first = run_bench(ledger, "--runid", "run_a")
    assert first.returncode == 0, first.stderr
    # Rewrite the run's ledger line to claim every phase was ~instant.
    entry = json.loads(ledger.read_text())
    for phase in entry["phases"].values():
        phase["wall_s"] = 0.005
    entry["totals"]["wall_s"] = 0.005 * len(entry["phases"])
    # Medians only trust phases that took >= the comparability floor;
    # keep one phase just above it so the gate has a real baseline.
    entry["phases"]["experiment.run_plan"]["wall_s"] = 0.06
    ledger.write_text(json.dumps(entry) + "\n")  # repro-lint: disable=RPL205 -- doctors a scratch tmp_path ledger line to look fast; never touches results/ledger/
    gated = run_bench(ledger, "--runid", "run_b")
    assert gated.returncode == 1
    assert "PERF REGRESSION" in gated.stderr
    assert "<< REGRESSION" in gated.stdout
    assert "median[1]" in gated.stdout
    ungated = run_bench(ledger, "--runid", "run_c", "--no-gate")
    assert ungated.returncode == 0, ungated.stderr
