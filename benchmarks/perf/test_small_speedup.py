"""The columnar-refactor speedup gate: small workload, >= 2x.

The committed run ledger carries two ``small`` records captured on
this hardware immediately *before* the columnar data plane and the
vectorized hour loop landed (runids ``pre-refactor-a``/``-b``, ~9.6 s
median).  This gate replays the same workload through the same CLI
today and fails if end-to-end wall time has regressed to worse than
half the pre-refactor median — i.e. the refactor's headline 2x must
hold on every future commit.

Lives under ``benchmarks/`` (minutes-scale, timing-sensitive) rather
than the tier-1 ``tests/`` tree.  The run is measured exactly the way
the baselines were: ``scripts/bench.py`` in a subprocess, wall taken
from its ledger line's ``totals.wall_s`` (summed root
``experiment.*`` spans), pointed at a scratch ledger so the committed
ledger never absorbs test runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_CLI = REPO_ROOT / "scripts" / "bench.py"
LEDGER = REPO_ROOT / "results" / "ledger" / "bench.jsonl"

#: The refactor's acceptance bar: current wall <= baseline / SPEEDUP.
SPEEDUP = 2.0


def pre_refactor_median() -> float:
    """Median small-workload wall of the pre-refactor ledger records."""
    walls = []
    for line in LEDGER.read_text().splitlines():
        record = json.loads(line)
        if record.get("runid", "").startswith("pre-refactor") and (
            record.get("meta", {}).get("scale") == "small"
        ):
            walls.append(float(record["totals"]["wall_s"]))
    if not walls:
        pytest.skip("ledger has no pre-refactor small baseline records")
    return statistics.median(walls)


def run_small(tmp_path: Path) -> float:
    """One CLI small run; returns its ledger line's totals.wall_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_PROFILE", None)
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_CLI),
            "--scale",
            "small",
            "--runid",
            "speedup-gate",
            "--ledger",
            str(tmp_path / "bench.jsonl"),
            "--no-gate",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = (tmp_path / "bench.jsonl").read_text().splitlines()
    return float(json.loads(line)["totals"]["wall_s"])


class TestSmallWorkloadSpeedup:
    def test_two_x_vs_pre_refactor_baseline(self, tmp_path):
        baseline = pre_refactor_median()
        wall = run_small(tmp_path)
        bar = baseline / SPEEDUP
        assert wall <= bar, (
            f"small workload took {wall:.2f}s; the {SPEEDUP:g}x gate "
            f"requires <= {bar:.2f}s (pre-refactor median "
            f"{baseline:.2f}s)"
        )
