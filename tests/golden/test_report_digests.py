"""Golden digests of the normalized run report: phase tree and metrics.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one half
of ``run_bench_workload(scale, seed=seed, workers=0).normalized()``, on
the ``micro`` and ``tiny`` workloads with two seeds each:

* ``spans`` — the phase tree: every span's name, nesting and
  attributes (captures, node-hours, labels, ...), with wall-clock
  offsets and durations zeroed and the timing attributes stripped;
* ``metrics`` — the counter, gauge and histogram snapshot, without
  ``*_seconds`` histograms and cache-efficiency counters.

``results/obs_smoke.json`` pins one seed's report byte for byte; these
digests pin two workloads at two seeds, so a change to how spans are
opened or stamped that moves any seeded count, span or metric shows up
as a named artifact.  ``REPRO_WORKERS=2`` reruns this module, which
must not move a digest either.

Each case runs in a fresh interpreter, as ``scripts/bench.py`` does:
``obs.reset()`` zeroes counters in place but keeps every counter the
process ever registered, and the snapshot lists them, so a report
built after other work carries extra zero counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_SNIPPET = """\
import json
import sys

from repro.analysis import run_bench_workload
from repro.obs.ledger import stable_digest

scale_name, seed = sys.argv[1], int(sys.argv[2])
report = run_bench_workload(scale_name, seed=seed, workers=0)
payload = report.normalized().to_dict()
print(json.dumps({
    "spans": stable_digest(payload["spans"]),
    "metrics": stable_digest(payload["metrics"]),
}))
"""


def compute(case: str) -> dict[str, str]:
    """Fresh artifact digests of one golden case (``<scale>/seed<N>``)."""
    scale_name, seed_part = case.split("/")
    seed = seed_part.removeprefix("seed")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET, scale_name, seed],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


GOLDEN: dict[str, dict[str, str]] = {
    "micro/seed7": {"spans": "9ddf770694ca", "metrics": "2e184b9b9f9a"},
    "micro/seed3": {"spans": "1d8cc161d7bb", "metrics": "d9fe8983d0e5"},
    "tiny/seed7": {"spans": "201697042819", "metrics": "1e74562e7f4a"},
    "tiny/seed3": {"spans": "1f1b1324de3a", "metrics": "9693ccb05200"},
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_report_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
