"""Golden digests of the normalized run report: phase tree and metrics.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one half
of ``run_bench_workload(scale, seed=seed, workers=0).normalized()``, on
the ``micro`` and ``tiny`` workloads with two seeds each:

* ``spans`` — the phase tree: every span's name, nesting and
  attributes (captures, node-hours, labels, ...), with wall-clock
  offsets and durations zeroed and the timing attributes stripped;
* ``metrics`` — the counter, gauge and histogram snapshot, without
  ``*_seconds`` histograms.

``results/obs_smoke.json`` pins one seed's report byte for byte; these
digests pin two workloads at two seeds, so a change to how spans are
opened or stamped that moves any seeded count, span or metric shows up
as a named artifact.  ``REPRO_WORKERS=2`` reruns this module, which
must not move a digest either.

Each case is computed in the test process, after whatever ran before
it: ``obs.reset()`` drops from the snapshot every counter the workload
does not fetch again, so a report does not depend on the process's
history.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_bench_workload
from repro.obs.ledger import stable_digest


def compute(case: str) -> dict[str, str]:
    """Fresh artifact digests of one golden case (``<scale>/seed<N>``)."""
    scale_name, seed_part = case.split("/")
    seed = int(seed_part.removeprefix("seed"))
    report = run_bench_workload(scale_name, seed=seed, workers=0)
    payload = report.normalized().to_dict()
    return {
        "spans": stable_digest(payload["spans"]),
        "metrics": stable_digest(payload["metrics"]),
    }


GOLDEN: dict[str, dict[str, str]] = {
    "micro/seed7": {"spans": "9ddf770694ca", "metrics": "2e184b9b9f9a"},
    "micro/seed3": {"spans": "1d8cc161d7bb", "metrics": "d9fe8983d0e5"},
    "tiny/seed7": {"spans": "201697042819", "metrics": "1e74562e7f4a"},
    "tiny/seed3": {"spans": "1f1b1324de3a", "metrics": "9693ccb05200"},
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_report_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]


def test_digests_do_not_depend_on_the_previous_workload():
    # A report built after a different workload in the same process
    # must read as one from a fresh interpreter.
    for case in ("tiny/seed3", "micro/seed7"):
        assert compute(case) == GOLDEN[case]
