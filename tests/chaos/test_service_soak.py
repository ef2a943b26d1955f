"""The chaos soak sweep: the always-on service under injected faults.

The acceptance criterion: across >= 5 seeds x 3 random fault plans the
service never crashes, never scores a tweet twice, and its accounting
reconciles against the firehose ground truth::

    scored + dropped + lost + in_flight == ground truth

with every fault kind the injector actually executed surfaced as its
``faults.<kind>`` health alert.  A separate constrained-queue run
forces real overflow and asserts the ``service.queue_saturation``
alert plus the same reconciliation (drops are *accounted*, not lost).

Clean runs assert the service and fault namespaces stay silent;
network-level alerts (e.g. ``network.capture_rate_drop``) are out of
scope here — tiny worlds legitimately trip them without any fault.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.obs import reset, set_enabled
from repro.service.soak import run_service_soak

#: The acceptance criterion's >= 5 seeds.
SWEEP_SEEDS = (3, 11, 23, 41, 57)
PLAN_VARIANTS = (0, 1, 2)
HOURS = 5


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    set_enabled(True)
    yield
    reset()


def sweep_plan(seed: int, variant: int) -> FaultPlan:
    return FaultPlan.random_plan(
        seed * 1_000 + variant,
        start_hour=2,
        n_hours=HOURS,
        intensity=1.5,
    )


class TestSoakSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("variant", PLAN_VARIANTS)
    def test_faulted_run_reconciles(self, seed, variant):
        outcome = run_service_soak(
            seed, sweep_plan(seed, variant), hours=HOURS
        )
        assert outcome.duplicate_scores == 0
        assert outcome.in_flight == 0
        assert (
            outcome.scored + outcome.dropped + outcome.lost
            == outcome.ground_truth
        ), outcome.to_dict()
        assert outcome.reconciled

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_injected_kinds_surface_as_alerts(self, seed):
        outcome = run_service_soak(
            seed, sweep_plan(seed, 0), hours=HOURS
        )
        fired = set(outcome.alerts_fired)
        for kind in outcome.injected_kinds:
            assert f"faults.{kind}" in fired, (
                f"seed {seed}: injected {kind!r} without an alert "
                f"(fired: {sorted(fired)})"
            )


class TestCleanRuns:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_clean_run_reconciles_silently(self, seed):
        outcome = run_service_soak(seed, FaultPlan(), hours=HOURS)
        assert outcome.n_faults == 0
        assert outcome.injected_kinds == ()
        assert outcome.dropped == 0
        assert outcome.lost == 0
        assert outcome.reconciled
        # Tiny worlds can trip *network*-level rules without any
        # fault; the service and fault namespaces must stay silent.
        noisy = {
            alert
            for alert in outcome.alerts_fired
            if alert.startswith(("service.", "faults."))
        }
        assert noisy == set()


class TestBackpressureUnderSoak:
    def test_saturated_queue_alerts_and_reconciles(self):
        outcome = run_service_soak(
            7,
            FaultPlan(),
            hours=HOURS,
            queue_capacity=4,
            batch_size=64,
            flush_interval_s=1_800.0,
        )
        assert outcome.dropped > 0
        assert outcome.reconciled, outcome.to_dict()
        assert "service.queue_saturation" in outcome.alerts_fired


def test_outcome_record_is_json_ready():
    outcome = run_service_soak(3, sweep_plan(3, 1), hours=HOURS)
    record = outcome.to_dict()
    assert record["reconciled"] is True
    assert isinstance(record["alerts_fired"], list)
    assert isinstance(record["injected_kinds"], list)
    assert record["scored"] + record["dropped"] + record["lost"] + record[
        "in_flight"
    ] == record["ground_truth"]
