"""Directed fault scenarios: each recovery path, pinned and audited.

Where ``test_invariants`` sweeps randomized schedules, these tests pin
one fault each at a known hour and assert the exact recovery behavior:
reconnect-with-backfill, switch deferral, failed reconnects with a
later catch-up, draining a stream still broken at shutdown, node
suspensions, REST-layer faults, and duplicate/out-of-order delivery.

Hour numbering: ``run_faulted_network`` warms up for 2 engine hours,
so monitored hours are 2, 3, ... — and a recovery at the *end* of
hour ``h`` happens at clock hour ``h + 1`` (budgets for faults aimed
at that recovery must target ``h + 1``).
"""

from __future__ import annotations

import pytest

from repro.faults import (
    BackoffConfig,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)
from repro.obs import get_event_stream, get_registry, reset, set_enabled

from tests.chaos.strategies import run_faulted_network


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    set_enabled(True)
    yield
    reset()


def single(hour: int, kind: FaultKind, **kwargs) -> FaultPlan:
    return FaultPlan((ScheduledFault(hour=hour, kind=kind, **kwargs),))


def no_retry_policy(seed: int = 0) -> RetryPolicy:
    return RetryPolicy(seed=seed, default=BackoffConfig(max_attempts=1))


class TestReconnectAndBackfill:
    def test_mid_hour_disconnect_recovers_same_hour(self):
        plan = single(
            3, FaultKind.STREAM_DISCONNECT, at_fraction=0.2
        )
        run = run_faulted_network(seed=9, plan=plan, hours=4)
        run.assert_reconciled()
        recovery = run.network.recovery
        assert recovery.reconnects == 1
        assert recovery.failed_reconnects == 0
        # The gap (80% of hour 3) is well inside the platform's
        # recent-post retention, so nothing is written off.
        assert recovery.lost == 0
        assert recovery.backfilled > 0
        assert run.backfilled_ids
        assert not run.network.deployed  # shut down cleanly
        event = get_event_stream().last("stream.reconnect")
        assert event is not None
        assert event.attributes["reconnected"] is True
        assert (
            event.attributes["backfilled"] + event.attributes["lost"]
            == event.attributes["undelivered"]
        )

    def test_backfilled_captures_are_flagged(self):
        plan = single(
            3, FaultKind.STREAM_DISCONNECT, at_fraction=0.2
        )
        run = run_faulted_network(seed=9, plan=plan, hours=4)
        flagged = [
            c for c in run.network.monitor.captured if c.backfilled
        ]
        assert len(flagged) == run.network.recovery.backfilled
        counters = get_registry().snapshot()["counters"]
        assert counters["capture.gap_backfilled"] == len(flagged)


class TestDeferredSwitch:
    def test_filter_limit_defers_the_switch_one_hour(self):
        # Budget 20 outlasts the default 6-attempt retry budget, so
        # the hour-3 portability switch cannot update the filter.
        plan = single(3, FaultKind.FILTER_LIMIT, count=20)
        run = run_faulted_network(seed=13, plan=plan, hours=4)
        run.assert_reconciled()
        recovery = run.network.recovery
        assert recovery.deferred_switches == 1
        assert recovery.reconnects == 0
        retry = run.network.retry
        assert retry.retries == 5  # attempts 2..6 of update_filter
        assert retry.total_backoff_s > 0.0
        event = get_event_stream().last("network.switch_deferred")
        assert event is not None
        assert "FilterLimitError" in event.attributes["reason"]
        retry_events = get_event_stream().events("network.retry")
        assert {
            e.attributes["op"] for e in retry_events
        } == {"switch.update_filter"}


class TestFailedReconnect:
    def test_reconnect_failures_then_catch_up(self):
        # Hour-2 disconnect; both the end-of-hour-2 and start-of-hour-3
        # reconnects (clock hour 3) hit the filter-limit budget, so the
        # stream stays in counting mode a full hour before recovering.
        plan = FaultPlan(
            (
                ScheduledFault(
                    hour=2,
                    kind=FaultKind.STREAM_DISCONNECT,
                    at_fraction=0.5,
                ),
                ScheduledFault(
                    hour=3, kind=FaultKind.FILTER_LIMIT, count=2
                ),
            )
        )
        run = run_faulted_network(
            seed=17,
            plan=plan,
            hours=3,
            retry_policy=no_retry_policy(17),
        )
        run.assert_reconciled()
        recovery = run.network.recovery
        assert recovery.failed_reconnects == 2
        assert recovery.reconnects == 1
        # The switch due at hour 3 found the transport down.
        assert recovery.deferred_switches == 1
        failures = get_event_stream().events("stream.reconnect_failed")
        assert len(failures) == 2
        counters = get_registry().snapshot()["counters"]
        assert counters["stream.reconnect_failed"] == 2


class TestBrokenAtShutdown:
    def test_shutdown_drains_a_broken_stream(self):
        # Last monitored hour is 4; its end-of-hour reconnect (clock
        # hour 5) fails, so shutdown() must reconcile the gap without
        # ever reconnecting.
        plan = FaultPlan(
            (
                ScheduledFault(
                    hour=4,
                    kind=FaultKind.STREAM_DISCONNECT,
                    at_fraction=0.3,
                ),
                ScheduledFault(
                    hour=5, kind=FaultKind.FILTER_LIMIT, count=1
                ),
            )
        )
        run = run_faulted_network(
            seed=19,
            plan=plan,
            hours=3,
            retry_policy=no_retry_policy(19),
        )
        run.assert_reconciled()
        recovery = run.network.recovery
        assert recovery.failed_reconnects == 1
        assert recovery.reconnects == 0
        assert not run.network.deployed
        event = get_event_stream().last("stream.reconnect")
        assert event is not None
        assert event.attributes["reconnected"] is False
        assert (
            event.attributes["backfilled"] + event.attributes["lost"]
            == event.attributes["undelivered"]
        )


class TestNodeSuspension:
    def test_deployed_nodes_get_suspended(self):
        plan = single(2, FaultKind.NODE_SUSPENSION, count=2)
        run = run_faulted_network(seed=23, plan=plan, hours=3)
        run.assert_reconciled()
        assert run.injector.injected_counts["node_suspension"] == 2
        events = [
            e
            for e in get_event_stream().events("faults.injected")
            if e.attributes["kind"] == "node_suspension"
        ]
        assert len(events) == 2
        population = run.engine.population
        suspended = population.cols.column("suspended")
        for event in events:
            assert suspended[population.index_of[event.attributes["user_id"]]]


class TestRestFaults:
    def test_rest_faults_consumed_without_derailing_the_run(self):
        plan = FaultPlan(
            (
                ScheduledFault(
                    hour=3, kind=FaultKind.REST_TIMEOUT, count=3
                ),
                ScheduledFault(
                    hour=3, kind=FaultKind.REST_RATE_LIMIT, count=3
                ),
            )
        )
        run = run_faulted_network(seed=29, plan=plan, hours=3)
        run.assert_reconciled()
        assert run.injector.injected_counts["rest_timeout"] == 3
        assert run.injector.injected_counts["rest_rate_limit"] == 3
        counters = get_registry().snapshot()["counters"]
        assert counters["faults.injected"] == 6


class TestDeliveryFaults:
    def test_full_duplicate_rate_never_double_counts(self):
        plan = FaultPlan(
            tuple(
                ScheduledFault(
                    hour=hour,
                    kind=FaultKind.DUPLICATE_DELIVERY,
                    rate=1.0,
                )
                for hour in (2, 3, 4)
            )
        )
        run = run_faulted_network(seed=31, plan=plan, hours=3)
        run.assert_reconciled()
        assert run.network.recovery.lost == 0
        assert run.injector.injected_counts["duplicate_delivery"] > 0
        counters = get_registry().snapshot()["counters"]
        assert counters["capture.duplicate_dropped"] == (
            run.injector.injected_counts["duplicate_delivery"]
        )

    def test_full_out_of_order_rate_loses_nothing(self):
        plan = FaultPlan(
            tuple(
                ScheduledFault(
                    hour=hour, kind=FaultKind.OUT_OF_ORDER, rate=1.0
                )
                for hour in (2, 3, 4)
            )
        )
        baseline = run_faulted_network(
            seed=37, plan=FaultPlan.none(), hours=3
        )
        run = run_faulted_network(seed=37, plan=plan, hours=3)
        run.assert_reconciled()
        assert run.network.recovery.lost == 0
        assert run.injector.injected_counts["out_of_order"] > 0
        # Same capture *set* as the fault-free run; only order moved.
        assert set(run.captured_ids) == set(baseline.captured_ids)
        assert run.captured_ids != baseline.captured_ids
