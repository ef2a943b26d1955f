"""FaultPlan: schedule semantics, seeding, and serialization."""

from __future__ import annotations

import math

import pytest

from repro.faults import (
    BASE_PROBABILITIES,
    FaultKind,
    FaultPlan,
    ScheduledFault,
)
from repro.faults.plan import COUNTED_KINDS, RATED_KINDS


class TestScheduledFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledFault(hour=-1, kind=FaultKind.STREAM_DISCONNECT)
        with pytest.raises(ValueError):
            ScheduledFault(
                hour=0, kind=FaultKind.STREAM_DISCONNECT, at_fraction=1.5
            )
        with pytest.raises(ValueError):
            ScheduledFault(hour=0, kind=FaultKind.FILTER_LIMIT, count=0)
        with pytest.raises(ValueError):
            ScheduledFault(
                hour=0, kind=FaultKind.DUPLICATE_DELIVERY, rate=-0.1
            )

    def test_round_trip(self):
        fault = ScheduledFault(
            hour=7,
            kind=FaultKind.REST_TIMEOUT,
            at_fraction=0.25,
            count=3,
        )
        assert ScheduledFault.from_dict(fault.to_dict()) == fault

    @pytest.mark.parametrize("field", ["hour", "count"])
    @pytest.mark.parametrize("value", [3.7, True])
    def test_truncated_numbers_are_refused(self, field, value):
        entry = {"hour": 3, "kind": "filter_limit", "count": 2}
        entry[field] = value
        with pytest.raises(ValueError, match=field):
            ScheduledFault.from_dict(entry)

    def test_whole_floats_load(self):
        entry = {"hour": 3.0, "kind": "filter_limit", "count": 2.0}
        fault = ScheduledFault.from_dict(entry)
        assert (fault.hour, fault.count) == (3, 2)

    def test_unknown_keys_are_refused(self):
        # A misspelt "rate" would otherwise run the fault at rate 0.0.
        entry = {"hour": 3, "kind": "duplicate_delivery", "rat": 0.5}
        with pytest.raises(ValueError, match="rat"):
            ScheduledFault.from_dict(entry)


class TestFaultPlan:
    def test_none_is_empty(self):
        assert FaultPlan.none().is_empty
        assert FaultPlan.none().for_hour(0) == ()

    def test_for_hour_filters_by_hour_and_kind(self):
        a = ScheduledFault(hour=1, kind=FaultKind.STREAM_DISCONNECT)
        b = ScheduledFault(hour=1, kind=FaultKind.FILTER_LIMIT, count=2)
        c = ScheduledFault(hour=2, kind=FaultKind.FILTER_LIMIT)
        plan = FaultPlan((a, b, c))
        assert plan.for_hour(1) == (a, b)
        assert plan.for_hour(1, FaultKind.FILTER_LIMIT) == (b,)
        assert plan.for_hour(3) == ()

    def test_budget_sums_counts(self):
        plan = FaultPlan(
            (
                ScheduledFault(
                    hour=4, kind=FaultKind.REST_RATE_LIMIT, count=2
                ),
                ScheduledFault(
                    hour=4, kind=FaultKind.REST_RATE_LIMIT, count=3
                ),
            )
        )
        assert plan.budget(4, FaultKind.REST_RATE_LIMIT) == 5
        assert plan.budget(5, FaultKind.REST_RATE_LIMIT) == 0

    def test_rate_takes_max(self):
        plan = FaultPlan(
            (
                ScheduledFault(
                    hour=2, kind=FaultKind.OUT_OF_ORDER, rate=0.1
                ),
                ScheduledFault(
                    hour=2, kind=FaultKind.OUT_OF_ORDER, rate=0.3
                ),
            )
        )
        assert plan.rate(2, FaultKind.OUT_OF_ORDER) == 0.3
        assert plan.rate(9, FaultKind.OUT_OF_ORDER) == 0.0

    def test_json_round_trip(self):
        plan = FaultPlan.random_plan(3, n_hours=8)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert plan.to_dict()["schema"] == "repro-fault-plan/1"


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random_plan(11) == FaultPlan.random_plan(11)

    def test_different_seed_different_plan(self):
        assert FaultPlan.random_plan(11) != FaultPlan.random_plan(12)

    def test_zero_intensity_is_empty(self):
        assert FaultPlan.random_plan(5, intensity=0.0).is_empty

    def test_hours_stay_in_window(self):
        plan = FaultPlan.random_plan(
            9, start_hour=3, n_hours=4, intensity=3.0
        )
        assert plan.faults
        assert all(3 <= f.hour < 7 for f in plan.faults)

    def test_kinds_restriction_respected(self):
        kinds = (FaultKind.STREAM_DISCONNECT,)
        plan = FaultPlan.random_plan(
            21, n_hours=24, intensity=3.0, kinds=kinds
        )
        assert plan.faults
        assert {f.kind for f in plan.faults} == set(kinds)

    def test_field_conventions_per_kind(self):
        plan = FaultPlan.random_plan(7, n_hours=48, intensity=2.0)
        for fault in plan.faults:
            if fault.kind in COUNTED_KINDS:
                assert 1 <= fault.count <= 3
            else:
                assert fault.count == 1
            if fault.kind in RATED_KINDS:
                assert 0.05 <= fault.rate <= 0.3
            else:
                assert fault.rate == 0.0

    def test_every_kind_has_a_base_probability(self):
        assert set(BASE_PROBABILITIES) == set(FaultKind)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.random_plan(1, n_hours=-1)
        with pytest.raises(ValueError):
            FaultPlan.random_plan(1, intensity=-0.5)

    def test_nan_intensity_is_refused(self):
        # Every draw compares false against NaN, so every kind would
        # fire in every hour: 35 faults here, against 11 at 1.5.
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan.random_plan(
                7000, start_hour=2, n_hours=5, intensity=math.nan
            )

    def test_infinite_intensity_is_capped(self):
        plan = FaultPlan.random_plan(
            7000, start_hour=2, n_hours=5, intensity=math.inf
        )
        assert len(plan.faults) == 32
