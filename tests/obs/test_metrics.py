"""Counter/gauge/histogram semantics and registry lifecycle."""

import pytest

from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_rejects_negative_increment(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)


class TestGauge:
    def test_last_value_wins(self, registry):
        gauge = registry.gauge("rate")
        assert gauge.value is None
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75


class TestHistogram:
    def test_summary_statistics(self, registry):
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050)
        assert hist.mean == pytest.approx(50.5)
        assert hist.p50 == 50
        assert hist.p95 == 95
        assert hist.max == 100

    def test_empty_histogram_is_all_zero(self, registry):
        hist = registry.histogram("h")
        assert hist.count == 0
        assert hist.p50 == 0.0
        assert hist.p95 == 0.0
        assert hist.max == 0.0

    def test_percentile_out_of_range(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h").percentile(101)

    def test_empty_percentiles_defined_across_the_range(self, registry):
        hist = registry.histogram("h")
        for q in (0, 50, 95, 100):
            assert hist.percentile(q) == 0.0
        assert hist.summary()["p50"] == 0.0

    def test_single_sample_answers_every_percentile(self, registry):
        hist = registry.histogram("h")
        hist.observe(3.5)
        for q in (0, 50, 95, 100):
            assert hist.percentile(q) == 3.5
        assert hist.p50 == 3.5
        assert hist.p95 == 3.5

    def test_percentile_extremes_are_min_and_max(self, registry):
        hist = registry.histogram("h")
        for value in (5, 1, 9):
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 9

    def test_percentile_interleaved_with_observations(self, registry):
        hist = registry.histogram("h")
        hist.observe(3)
        hist.observe(1)
        assert hist.p50 == 1
        hist.observe(2)
        assert hist.p50 == 2


class TestRegistryLifecycle:
    def test_reset_zeroes_but_keeps_instrument_identity(self, registry):
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        counter.inc(3)
        gauge.set(1.0)
        hist.observe(2.0)
        registry.reset()
        assert counter.value == 0
        assert gauge.value is None
        assert hist.count == 0
        # Cached references stay wired to the registry after reset.
        counter.inc()
        assert registry.counter("c").value == 1
        assert registry.counter("c") is counter

    def test_snapshot_after_reset_reads_as_a_fresh_registry(self, registry):
        registry.counter("stale").inc(2)
        registry.counter("kept").inc()
        registry.reset()
        registry.counter("kept")
        registry.counter("fresh")
        assert registry.snapshot()["counters"] == {"fresh": 0, "kept": 0}
        registry.counter_value("stale")  # a probe does not list it
        assert "stale" not in registry.snapshot()["counters"]
        registry.counter("stale")
        assert registry.snapshot()["counters"]["stale"] == 0

    def test_disabled_writes_accumulate_no_state(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(1.0)
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value is None
        assert registry.histogram("h").count == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 0}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_reenabling_resumes_recording(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.value == 1

    def test_snapshot_shape(self, registry):
        registry.counter("a.b").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a.b": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["max"] == 4.0
