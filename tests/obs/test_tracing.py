"""Nested span timing and the global trace() helper."""

import time

import pytest

import repro.obs as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, TIMING_ATTRS, Span, Tracer


@pytest.fixture
def tracer():
    return Tracer(MetricsRegistry(enabled=True))


class TestTracer:
    def test_nested_spans_form_a_tree(self, tracer):
        with tracer.trace("outer"):
            with tracer.trace("inner.a"):
                pass
            with tracer.trace("inner.b"):
                with tracer.trace("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.child("inner.b").children[0].name == "leaf"

    def test_span_duration_covers_children(self, tracer):
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                time.sleep(0.01)
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.duration_s >= 0.01
        assert outer.duration_s >= inner.duration_s

    def test_current_span_tracks_the_stack(self, tracer):
        assert tracer.current is None
        with tracer.trace("a"):
            assert tracer.current.name == "a"
            with tracer.trace("b"):
                assert tracer.current.name == "b"
            assert tracer.current.name == "a"
        assert tracer.current is None

    def test_attributes_via_set_and_kwargs(self, tracer):
        with tracer.trace("phase", hours=3) as span:
            span.set(captures=42)
        attributes = tracer.roots[0].attributes
        assert set(attributes) == {"hours", "captures", *TIMING_ATTRS}
        assert (attributes["hours"], attributes["captures"]) == (3, 42)

    def test_every_span_records_cpu_and_peak_rss(self, tracer):
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                sum(i * i for i in range(20_000))
        outer = tracer.roots[0]
        inner = outer.children[0]
        for span in (outer, inner):
            assert TIMING_ATTRS <= set(span.attributes)
            # Any Python process has tens of MB resident; a zero here
            # means the KiB normalization broke.
            assert span.attributes["max_rss_kb"] > 1024
        assert inner.attributes["cpu_s"] > 0.0
        assert outer.attributes["cpu_s"] >= inner.attributes["cpu_s"]

    def test_exception_recorded_and_span_closed(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.trace("boom"):
                raise RuntimeError("x")
        span = tracer.roots[0]
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.current is None

    def test_find_matches_depth_first(self, tracer):
        with tracer.trace("a"):
            with tracer.trace("b"):
                pass
        with tracer.trace("b"):
            pass
        assert len(tracer.find("b")) == 2

    def test_disabled_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        tracer = Tracer(registry)
        with tracer.trace("phase") as span:
            assert span is NULL_SPAN
            span.set(ignored=1)  # must be a harmless no-op
        assert tracer.roots == []
        assert NULL_SPAN.attributes == {}

    def test_reset_clears_roots(self, tracer):
        with tracer.trace("a"):
            pass
        tracer.reset()
        assert tracer.roots == []


class TestSpanSerialization:
    def test_round_trip(self):
        span = Span(name="a", started_at=1.0, duration_s=2.5)
        span.children.append(Span(name="b", attributes={"k": 3}))
        restored = Span.from_dict(span.to_dict())
        assert restored == span


class TestGlobalHelpers:
    @pytest.fixture(autouse=True)
    def _isolate(self):
        obs.reset()
        obs.set_enabled(True)
        yield
        obs.reset()
        obs.set_enabled(True)

    def test_global_trace_records_to_global_tracer(self):
        with obs.trace("g.phase"):
            pass
        assert obs.get_tracer().find("g.phase")

    def test_set_enabled_toggles_both_metrics_and_spans(self):
        obs.set_enabled(False)
        obs.get_registry().counter("c").inc()
        with obs.trace("off"):
            pass
        assert obs.get_registry().counter("c").value == 0
        assert obs.get_tracer().find("off") == []
        assert not obs.is_enabled()

    def test_disabled_context_manager_restores_state(self):
        with obs.disabled():
            assert not obs.is_enabled()
            with obs.trace("hidden"):
                pass
        assert obs.is_enabled()
        assert obs.get_tracer().find("hidden") == []
