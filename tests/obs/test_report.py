"""RunReport construction, JSON round-trip, and summary rows."""

import json

import pytest

import repro.obs as obs
from repro.obs import RunReport, SUMMARY_HEADERS
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TIMING_ATTRS, Tracer


@pytest.fixture(autouse=True)
def _isolate():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def make_report() -> RunReport:
    registry = MetricsRegistry(enabled=True)
    tracer = Tracer(registry)
    registry.counter("network.captures").inc(7)
    registry.gauge("engine.spam_rate").set(0.125)
    registry.histogram("engine.hour_seconds").observe(0.5)
    with tracer.trace("experiment.run_plan") as span:
        with tracer.trace("network.deploy"):
            pass
        span.set(captures=7, node_hours=14)
    return RunReport.capture(
        registry=registry, tracer=tracer, scale="test"
    )


class TestCapture:
    def test_capture_snapshots_spans_and_metrics(self):
        report = make_report()
        assert report.meta == {"scale": "test"}
        assert report.metrics["counters"]["network.captures"] == 7
        (plan_span,) = report.find("experiment.run_plan")
        assert plan_span.attributes["captures"] == 7
        assert report.find("network.deploy")

    def test_capture_defaults_to_global_state(self):
        obs.get_registry().counter("c").inc(3)
        with obs.trace("experiment.phase"):
            pass
        report = RunReport.capture()
        assert report.metrics["counters"]["c"] == 3
        assert report.find("experiment.phase")


class TestJsonRoundTrip:
    def test_dict_round_trip_is_exact(self):
        report = make_report()
        data = report.to_dict()
        restored = RunReport.from_dict(json.loads(json.dumps(data)))
        assert restored.to_dict() == data

    def test_json_round_trip_preserves_tree_and_metrics(self):
        report = make_report()
        restored = RunReport.from_json(report.to_json())
        assert restored.metrics == report.metrics
        assert [s.to_dict() for s in restored.spans] == [
            s.to_dict() for s in report.spans
        ]

    def test_save_and_load(self, tmp_path):
        report = make_report()
        path = report.save(tmp_path / "nested" / "report.json")
        assert path.exists()
        restored = RunReport.load(path)
        assert restored.metrics == report.metrics

    def test_from_json_rejects_garbage(self):
        with pytest.raises(json.JSONDecodeError):
            RunReport.from_json("{not json")

    def test_from_json_rejects_non_report_payloads(self):
        with pytest.raises(ValueError):
            RunReport.from_json('{"definitely": "not a report"}')
        with pytest.raises(ValueError):
            RunReport.from_json('[1, 2, 3]')


class TestSummary:
    def test_summary_rows_compute_captures_per_node_hour(self):
        report = make_report()
        rows = report.summary_rows()
        assert len(rows) == 1
        phase, _seconds, captures, node_hours, per_node_hour = rows[0]
        assert phase == "experiment.run_plan"
        assert captures == 7
        assert node_hours == 14
        assert per_node_hour == 0.5

    def test_summary_rows_dash_out_missing_attributes(self):
        registry = MetricsRegistry(enabled=True)
        tracer = Tracer(registry)
        with tracer.trace("experiment.warm_up"):
            pass
        report = RunReport.capture(registry=registry, tracer=tracer)
        assert report.summary_rows() == [
            ("experiment.warm_up", pytest.approx(0, abs=1), "-", "-", "-")
        ]

    def test_render_summary_has_header_and_rows(self):
        report = make_report()
        text = report.render_summary()
        lines = text.splitlines()
        assert all(h in lines[0] for h in SUMMARY_HEADERS)
        assert "experiment.run_plan" in lines[2]


class TestNormalized:
    def test_normalized_json_is_stable_across_reruns(self):
        def one_run() -> str:
            registry = MetricsRegistry(enabled=True)
            tracer = Tracer(registry)
            registry.counter("network.captures").inc(7)
            registry.histogram("engine.hour_seconds").observe(0.25)
            with tracer.trace("experiment.run_plan") as span:
                sum(i * i for i in range(2_000))
                span.set(captures=7, cpu_s=0.123)
            report = RunReport.capture(
                registry=registry,
                tracer=tracer,
                scale="test",
                runid="varies-per-run",
            )
            return report.normalized().to_json()

        assert one_run() == one_run()

    def test_normalized_strips_timings_keeps_counts(self):
        report = make_report()
        report.meta["created_at"] = "2026-08-06T12:00:00Z"
        normalized = report.normalized()
        (span,) = normalized.find("experiment.run_plan")
        assert span.started_at == 0.0
        assert span.duration_s == 0.0
        # The CPU and peak-RSS stamps go; the counts stay.
        assert span.attributes == {"captures": 7, "node_hours": 14}
        assert span.children[0].duration_s == 0.0
        assert span.children[0].attributes == {}
        assert "engine.hour_seconds" not in normalized.metrics[
            "histograms"
        ]
        assert normalized.metrics["counters"]["network.captures"] == 7
        assert normalized.meta == {"scale": "test"}
        # The original is untouched (deep copy).
        assert report.meta["created_at"]
        (raw,) = report.find("experiment.run_plan")
        assert TIMING_ATTRS <= set(raw.attributes)
        assert "engine.hour_seconds" in report.metrics["histograms"]
