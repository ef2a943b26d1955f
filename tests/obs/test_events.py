"""Event stream semantics: ring buffer, subscribers, disabled no-op."""

import pytest

from repro import obs
from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


@pytest.fixture
def stream(registry):
    return EventStream(registry, capacity=8)


class TestRingBuffer:
    def test_capacity_evicts_oldest(self, registry):
        stream = EventStream(registry, capacity=3)
        for hour in range(5):
            stream.emit("engine.hour_completed", hour=hour)
        assert len(stream) == 3
        assert stream.total_emitted == 5
        assert [e.seq for e in stream] == [2, 3, 4]
        assert [e.attributes["hour"] for e in stream] == [2, 3, 4]

    def test_rejects_nonpositive_capacity(self, registry):
        with pytest.raises(ValueError):
            EventStream(registry, capacity=0)

    def test_seq_is_monotonic_and_t_nondecreasing(self, stream):
        events = [stream.emit("ml.cv_fold", fold=i) for i in range(4)]
        assert [e.seq for e in events] == [0, 1, 2, 3]
        assert all(
            a.t <= b.t for a, b in zip(events, events[1:])
        )

    def test_query_by_name_and_last(self, stream):
        stream.emit("network.deploy", hour=0)
        stream.emit("network.switch", hour=1)
        stream.emit("network.switch", hour=2)
        assert len(stream.events("network.switch")) == 2
        assert stream.events("label.stage") == []
        assert stream.last("network.switch").attributes["hour"] == 2
        assert stream.last().name == "network.switch"
        assert stream.last("label.stage") is None


class TestDisabled:
    def test_emit_is_a_noop_while_disabled(self):
        registry = MetricsRegistry(enabled=False)
        stream = EventStream(registry)
        seen = []
        stream.subscribe(seen.append)
        assert stream.emit("engine.hour_completed", hour=0) is None
        assert len(stream) == 0
        assert stream.total_emitted == 0
        assert seen == []

    def test_reenabling_resumes_emission(self):
        registry = MetricsRegistry(enabled=False)
        stream = EventStream(registry)
        stream.emit("engine.hour_completed", hour=0)
        registry.enabled = True
        event = stream.emit("engine.hour_completed", hour=1)
        assert event.seq == 0
        assert len(stream) == 1


class TestSubscribers:
    def test_synchronous_delivery_and_unsubscribe(self, stream):
        seen = []
        stream.subscribe(seen.append)
        stream.emit("label.stage", stage="manual")
        assert [e.name for e in seen] == ["label.stage"]
        stream.unsubscribe(seen.append)
        stream.unsubscribe(seen.append)  # idempotent
        stream.emit("label.stage", stage="suspended")
        assert len(seen) == 1

    def test_reset_keeps_subscribers_restarts_seq(self, stream):
        seen = []
        stream.subscribe(seen.append)
        stream.emit("ml.cv_fold", fold=0)
        stream.reset()
        assert len(stream) == 0
        event = stream.emit("ml.cv_fold", fold=1)
        assert event.seq == 0
        assert len(seen) == 2


class TestGlobalStream:
    def test_module_level_emit_reaches_the_global_stream(self):
        obs.reset()
        obs.set_enabled(True)
        try:
            obs.emit("experiment.checkpoint", step=1)
            assert (
                obs.get_event_stream()
                .last("experiment.checkpoint")
                .attributes["step"]
                == 1
            )
        finally:
            obs.reset()

    def test_obs_reset_clears_events(self):
        obs.set_enabled(True)
        obs.emit("experiment.checkpoint", step=1)
        obs.reset()
        assert len(obs.get_event_stream()) == 0
