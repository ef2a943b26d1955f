"""Incident records: folding alert events, serialization."""

from repro.obs.alerts import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    Incident,
    IncidentLog,
)
from repro.obs.events import Event


def fired(seq, rule="stream.reconnect_storm", severity="critical",
          hour=3, **payload):
    return Event(
        seq=seq,
        name=ALERT_FIRED,
        t=float(seq),
        attributes={
            "rule": rule,
            "severity": severity,
            "hour": hour,
            "window": 3,
            **payload,
        },
    )


def resolved(seq, rule="stream.reconnect_storm", hour=5):
    return Event(
        seq=seq,
        name=ALERT_RESOLVED,
        t=float(seq),
        attributes={"rule": rule, "severity": "critical", "hour": hour},
    )


class TestIncident:
    def test_open_until_resolved(self):
        incident = Incident("a.b", "warn", fired_hour=1)
        assert incident.open
        assert incident.to_dict()["resolved_hour"] is None
        incident.resolved_hour = 2
        assert not incident.open

    def test_payload_attributes_serialize_sorted(self):
        incident = Incident(
            "a.b", "warn", 1, attributes={"z": 1, "a": 2}
        )
        assert list(incident.to_dict()["attributes"]) == ["a", "z"]


class TestIncidentLog:
    def test_fire_then_resolve_pairs_one_incident(self):
        log = IncidentLog.from_events([fired(0, reconnects=4), resolved(1)])
        (incident,) = log.incidents
        assert incident.rule == "stream.reconnect_storm"
        assert incident.fired_hour == 3
        assert incident.resolved_hour == 5
        assert incident.attributes == {"reconnects": 4}
        assert not incident.open

    def test_lifecycle_keys_excluded_from_payload(self):
        log = IncidentLog.from_events([fired(0, reconnects=4)])
        assert "window" not in log.incidents[0].attributes
        assert "severity" not in log.incidents[0].attributes

    def test_refire_after_resolve_is_a_new_incident(self):
        log = IncidentLog.from_events(
            [fired(0, hour=3), resolved(1, hour=5), fired(2, hour=8)]
        )
        assert len(log) == 2
        assert log.alerts_fired == 2
        first, second = log.incidents
        assert {first.rule, second.rule} == {"stream.reconnect_storm"}
        assert not first.open and second.open
        assert (first.fired_hour, second.fired_hour) == (3, 8)

    def test_resolve_without_open_incident_is_ignored(self):
        log = IncidentLog.from_events([resolved(0)])
        assert len(log) == 0

    def test_non_alert_events_ignored(self):
        noise = Event(
            seq=0, name="network.capture", t=0.0, attributes={"hour": 1}
        )
        log = IncidentLog()
        log(noise)  # callable: usable as a stream subscriber directly
        assert len(log) == 0
