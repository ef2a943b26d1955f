"""Alert events folded into durable incident records.

The :class:`~repro.obs.health.HealthEngine` judges the live stream and
emits ``alert.fired`` / ``alert.resolved`` events; this module is the
*memory* of those judgements.  An :class:`Incident` is one alert
lifetime — which rule, at what severity, fired at which simulated hour,
resolved at which (or still open) — and an :class:`IncidentLog` folds
the event stream into an ordered list of them.

The log is the bridge from live alerting to the run ledger: its
:meth:`IncidentLog.to_payload` is exactly what
:class:`~repro.obs.ledger.RunRecord` persists under ``incidents``
(schema ``repro-ledger/2``), and ``alerts_fired`` is the
``totals.alerts_fired`` trend series.

Determinism contract: incidents carry **simulated hours only** (the
``hour`` attribute stamped on every alert event), never event ``t``
perf-counter offsets or wall-clock readings — so two identical seeded
runs fold into byte-identical payloads at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .events import Event

#: Alert severities, mildest first (the order dashboards sort by).
SEVERITIES = ("info", "warn", "critical")

#: Event names the log folds; everything else is ignored.
ALERT_FIRED = "alert.fired"
ALERT_RESOLVED = "alert.resolved"

#: ``alert.fired`` attributes that are lifecycle fields, not payload.
_LIFECYCLE_KEYS = frozenset({"rule", "severity", "hour", "window"})


@dataclass
class Incident:
    """One alert lifetime: fired at an hour, resolved at one (or open)."""

    #: The :class:`~repro.obs.health.HealthRule` name that fired.
    rule: str
    #: ``info`` / ``warn`` / ``critical``.
    severity: str
    #: Simulated hour the rule first evaluated unhealthy.
    fired_hour: int
    #: Simulated hour the rule evaluated healthy again; None while open.
    resolved_hour: int | None = None
    #: Rule-supplied context from the firing predicate (counts, rates).
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """Whether the alert was still active when the run ended."""
        return self.resolved_hour is None

    def to_dict(self) -> dict[str, object]:
        """Plain-data form (the ledger's ``incidents`` entry shape)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "fired_hour": self.fired_hour,
            "resolved_hour": self.resolved_hour,
            "attributes": dict(sorted(self.attributes.items())),
        }


class IncidentLog:
    """Folds ``alert.*`` events into an ordered incident list.

    Usable three ways: fed directly by a
    :class:`~repro.obs.health.HealthEngine`, subscribed to an
    :class:`~repro.obs.events.EventStream` (it is a callable event
    subscriber), or replayed over persisted events
    (:meth:`from_events` — the dashboard path).
    """

    def __init__(self) -> None:
        self.incidents: list[Incident] = []
        #: rule name -> newest still-open incident of that rule.
        self._open: dict[str, Incident] = {}

    # -- folding ----------------------------------------------------------

    def __call__(self, event: Event) -> None:
        """Event-subscriber form of :meth:`record`."""
        self.record(event)

    def record(self, event: Event) -> None:
        """Fold one event; non-``alert.*`` events are ignored."""
        attrs = event.attributes
        if event.name == ALERT_FIRED:
            incident = Incident(
                rule=str(attrs.get("rule", "")),
                severity=str(attrs.get("severity", "info")),
                fired_hour=int(attrs.get("hour", 0)),
                attributes={
                    key: value
                    for key, value in attrs.items()
                    if key not in _LIFECYCLE_KEYS
                },
            )
            self.incidents.append(incident)
            self._open[incident.rule] = incident
        elif event.name == ALERT_RESOLVED:
            rule = str(attrs.get("rule", ""))
            incident = self._open.pop(rule, None)
            if incident is not None:
                incident.resolved_hour = int(attrs.get("hour", 0))

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "IncidentLog":
        """Replay a persisted event sequence into a fresh log."""
        log = cls()
        for event in events:
            log.record(event)
        return log

    # -- queries ----------------------------------------------------------

    @property
    def alerts_fired(self) -> int:
        """Total fired alerts (the ``totals.alerts_fired`` series)."""
        return len(self.incidents)

    def __len__(self) -> int:
        return len(self.incidents)

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> list[dict[str, object]]:
        """The ledger-ready ``incidents`` list (firing order)."""
        return [incident.to_dict() for incident in self.incidents]


__all__ = [
    "ALERT_FIRED",
    "ALERT_RESOLVED",
    "SEVERITIES",
    "Incident",
    "IncidentLog",
]
