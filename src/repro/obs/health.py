"""Declarative SLO rules judged over the live telemetry stream.

PRs 1/3/6 built telemetry that *records* everything — metrics, spans,
events, a ledger, a dashboard — but *judges* nothing.  This module is
the judging layer: a :class:`HealthRule` declares what "unhealthy"
means (a named predicate over a read-only :class:`HealthContext`), and
a :class:`HealthEngine` subscribes to the process-global
:class:`~repro.obs.events.EventStream`, folds every monitored hour
into a compact :class:`HourHealth` record, and evaluates the rules on
each ``engine.hour_completed``.

Alerts are **level-triggered with edge-emitted events**: the first
unhealthy evaluation emits one ``alert.fired`` event, later unhealthy
hours keep the alert open silently, and the first healthy evaluation
emits ``alert.resolved``.  :class:`~repro.obs.alerts.IncidentLog`
folds those events into the durable incident records the run ledger
persists (``repro-ledger/2``).

Determinism contract:

* rules are evaluated on **simulated hours only** — the trigger is the
  ``engine.hour_completed`` event and every window is measured in
  sim-hours; wall-clock and event ``t`` offsets are never consulted
  (the one wall-adjacent input, ``rss_kb``, is used only under a
  generous multiplicative ceiling);
* evaluation never mutates what it measures: counter reads go through
  the registry's non-creating lookups
  (:meth:`~repro.obs.metrics.MetricsRegistry.counter_value`), and the
  ``health.alerts_fired`` / ``health.alerts_resolved`` counters are
  created lazily on the first firing — a clean run's metrics snapshot
  (and therefore ``results/obs_smoke.json``) is byte-identical with or
  without the engine attached;
* rules run in declaration order, so identical seeded runs emit
  identical alert sequences at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .alerts import ALERT_FIRED, ALERT_RESOLVED, SEVERITIES, IncidentLog
from .events import Event
from .taxonomy import TAXONOMY_RE

#: ``FaultKind`` values from ``repro.faults.plan``, mirrored as plain
#: strings: ``repro.faults`` imports this package for its own
#: instrumentation, so the dependency cannot point back the other way.
#: ``tests/obs/test_health.py`` asserts the mirror never drifts.
DEFAULT_FAULT_KINDS = (
    "stream_disconnect",
    "filter_limit",
    "rest_rate_limit",
    "rest_timeout",
    "duplicate_delivery",
    "out_of_order",
    "node_suspension",
)

#: Counter prefix the injector bumps per fault kind.
_INJECTED_PREFIX = "faults.injected."


@dataclass(frozen=True)
class HealthRule:
    """One declarative SLO: a named, windowed predicate.

    The predicate receives a read-only :class:`HealthContext` and
    answers truthy while the run is **unhealthy** under this rule.
    Returning a mapping attaches it to the ``alert.fired`` event (and
    the incident record) as diagnostic payload; any other truthy value
    fires with no payload.

    Args:
        name: dotted taxonomy name (``TAXONOMY_RE``), e.g.
            ``stream.reconnect_storm`` — this is the incident key.
        severity: ``info`` / ``warn`` / ``critical``.
        predicate: ``HealthContext -> truthy-while-unhealthy``.
        window_hours: how many completed sim-hours the rule looks back
            over (exposed to the predicate as its default window).
        description: one-line catalog entry (DESIGN.md §13).

    Raises:
        ValueError: on a name outside the taxonomy, an unknown
            severity, or a non-positive window.
    """

    name: str
    severity: str
    predicate: Callable[["HealthContext"], object]
    window_hours: int = 3
    description: str = ""

    def __post_init__(self) -> None:
        if not TAXONOMY_RE.match(self.name):
            raise ValueError(
                f"health rule name {self.name!r} does not match the "
                "`<namespace>.<dotted_snake>` taxonomy"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"health rule {self.name!r} severity "
                f"{self.severity!r} not in {SEVERITIES}"
            )
        if self.window_hours < 1:
            raise ValueError(
                f"health rule {self.name!r} window_hours must be >= 1"
            )


@dataclass(frozen=True)
class HourHealth:
    """One completed sim-hour distilled for rule evaluation.

    The engine keeps its own per-hour history because the event ring
    buffer is bounded — a long run evicts early hours, but trailing
    windows must stay comparable for the whole run.
    """

    #: Simulated hour (from ``engine.hour_completed``).
    hour: int
    #: Tweets the platform emitted this hour.
    tweets: int
    #: Peak RSS in KiB when the hour completed (nondeterministic —
    #: only the rss-ceiling rule may consult it, under a wide margin).
    rss_kb: float
    #: ``network.capture`` events observed this hour.
    captures: int
    #: ``capture.lost`` counter growth this hour (gap tweets the
    #: reconnect backfill could not recover).
    lost: int | float
    #: Whether a ``network.deploy``/``network.shutdown`` landed this
    #: hour — trailing windows must not compare across it.
    boundary: bool
    #: Event-name -> occurrence count for everything seen this hour.
    event_counts: Mapping[str, int] = field(default_factory=dict)
    #: Fault-kind -> injected count this hour (counter deltas, so the
    #: metric-only "quiet" kinds are seen too).
    fault_kinds: Mapping[str, int | float] = field(default_factory=dict)


class HealthContext:
    """Read-only window a rule predicate judges the run through.

    Exposes the engine's per-hour history, the live-snapshot series,
    non-creating registry counter reads, and the recent event ring
    buffer.  Nothing here mutates observability state.
    """

    __slots__ = ("hour", "window", "_engine")

    def __init__(
        self, engine: "HealthEngine", hour: int, window: int
    ) -> None:
        #: The sim-hour just completed (evaluation trigger).
        self.hour = hour
        #: The owning rule's ``window_hours``.
        self.window = window
        self._engine = engine

    # -- per-hour history --------------------------------------------------

    @property
    def history(self) -> Sequence[HourHealth]:
        """Every completed hour, oldest first (treat as read-only)."""
        return self._engine.history

    def hours(self, window: int | None = None) -> Sequence[HourHealth]:
        """The newest ``window`` records (default: the rule's window)."""
        span = self.window if window is None else window
        history = self._engine.history
        return history[-span:] if span else history[:0]

    def count(self, name: str, window: int | None = None) -> int:
        """Occurrences of event ``name`` within the window."""
        return sum(
            record.event_counts.get(name, 0)
            for record in self.hours(window)
        )

    def fault_count(
        self, kind: str | None = None, window: int | None = None
    ) -> int | float:
        """Injected faults within the window (one kind, or all)."""
        total: int | float = 0
        for record in self.hours(window):
            if kind is None:
                total += sum(record.fault_kinds.values())
            else:
                total += record.fault_kinds.get(kind, 0)
        return total

    def lost(self, window: int | None = None) -> int | float:
        """Unrecovered gap-tweet losses within the window."""
        return sum(record.lost for record in self.hours(window))

    # -- garner snapshots --------------------------------------------------

    def snapshots(
        self, window: int | None = None
    ) -> Sequence[Mapping[str, object]]:
        """Newest live-snapshot digests of the *current deployment*.

        Snapshot digests carry a ``generation`` stamped from
        ``network.deploy`` events; restricting to the current
        generation keeps efficiency comparisons from spanning a
        network teardown/redeploy, where garner telemetry restarts
        from scratch.
        """
        span = self.window if window is None else window
        current = [
            digest
            for digest in self._engine.snapshots
            if digest["generation"] == self._engine.generation
        ]
        return current[-span:] if span else current[:0]

    # -- registry / stream -------------------------------------------------

    def counter(self, name: str) -> int | float:
        """Cumulative counter value (0 if never registered)."""
        from . import get_registry

        return get_registry().counter_value(name)

    def events(self, name: str | None = None) -> list[Event]:
        """Recent events from the global ring buffer (may be evicted
        for old hours — prefer :meth:`count` for windowed logic)."""
        from . import get_event_stream

        return get_event_stream().events(name)


class _PendingHour:
    """Mutable accumulator for the hour currently in flight."""

    __slots__ = ("captures", "boundary", "event_counts")

    def __init__(self) -> None:
        self.captures = 0
        self.boundary = False
        self.event_counts: dict[str, int] = {}


class HealthEngine:
    """Evaluates :class:`HealthRule`\\ s on each completed sim-hour.

    Subscribe it to the global stream around a run (context manager or
    ``attach()``/``detach()``)::

        with HealthEngine() as health:
            exp.run_full_network(hours=24)
        health.incidents.to_payload()   # -> ledger `incidents`

    Alert lifecycle per rule: first unhealthy hour emits
    ``alert.fired`` (attributes ``rule``/``severity``/``hour``/
    ``window`` + the predicate's payload mapping), the first healthy
    hour after that emits ``alert.resolved``; in between the alert is
    silently open.  Both events fold into :attr:`incidents`.

    ``alert.*`` events replayed from worker chunks (they carry a
    ``worker_chunk`` attribute, see ``repro.parallel.obsmerge``) are
    folded into :attr:`incidents` too, so incident counts reconcile at
    any worker count; the engine's own emissions are folded directly
    at the emit site and skipped on the subscriber path.
    """

    def __init__(
        self, rules: Iterable[HealthRule] | None = None
    ) -> None:
        self.rules: tuple[HealthRule, ...] = tuple(
            default_rules() if rules is None else rules
        )
        names = [rule.name for rule in self.rules]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(
                "duplicate health rule names: "
                + ", ".join(sorted(duplicates))
            )
        #: Durable record of every alert lifetime (ledger payload).
        self.incidents = IncidentLog()
        #: Completed-hour records, oldest first.
        self.history: list[HourHealth] = []
        #: Live ``pge.snapshot`` digests, arrival order.
        self.snapshots: list[dict[str, object]] = []
        #: Deployment generation (bumped by ``network.deploy``).
        self.generation = 0
        #: Rule evaluations performed (plain attribute, not a metric —
        #: it must not disturb byte-stable snapshots).
        self.evaluations = 0
        self._attached = False
        self._pending = _PendingHour()
        #: rule name -> sim-hour it fired at, while unhealthy.
        self._active: dict[str, int] = {}
        self._prev_injected: dict[str, int | float] = {}
        self._prev_lost: int | float = 0

    # -- wiring -----------------------------------------------------------

    def attach(self) -> "HealthEngine":
        """Subscribe to the global stream (idempotent)."""
        from . import get_event_stream

        if not self._attached:
            get_event_stream().subscribe(self.on_event)
            self._attached = True
        return self

    def detach(self) -> None:
        """Unsubscribe from the global stream (idempotent)."""
        from . import get_event_stream

        if self._attached:
            get_event_stream().unsubscribe(self.on_event)
            self._attached = False

    def __enter__(self) -> "HealthEngine":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    # -- queries ----------------------------------------------------------

    @property
    def alerts_fired(self) -> int:
        """Total ``alert.fired`` count folded so far."""
        return self.incidents.alerts_fired

    @property
    def active_alerts(self) -> dict[str, int]:
        """``{rule name: fired hour}`` for currently-open alerts."""
        return dict(self._active)

    # -- event intake ------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Stream subscriber: accumulate, then judge on hour ticks."""
        name = event.name
        if name == "engine.hour_completed":
            self._complete_hour(event)
        elif name in (ALERT_FIRED, ALERT_RESOLVED):
            # Own emissions were already folded at the emit site;
            # worker replays are new information.
            if "worker_chunk" in event.attributes:
                self.incidents.record(event)
        else:
            self._observe(event)

    def _observe(self, event: Event) -> None:
        pending = self._pending
        counts = pending.event_counts
        name = event.name
        counts[name] = counts.get(name, 0) + 1
        if name == "network.capture":
            pending.captures += 1
        elif name == "network.deploy":
            pending.boundary = True
            self.generation += 1
        elif name == "network.shutdown":
            pending.boundary = True
        elif name == "pge.snapshot":
            attrs = event.attributes
            if attrs.get("kind") == "live":
                bands = attrs.get("bands") or []
                top = bands[0] if bands else {}
                self.snapshots.append(
                    {
                        "generation": self.generation,
                        "hour": attrs.get("hour"),
                        "band": top.get("band"),
                        "rate": float(top.get("rate", 0.0)),
                        "captures": attrs.get("captures", 0),
                    }
                )

    def _complete_hour(self, event: Event) -> None:
        from . import get_registry

        attrs = event.attributes
        registry = get_registry()
        injected = registry.counter_values(_INJECTED_PREFIX)
        fault_kinds: dict[str, int | float] = {}
        for counter_name, total in injected.items():
            delta = total - self._prev_injected.get(counter_name, 0)
            if delta:
                kind = counter_name[len(_INJECTED_PREFIX):]
                fault_kinds[kind] = delta
        self._prev_injected = injected
        lost_total = registry.counter_value("capture.lost")
        lost_delta = lost_total - self._prev_lost
        self._prev_lost = lost_total

        pending = self._pending
        hour = int(attrs.get("hour", len(self.history)))
        self.history.append(
            HourHealth(
                hour=hour,
                tweets=int(attrs.get("tweets", 0)),
                rss_kb=float(attrs.get("rss_kb", 0.0)),
                captures=pending.captures,
                lost=lost_delta,
                boundary=pending.boundary,
                event_counts=dict(pending.event_counts),
                fault_kinds=fault_kinds,
            )
        )
        self._pending = _PendingHour()
        self._evaluate(hour)

    # -- judging -----------------------------------------------------------

    def _evaluate(self, hour: int) -> None:
        for rule in self.rules:
            self.evaluations += 1
            context = HealthContext(self, hour, rule.window_hours)
            verdict = rule.predicate(context)
            if verdict:
                if rule.name not in self._active:
                    payload = (
                        dict(verdict)
                        if isinstance(verdict, Mapping)
                        else {}
                    )
                    self._fire(rule, hour, payload)
            elif rule.name in self._active:
                self._resolve(rule, hour)

    def _fire(
        self, rule: HealthRule, hour: int, payload: dict
    ) -> None:
        from . import emit, get_registry

        self._active[rule.name] = hour
        event = emit(
            ALERT_FIRED,
            rule=rule.name,
            severity=rule.severity,
            hour=hour,
            window=rule.window_hours,
            **payload,
        )
        if event is not None:
            # Lazily registered: clean runs never fire, keeping their
            # metrics snapshot (and obs_smoke.json) byte-identical.
            get_registry().counter("health.alerts_fired").inc()
            self.incidents.record(event)

    def _resolve(self, rule: HealthRule, hour: int) -> None:
        from . import emit, get_registry

        fired_hour = self._active.pop(rule.name)
        event = emit(
            ALERT_RESOLVED,
            rule=rule.name,
            severity=rule.severity,
            hour=hour,
            fired_hour=fired_hour,
        )
        if event is not None:
            get_registry().counter("health.alerts_resolved").inc()
            self.incidents.record(event)


# -- default rule pack -----------------------------------------------------


def capture_rate_drop_rule(
    window: int = 4,
    drop_ratio: float = 0.25,
    min_trailing_mean: float = 6.0,
) -> HealthRule:
    """Hourly captures collapsed vs the trailing-window mean.

    Fires when the just-completed hour captured fewer than
    ``drop_ratio`` times the mean of the previous ``window`` hours.
    The trailing walk stops at deployment boundaries (deploy/shutdown
    hours), so a fresh sweep network is never judged against the
    collection network's rates, and low-traffic runs are exempted via
    ``min_trailing_mean``.
    """

    def predicate(ctx: HealthContext) -> object:
        history = ctx.history
        if not history:
            return False
        current = history[-1]
        if current.boundary:
            return False
        trailing: list[int] = []
        for record in reversed(history[:-1]):
            if record.boundary:
                break
            trailing.append(record.captures)
            if len(trailing) >= window:
                break
        if len(trailing) < window:
            return False
        mean = sum(trailing) / len(trailing)
        if mean < min_trailing_mean:
            return False
        if current.captures < drop_ratio * mean:
            return {
                "captures": current.captures,
                "trailing_mean": round(mean, 3),
            }
        return False

    return HealthRule(
        name="network.capture_rate_drop",
        severity="warn",
        predicate=predicate,
        window_hours=window,
        description=(
            "hourly captures fell below "
            f"{drop_ratio:g}x the trailing {window}h mean"
        ),
    )


def reconnect_storm_rule(
    window: int = 3, threshold: int = 3
) -> HealthRule:
    """Stream reconnects (incl. failed attempts) piling up."""

    def predicate(ctx: HealthContext) -> object:
        reconnects = ctx.count("stream.reconnect") + ctx.count(
            "stream.reconnect_failed"
        )
        if reconnects >= threshold:
            return {"reconnects": reconnects}
        return False

    return HealthRule(
        name="stream.reconnect_storm",
        severity="critical",
        predicate=predicate,
        window_hours=window,
        description=(
            f">= {threshold} stream reconnects within {window}h"
        ),
    )


def gap_loss_rule(window: int = 1) -> HealthRule:
    """Gap tweets the reconnect backfill could not recover."""

    def predicate(ctx: HealthContext) -> object:
        lost = ctx.lost()
        if lost > 0:
            return {"lost": lost}
        return False

    return HealthRule(
        name="capture.gap_loss",
        severity="critical",
        predicate=predicate,
        window_hours=window,
        description="capture.lost grew: unrecovered gap tweets",
    )


def switch_deferral_rule(streak: int = 2) -> HealthRule:
    """Portability switches deferred several hours in a row."""

    def predicate(ctx: HealthContext) -> object:
        recent = ctx.hours()
        if len(recent) < streak:
            return False
        if all(
            record.event_counts.get("network.switch_deferred", 0)
            for record in recent
        ):
            return {"streak": len(recent)}
        return False

    return HealthRule(
        name="network.switch_deferral_streak",
        severity="warn",
        predicate=predicate,
        window_hours=streak,
        description=(
            f"{streak}+ consecutive hours with a deferred "
            "portability switch"
        ),
    )


def garner_collapse_rule(
    window: int = 4, collapse_ratio: float = 0.35
) -> HealthRule:
    """Top-band garner rate collapsed vs its recent peak.

    Judges the live ``pge.snapshot`` series (distinct users per
    node-hour for the highest-rated band) within the current
    deployment generation only.
    """

    def predicate(ctx: HealthContext) -> object:
        digests = ctx.snapshots(window + 1)
        if len(digests) < window + 1:
            return False
        current = digests[-1]
        peak = max(float(d["rate"]) for d in digests[:-1])
        rate = float(current["rate"])
        if peak > 0 and rate < collapse_ratio * peak:
            return {
                "band": current["band"],
                "rate": round(rate, 6),
                "peak": round(peak, 6),
            }
        return False

    return HealthRule(
        name="pge.garner_collapse",
        severity="warn",
        predicate=predicate,
        window_hours=window,
        description=(
            "top-band garner rate fell below "
            f"{collapse_ratio:g}x its {window}h peak"
        ),
    )


def rss_ceiling_rule(
    growth_factor: float = 3.0,
    min_growth_kb: float = 131072.0,
) -> HealthRule:
    """Process RSS grew far beyond its first-hour baseline.

    RSS is the one nondeterministic input a rule may touch, so both
    guards are generous: the reading must exceed ``growth_factor``
    times the baseline *and* have grown by ``min_growth_kb`` (default
    128 MiB) in absolute terms before the rule fires.
    """

    def predicate(ctx: HealthContext) -> object:
        history = ctx.history
        if len(history) < 2:
            return False
        baseline = history[0].rss_kb
        current = history[-1].rss_kb
        if baseline <= 0:
            return False
        if (
            current > growth_factor * baseline
            and current - baseline > min_growth_kb
        ):
            return {
                "rss_kb": round(current, 1),
                "baseline_kb": round(baseline, 1),
            }
        return False

    return HealthRule(
        name="engine.rss_ceiling",
        severity="warn",
        predicate=predicate,
        window_hours=1,
        description=(
            f"peak RSS exceeded {growth_factor:g}x the first-hour "
            "baseline"
        ),
    )


def fault_activity_rules(
    kinds: Sequence[str] = DEFAULT_FAULT_KINDS, window: int = 1
) -> tuple[HealthRule, ...]:
    """One info-level rule per fault kind: "this kind is active".

    Detection reads ``faults.injected.<kind>`` counter deltas rather
    than events, because the quiet kinds (``duplicate_delivery``,
    ``out_of_order``) are metric-only by design.
    """

    def make(kind: str) -> HealthRule:
        def predicate(ctx: HealthContext) -> object:
            count = ctx.fault_count(kind)
            if count > 0:
                return {"count": count}
            return False

        return HealthRule(
            name=f"faults.{kind}",
            severity="info",
            predicate=predicate,
            window_hours=window,
            description=f"{kind} faults injected within {window}h",
        )

    return tuple(make(kind) for kind in kinds)


def default_rules(
    include_faults: bool = True,
) -> tuple[HealthRule, ...]:
    """The stock rule pack covering PR 5's observable degraded modes."""
    rules = (
        capture_rate_drop_rule(),
        reconnect_storm_rule(),
        gap_loss_rule(),
        switch_deferral_rule(),
        garner_collapse_rule(),
        rss_ceiling_rule(),
    )
    if include_faults:
        rules = rules + fault_activity_rules()
    return rules


__all__ = [
    "DEFAULT_FAULT_KINDS",
    "HealthContext",
    "HealthEngine",
    "HealthRule",
    "HourHealth",
    "capture_rate_drop_rule",
    "default_rules",
    "fault_activity_rules",
    "gap_loss_rule",
    "garner_collapse_rule",
    "reconnect_storm_rule",
    "rss_ceiling_rule",
    "switch_deferral_rule",
]
