"""Observability: metrics, phase tracing, and run reports.

The paper's whole argument is quantitative (PGE = ``N_i / (G_i *
T_i)``, captures per node-hour), so the reproduction carries its own
zero-dependency instrumentation layer:

* a process-global :class:`~repro.obs.metrics.MetricsRegistry` of
  counters, gauges, and histograms (``get_registry()``);
* a span :class:`~repro.obs.tracing.Tracer` for nested wall-clock
  phase timing (``with trace("label.minhash"): ...``);
* :class:`~repro.obs.report.RunReport`, the JSON phase-tree artifact
  that benchmarks and perf PRs diff against;
* a structured :class:`~repro.obs.events.EventStream`
  (``emit("network.switch", churn=31)``) with a bounded ring buffer,
  synchronous subscribers, and an optional JSONL sink — the *live*
  counterpart of the post-hoc report;
* :func:`~repro.obs.profiling.profile`, a ``trace`` variant that adds
  CPU time (and, opt-in, cProfile top-N hot functions) to the span;
* :class:`~repro.obs.live.LiveMonitor`, a console tail of the event
  stream for in-flight runs;
* :class:`~repro.obs.ledger.RunLedger` + ``diff_trajectory``, the
  append-only JSONL run trajectory under ``results/ledger/`` with its
  median-of-last-K regression gate — the one perf record, which
  ``scripts/bench.py`` appends to and gates against;
* :func:`~repro.obs.dashboard.save_dashboard`, the self-contained
  offline HTML view of a ledger + event stream;
* :func:`~repro.obs.resources.sample`, per-phase peak-RSS/CPU
  readings (``getrusage``) stamped onto phase spans by ``profile``.

Span taxonomy (dotted, one namespace per layer):

``engine.*``     platform simulation (per-hour metrics only, no spans)
``network.*``    deploy / switch / shutdown of a pseudo-honeypot net
``label.*``      the four Table-III labeling stages
``ml.*``         detector fit and cross-validation
``experiment.*`` the paper's end-to-end phases
``parallel.*``   process-pool fan-out (``repro.parallel``): one
                 ``parallel.map`` span per fan-out with a
                 ``parallel.chunk`` child per worker chunk, carrying
                 the worker-side spans merged back into the parent
``faults.*``     injected chaos (``repro.faults``): per-kind
                 ``faults.injected`` counters and events
``stream.*``     stream transport recovery: ``stream.reconnect`` /
                 ``stream.reconnect_failed``
``capture.*``    degraded-mode capture accounting:
                 ``capture.gap_backfilled``, ``capture.lost``,
                 ``capture.duplicate_dropped``
``pge.*``        live garner telemetry: ``pge.captures`` /
                 ``pge.garner.<attribute>`` counters and the hourly
                 ``pge.snapshot`` event (``repro.core.garner``)
``ledger.*``     run-ledger appends (``ledger.appended``)
``dashboard.*``  dashboard renders (``dashboard.rendered``)
``alert.*``      health-engine judgements: ``alert.fired`` /
                 ``alert.resolved`` (``repro.obs.health``)
``health.*``     health-engine self-accounting:
                 ``health.alerts_fired`` / ``health.alerts_resolved``
                 counters (lazily registered — clean runs keep their
                 snapshots byte-identical)

Everything is resettable (``reset()``) for test isolation and cheaply
disableable (``set_enabled(False)``) so instrumented hot paths cost a
flag check when observability is off.
"""

from __future__ import annotations

from contextlib import contextmanager

from .alerts import Incident, IncidentLog
from .dashboard import render_dashboard, save_dashboard
from .events import Event, EventStream, JsonlSink
from .health import (
    HealthContext,
    HealthEngine,
    HealthRule,
    default_rules,
)
from .ledger import (
    BenchDiff,
    PhaseDelta,
    RunLedger,
    RunRecord,
    diff_trajectory,
    stable_digest,
)
from .live import LiveMonitor
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiling import profile, profiling_enabled, set_profiling
from .report import SUMMARY_HEADERS, RunReport
from .resources import ResourceSample
from .tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "BenchDiff",
    "Counter",
    "Event",
    "EventStream",
    "Gauge",
    "HealthContext",
    "HealthEngine",
    "HealthRule",
    "Histogram",
    "Incident",
    "IncidentLog",
    "JsonlSink",
    "LiveMonitor",
    "MetricsRegistry",
    "NULL_SPAN",
    "PhaseDelta",
    "ResourceSample",
    "RunLedger",
    "RunRecord",
    "RunReport",
    "SUMMARY_HEADERS",
    "Span",
    "Tracer",
    "default_rules",
    "diff_trajectory",
    "disabled",
    "emit",
    "render_dashboard",
    "save_dashboard",
    "stable_digest",
    "get_event_stream",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "profile",
    "profiling_enabled",
    "reset",
    "set_enabled",
    "set_profiling",
    "trace",
]

_REGISTRY = MetricsRegistry(enabled=True)
_TRACER = Tracer(_REGISTRY)
_EVENTS = EventStream(_REGISTRY)


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-global tracer (shares the registry's enabled flag)."""
    return _TRACER


def get_event_stream() -> EventStream:
    """The process-global event stream (shares the enabled flag)."""
    return _EVENTS


def trace(name: str, **attributes):
    """Open a global span: ``with trace("experiment.classify"): ...``."""
    return _TRACER.trace(name, **attributes)


def emit(name: str, **attributes) -> Event | None:
    """Emit a global event: ``emit("network.switch", churn=31)``."""
    return _EVENTS.emit(name, **attributes)


def is_enabled() -> bool:
    """Whether instruments and spans currently record anything."""
    return _REGISTRY.enabled


def set_enabled(enabled: bool) -> None:
    """Globally switch recording on/off (off = no-op writes)."""
    _REGISTRY.enabled = bool(enabled)


@contextmanager
def disabled():
    """Temporarily disable recording for a block."""
    previous = _REGISTRY.enabled
    _REGISTRY.enabled = False
    try:
        yield
    finally:
        _REGISTRY.enabled = previous


def reset() -> None:
    """Zero metrics, drop spans and events (test isolation)."""
    _REGISTRY.reset()
    _TRACER.reset()
    _EVENTS.reset()
