"""Structured event stream: the live counterpart of the span tracer.

Spans answer *"how long did each phase take"* after the run; events
answer *"what is happening right now"* while it is still in flight.
An :class:`Event` is one typed, taxonomy-named occurrence (the same
dotted ``engine. / network. / label. / ml. / experiment.`` namespaces
the span tracer uses, enforced statically by lint rule RPL206):

``engine.hour_completed``  one simulated hour finished (tweet counts)
``network.deploy``         initial node selection went live
``network.switch``         the hourly portability re-selection
``network.capture``        one tweet crossed a deployed node
``label.stage``            one Table-III labeling stage finished
``ml.cv_fold``             one cross-validation fold finished
``pge.snapshot``           per-band garner rates (hourly ``live``
                           estimates + one ``final`` Table-VI ranking)
``ledger.appended``        one RunRecord persisted to a run ledger
``dashboard.rendered``     the offline HTML dashboard was written

Events flow through the process-global :class:`EventStream`:

* a **bounded ring buffer** (``collections.deque(maxlen=...)``) keeps
  the most recent events queryable without unbounded growth;
* **subscribers** (the health engine, tests) see every event
  synchronously as it is emitted.

Like the metrics registry, the stream is *disableable*: while the
owning registry is disabled, ``emit()`` is one attribute check and an
early return, keeping instrumented hot paths (per-capture emits) within
the <2% overhead envelope.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .metrics import MetricsRegistry

#: Default ring-buffer capacity: generous for hour-grained events, a
#: few minutes of history for per-capture events at realistic rates.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True, slots=True)
class Event:
    """One emitted occurrence on the stream."""

    #: Monotonic per-stream sequence number (0-based).
    seq: int
    #: Taxonomy-dotted event name (``network.switch``).
    name: str
    #: Seconds since the stream's epoch (perf-counter offset, not
    #: wall-clock, so event times are mutually comparable like spans).
    t: float
    #: Free-form payload (counts, rates, stage names).
    attributes: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready)."""
        return {
            "seq": self.seq,
            "name": self.name,
            "t": round(self.t, 6),
            "attributes": dict(self.attributes),
        }


#: A subscriber sees every event synchronously at emit time.
EventCallback = Callable[[Event], None]


class EventStream:
    """Bounded in-memory event buffer with synchronous subscribers.

    Not thread-safe: the simulation is single-threaded by design.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("event stream capacity must be >= 1")
        self._registry = registry
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self._subscribers: list[EventCallback] = []
        self._seq = 0
        self._epoch = time.perf_counter()

    # -- emission ---------------------------------------------------------

    def emit(self, name: str, **attributes: object) -> Event | None:
        """Record one event; no-op (returns None) while disabled.

        Subscribers run synchronously in subscription order; a raising
        subscriber propagates (instrumentation bugs should be loud in
        this codebase, not swallowed).
        """
        if not self._registry.enabled:
            return None
        event = Event(
            seq=self._seq,
            name=name,
            t=time.perf_counter() - self._epoch,
            attributes=attributes,
        )
        self._seq += 1
        self._buffer.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    # -- subscription -----------------------------------------------------

    def subscribe(self, callback: EventCallback) -> None:
        """Register a synchronous per-event callback."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: EventCallback) -> None:
        """Remove a previously registered callback (idempotent)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # -- queries ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Ring-buffer size (older events are evicted beyond it)."""
        return self._buffer.maxlen or 0

    @property
    def total_emitted(self) -> int:
        """Events emitted since the last reset (evicted ones included)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Event]:
        """Buffered events, oldest first."""
        return iter(self._buffer)

    def events(self, name: str | None = None) -> list[Event]:
        """Buffered events, optionally filtered by exact name."""
        if name is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.name == name]

    def last(self, name: str | None = None) -> Event | None:
        """The newest buffered event (with ``name``, if given)."""
        for event in reversed(self._buffer):
            if name is None or event.name == name:
                return event
        return None

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Drop buffered events, restart seq + epoch; keep subscribers.

        Subscribers persist across resets for the same reason metric
        instruments keep identity: call sites cache references.
        """
        self._buffer.clear()
        self._seq = 0
        self._epoch = time.perf_counter()
