"""Span-based phase tracing.

A *span* is one timed region of the pipeline, named by the taxonomy
``engine.* / network.* / label.* / ml.* / experiment.*``.  Spans nest:

.. code-block:: python

    with trace("experiment.collect_ground_truth") as span:
        with trace("network.deploy"):
            ...
        span.set(captures=run.n_captures)

The tracer keeps the stack of open spans and the forest of completed
root spans; :class:`repro.obs.report.RunReport` serializes that forest
as the phase tree.  While the owning registry is disabled, ``trace``
yields a shared no-op span and records nothing.

Durations come from ``time.perf_counter()``; ``started_at`` is the
offset from the tracer's own epoch, so a report's spans are mutually
comparable without depending on wall-clock time.  Every recorded span
also carries ``cpu_s`` (process CPU seconds the block consumed) and
``max_rss_kb`` (the process RSS high-water mark at exit, where
``getrusage`` exists): the run ledger keeps both per phase, and
``RunReport.normalized()`` strips them with the wall-clock fields.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import resources

#: Span attributes that a re-run of the same seed cannot reproduce
#: bit for bit: ``trace`` stamps them on every span, and
#: ``RunReport.normalized()`` strips them.
TIMING_ATTRS = frozenset({"cpu_s", "max_rss_kb"})


@dataclass
class Span:
    """One completed (or still-open) timed region."""

    name: str
    started_at: float = 0.0
    duration_s: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set(self, **attributes: object) -> "Span":
        """Attach key/value annotations (counts, sizes); returns self."""
        self.attributes.update(attributes)
        return self

    def child(self, name: str) -> "Span | None":
        """First direct child with ``name``, or None."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready)."""
        return {
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "duration_s": round(self.duration_s, 6),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict`.

        Raises:
            KeyError: on a dict missing the ``name`` field.
        """
        return cls(
            name=data["name"],
            started_at=float(data.get("started_at", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            attributes=dict(data.get("attributes", {})),
            children=[
                cls.from_dict(child) for child in data.get("children", ())
            ],
        )


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    name = "<disabled>"
    attributes: dict[str, object] = {}
    children: list[Span] = []

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def child(self, name: str) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Owns the open-span stack and the completed root-span forest."""

    def __init__(self, registry) -> None:
        self._registry = registry
        self._epoch = time.perf_counter()
        self._stack: list[Span] = []
        self.roots: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def trace(self, name: str, **attributes: object):
        """Open a span named ``name`` for the duration of the block.

        On exit the span carries its wall-clock ``duration_s`` and the
        :data:`TIMING_ATTRS`.  It is recorded (and timed) even if the
        block raises, with an ``error`` attribute naming the exception
        type.
        """
        if not self._registry.enabled:
            yield NULL_SPAN
            return
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        span = Span(name=name, started_at=t0 - self._epoch)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        if attributes:
            span.set(**attributes)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.set(error=type(exc).__name__)
            raise
        finally:
            span.duration_s = time.perf_counter() - t0
            span.set(cpu_s=round(time.process_time() - cpu0, 6))
            if resources.available():
                span.set(max_rss_kb=resources.sample().max_rss_kb)
            self._stack.pop()

    def find(self, name: str) -> list[Span]:
        """All completed-or-open spans with ``name``, depth-first."""
        return [
            span
            for root in self.roots
            for span in root.walk()
            if span.name == name
        ]

    def reset(self) -> None:
        """Drop every recorded span and restart the epoch."""
        self._stack.clear()
        self.roots.clear()
        self._epoch = time.perf_counter()
