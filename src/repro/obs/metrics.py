"""Zero-dependency metrics instruments and the process-global registry.

Three instrument kinds, mirroring the usual time-series vocabulary:

* :class:`Counter` — monotonically increasing count (captures, drops);
* :class:`Gauge` — last-written value (spam rate this hour);
* :class:`Histogram` — value distribution with ``count/sum/p50/p95/max``
  (per-hour wall-clock, selector fill rates).

All instruments hang off a :class:`MetricsRegistry`.  The registry is
*process-global* (``get_registry()``) so instrumentation points deep in
the pipeline need no plumbing, but it is **resettable** (``reset()``
zeroes every instrument while keeping identity, so cached instrument
references stay live, and a snapshot taken after it reads as one from
a fresh process) and **disableable**: with ``set_enabled(False)``
every write is a single attribute check and an early return, keeping
instrumented hot paths within a ~2% overhead envelope of uninstrumented
code.

Not thread-safe: the simulation is single-threaded by design.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0

    @property
    def value(self) -> int | float:
        return self._value

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0); no-op while disabled.

        Raises:
            ValueError: on a negative amount.
        """
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def _reset(self) -> None:
        self._value = 0


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "_registry", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value: float | None = None

    @property
    def value(self) -> float | None:
        return self._value

    def set(self, value: float) -> None:
        """Record the current value; no-op while disabled."""
        if not self._registry.enabled:
            return
        self._value = float(value)

    def _reset(self) -> None:
        self._value = None


class Histogram:
    """A value distribution summarized as count/sum/p50/p95/max.

    Values are retained in full (the pipeline's cardinalities are
    thousands of observations, not millions), so the percentiles are
    exact nearest-rank statistics over everything observed.
    """

    __slots__ = ("name", "_registry", "_values", "_sorted")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation; no-op while disabled."""
        if not self._registry.enabled:
            return
        self._values.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / len(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    @property
    def values(self) -> list[float]:
        """A copy of every raw observation (order unspecified)."""
        return list(self._values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100].

        Edge cases are defined, not errors: an empty histogram answers
        0.0 for every ``q`` and a single-sample histogram answers its
        one sample (so ``p50``/``p95``/``summary()`` never raise on
        sparse data — per-phase timing histograms routinely hold zero
        or one observation at tiny scales).

        Raises:
            ValueError: if ``q`` is outside [0, 100] or not a number.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self._values:
            return 0.0
        if len(self._values) == 1:
            return self._values[0]
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = min(
            len(self._values),
            max(1, math.ceil(q / 100.0 * len(self._values))),
        )
        return self._values[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    def summary(self) -> dict[str, float]:
        """The serializable five-number summary."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }

    def _reset(self) -> None:
        self._values.clear()
        self._sorted = True


class MetricsRegistry:
    """Keeper of every instrument; get-or-create by dotted name."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Counters fetched through :meth:`counter` since the last
        #: reset; the snapshot lists these even at zero.
        self._touched: set[str] = set()

    # -- instrument access ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, self)
        self._touched.add(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, self)
        return instrument

    # -- read-only lookups ------------------------------------------------

    def counter_value(self, name: str) -> int | float:
        """Current value of counter ``name`` **without creating it**.

        The get-or-create accessors above register an instrument on
        first touch, which would surface as a new zero-valued entry in
        every later snapshot — a probe must never change the artifact
        it probes (the health engine reads counters every simulated
        hour).  Absent counters read as 0.
        """
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counter_values(self, prefix: str) -> dict[str, int | float]:
        """Every registered counter under a dotted prefix (read-only).

        Like :meth:`counter_value`, never creates instruments; the
        result is sorted by name so iteration order is deterministic.
        """
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place*.

        Instrument objects keep their identity, so call sites that
        cached a reference (hot paths do) stay wired to the registry.
        Counters registered before the reset leave the snapshot until
        they are fetched or counted again, so a report does not depend
        on what the process ran before.
        """
        self._touched.clear()
        for counter in self._counters.values():
            counter._reset()
        for gauge in self._gauges.values():
            gauge._reset()
        for histogram in self._histograms.values():
            histogram._reset()

    def dump_state(self) -> dict[str, dict]:
        """Raw, transferable instrument state (cross-process merge).

        Unlike :meth:`snapshot`, histograms are dumped as their *raw*
        observation lists so a receiving registry can re-observe each
        value and keep exact percentiles.  Empty instruments are
        skipped — a worker ships only what its chunk touched.
        """
        return {
            "counters": {
                name: c.value
                for name, c in sorted(self._counters.items())
                if c.value
            },
            "gauges": {
                name: g.value
                for name, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                name: h.values
                for name, h in sorted(self._histograms.items())
                if h.count
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`dump_state` into this one.

        Counters add, gauges last-write-wins (merge order is the
        caller's chunk order, so it is deterministic), histograms
        re-observe every raw value.  Writes go through the ordinary
        instrument methods, so merging is a no-op while disabled.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in state.get("histograms", {}).items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)

    def snapshot(self) -> dict[str, dict]:
        """A plain-data view of every instrument with recorded state.

        Counters are listed when non-zero or fetched since the last
        reset, as a fresh process would have registered them.
        """
        return {
            "counters": {
                name: c.value
                for name, c in sorted(self._counters.items())
                if c.value or name in self._touched
            },
            "gauges": {
                name: g.value
                for name, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
                if h.count
            },
        }
