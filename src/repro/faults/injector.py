"""The fault injector: executes a :class:`FaultPlan` against a world.

The injector sits *between* the engine and the API layers, on the
consumer side of the platform: the firehose itself (and therefore the
ground truth any test computes from it) is never perturbed, only what
the monitoring client gets to see.  Hook points:

* ``TwitterEngine.run_hour`` calls :meth:`begin_hour` /
  :meth:`end_hour` when an injector is installed;
* ``FilteredStream`` consults :meth:`on_match` per matched tweet and
  :meth:`check_stream_call` on filter create/update;
* ``RestClient`` consults :meth:`check_rest_call` on every
  rate-limited endpoint.

All randomness comes from the injector's own generator, derived from
the experiment seed — never from the world generator — so an empty
plan leaves the simulated world bit-identical to an uninstrumented
run, and a non-empty plan perturbs it reproducibly.
"""

from __future__ import annotations

import enum
import logging
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import get_event_stream, get_registry
from ..twittersim.clock import SECONDS_PER_HOUR
from ..twittersim.errors import (
    FilterLimitError,
    NetworkTimeoutError,
    RateLimitError,
)
from .plan import FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..twittersim.api.streaming import FilteredStream
    from ..twittersim.engine import TwitterEngine
    from ..twittersim.entities import Tweet

log = logging.getLogger("repro.faults.injector")


class DeliveryAction(enum.Enum):
    """What the stream should do with one matched tweet."""

    DELIVER = "deliver"
    #: Deliver the tweet twice (redelivery after a soft reconnect).
    DUPLICATE = "duplicate"
    #: Hold the tweet and deliver it after a newer one (out of order).
    HOLD = "hold"
    #: The transport dropped at/before this tweet; deliver nothing.
    BREAK = "break"


class FaultInjector:
    """Deterministic executor of one :class:`FaultPlan`.

    Args:
        plan: the fault schedule to execute.
        seed: derives the injector's private generator; keep it equal
            to the experiment seed so one seed reproduces the run.

    Attributes:
        node_ids_provider: optional callback returning the user ids of
            the currently deployed honeypot nodes; required for
            :attr:`FaultKind.NODE_SUSPENSION` faults to have targets
            (the network registers itself here on deploy).
    """

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self._rng = np.random.default_rng(seed + 0xFA017)
        self.node_ids_provider: Callable[[], list[int]] | None = None
        self._streams: list["FilteredStream"] = []
        self._hour = -1
        #: Armed mid-hour transport drops: id(stream) -> break time.
        self._break_at: dict[int, float] = {}
        self._dup_rate = 0.0
        self._ooo_rate = 0.0
        #: Consumed per-(hour, kind) failure budgets.
        self._consumed: dict[tuple[int, FaultKind], int] = {}
        #: Total faults injected, by kind value (observable state for
        #: tests without reaching into the metrics registry).
        self.injected_counts: dict[str, int] = {}

    # -- stream registry -------------------------------------------------

    def attach_stream(self, stream: "FilteredStream") -> None:
        """Register a live stream as a fault target."""
        if stream not in self._streams:
            self._streams.append(stream)

    def detach_stream(self, stream: "FilteredStream") -> None:
        """Forget a closed stream."""
        if stream in self._streams:
            self._streams.remove(stream)
        self._break_at.pop(id(stream), None)

    # -- engine hooks ----------------------------------------------------

    def begin_hour(self, engine: "TwitterEngine") -> None:
        """Arm this hour's faults (called at the top of ``run_hour``)."""
        hour = engine.clock.hour
        self._hour = hour
        self._dup_rate = self.plan.rate(
            hour, FaultKind.DUPLICATE_DELIVERY
        )
        self._ooo_rate = self.plan.rate(hour, FaultKind.OUT_OF_ORDER)
        self._break_at = {}
        breaks = self.plan.for_hour(hour, FaultKind.STREAM_DISCONNECT)
        if breaks:
            at = engine.clock.now + breaks[0].at_fraction * SECONDS_PER_HOUR
            for stream in self._streams:
                if stream.connected:
                    self._break_at[id(stream)] = at
        self._suspend_nodes(engine, hour)

    def end_hour(self, engine: "TwitterEngine") -> None:
        """Fire still-armed breaks, then flush held tweets."""
        for stream in list(self._streams):
            at = self._break_at.pop(id(stream), None)
            if at is not None and stream.connected:
                stream.mark_broken(at)
                self._record(
                    FaultKind.STREAM_DISCONNECT,
                    hour=self._hour,
                    at=round(at, 3),
                )
            stream.flush_held()

    def _suspend_nodes(self, engine: "TwitterEngine", hour: int) -> None:
        budget = self.plan.budget(hour, FaultKind.NODE_SUSPENSION)
        if not budget or self.node_ids_provider is None:
            return
        node_ids = sorted(self.node_ids_provider())
        index_of = engine.population.index_of
        suspended = engine.population.cols.column("suspended")
        live = [
            uid
            for uid in node_ids
            if (row := index_of.get(uid)) is not None and not suspended[row]
        ]
        if not live:
            return
        k = min(budget, len(live))
        picks = self._rng.choice(len(live), size=k, replace=False)
        for index in sorted(int(p) for p in picks):
            suspended[index_of[live[index]]] = True
            self._record(
                FaultKind.NODE_SUSPENSION, hour=hour, user_id=live[index]
            )

    # -- stream-side hooks -----------------------------------------------

    def on_match(
        self, stream: "FilteredStream", tweet: "Tweet"
    ) -> DeliveryAction:
        """Decide one matched tweet's fate on one stream."""
        at = self._break_at.get(id(stream))
        if at is not None and tweet.created_at >= at:
            del self._break_at[id(stream)]
            stream.mark_broken(at)
            self._record(
                FaultKind.STREAM_DISCONNECT,
                hour=self._hour,
                at=round(at, 3),
            )
            return DeliveryAction.BREAK
        if self._dup_rate > 0.0 and float(self._rng.random()) < (
            self._dup_rate
        ):
            self._record(
                FaultKind.DUPLICATE_DELIVERY,
                hour=self._hour,
                quiet=True,
            )
            return DeliveryAction.DUPLICATE
        if self._ooo_rate > 0.0 and float(self._rng.random()) < (
            self._ooo_rate
        ):
            self._record(
                FaultKind.OUT_OF_ORDER, hour=self._hour, quiet=True
            )
            return DeliveryAction.HOLD
        return DeliveryAction.DELIVER

    def check_stream_call(self, op: str, now: float) -> None:
        """Maybe fail a filter create/update call.

        Raises:
            FilterLimitError: while this hour's filter-limit budget
                lasts.
        """
        hour = int(now // SECONDS_PER_HOUR)
        if self._consume(hour, FaultKind.FILTER_LIMIT):
            self._record(FaultKind.FILTER_LIMIT, hour=hour, op=op)
            raise FilterLimitError(
                f"injected filter-limit rejection on {op}"
            )

    # -- REST-side hook ----------------------------------------------------

    def check_rest_call(self, endpoint: str, now: float) -> None:
        """Maybe fail one rate-limited REST call.

        Raises:
            NetworkTimeoutError: while the timeout budget lasts.
            RateLimitError: while the rate-limit budget lasts.
        """
        hour = int(now // SECONDS_PER_HOUR)
        if self._consume(hour, FaultKind.REST_TIMEOUT):
            self._record(
                FaultKind.REST_TIMEOUT, hour=hour, endpoint=endpoint
            )
            raise NetworkTimeoutError(
                f"injected timeout on {endpoint}"
            )
        if self._consume(hour, FaultKind.REST_RATE_LIMIT):
            self._record(
                FaultKind.REST_RATE_LIMIT, hour=hour, endpoint=endpoint
            )
            raise RateLimitError(
                f"injected rate limit on {endpoint}",
                reset_at=now + 60.0,
            )

    # -- internals ---------------------------------------------------------

    def _consume(self, hour: int, kind: FaultKind) -> bool:
        """Take one unit of an (hour, kind) budget if any remains."""
        budget = self.plan.budget(hour, kind)
        if not budget:
            return False
        used = self._consumed.get((hour, kind), 0)
        if used >= budget:
            return False
        self._consumed[(hour, kind)] = used + 1
        return True

    def _record(
        self, kind: FaultKind, quiet: bool = False, **attrs: object
    ) -> None:
        """Account one injected fault (lazy instruments, so a plan
        that never fires leaves the metrics snapshot untouched)."""
        value = kind.value
        self.injected_counts[value] = (
            self.injected_counts.get(value, 0) + 1
        )
        registry = get_registry()
        registry.counter("faults.injected").inc()
        registry.counter(f"faults.injected.{value}").inc()
        if not quiet:
            # Per-tweet faults (duplicate/out-of-order) are metric-only
            # to keep the event ring buffer from churning.
            get_event_stream().emit(
                "faults.injected", kind=value, **attrs
            )
        log.debug("injected fault %s (%s)", value, attrs)
