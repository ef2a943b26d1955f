"""The always-on sniffer service: async ingestion + online scoring.

Turns the batch pipeline (select → monitor → label → train →
classify) into a long-running deployment shape: one loop serves
captured tweets in arrival order on a virtual clock, through a bounded
ingestion queue, and each flushed batch goes through the detector's
one scoring kernel, :meth:`PseudoHoneypotDetector.score` — extraction
against the service's long-lived extractor, compiled-forest inference,
and the environment-score feedback exactly as live collection would.

Semantics contract with the batch path: a zero-fault service run over
a fixed capture set, with ``batch_size`` equal to ``classify``'s
``chunk_size`` and the flush deadline out of reach, produces verdicts
**bitwise-identical** to :meth:`PseudoHoneypotDetector.classify`.
Both order captures with :func:`~repro.core.detector.time_order` and
score them through the same kernel, so only the chunk boundaries could
differ, and under that condition they do not.
``tests/service/test_service.py`` and ``tests/golden`` pin this,
including at every worker count.  Where the batches close otherwise —
at a deadline, a full batch or a late arrival, and in which order
within one instant — ``tests/golden/test_service_digests.py`` pins.

Determinism: the loop never consults wall time for control flow.
``time.perf_counter()`` appears only on the measurement path (latency
histograms / throughput), which the determinism lint explicitly
allows; drop order, batch boundaries, and all emitted events are pure
functions of the seeded capture stream.

All ``service.*`` metrics are registered lazily in the constructor —
a process that never builds a service never grows a service
instrument, keeping ``results/obs_smoke.json`` byte-identical.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import groupby

from ..core.detector import PseudoHoneypotDetector, time_order
from ..core.monitor import CapturedTweet
from ..core.network import PseudoHoneypotNetwork
from ..features.extractor import FeatureExtractor
from ..obs import emit, get_registry

#: Default ingestion-queue capacity (tweets).
DEFAULT_QUEUE_CAPACITY = 4_096

#: Default scoring batch: the compiled forest's dispatch-overhead win
#: is largest at a few hundred rows, and a batch stays latency-bounded.
DEFAULT_BATCH_SIZE = 256

#: Default flush deadline (simulated seconds): a partial batch never
#: waits longer than this for stragglers.
DEFAULT_FLUSH_INTERVAL_S = 900.0


def _nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile, mirroring obs.Histogram semantics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ScoredTweet:
    """One online verdict, in scoring order."""

    tweet_id: int
    sender_id: int
    hour: int
    spam_probability: float
    is_spam: bool
    backfilled: bool


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of one service's accounting and latency profile.

    The ingestion identity ``ingested == scored + dropped + in_flight``
    holds at every instant; once :meth:`SnifferService.run_network` or
    :meth:`SnifferService.replay` returns, ``in_flight`` is zero.
    """

    ingested: int
    scored: int
    dropped: int
    in_flight: int
    batches: int
    spams: int
    p50_ms: float
    p99_ms: float
    tweets_per_sec: float


class SnifferService:
    """Always-on detection loop over a monitored capture stream.

    Args:
        detector: a fitted :class:`PseudoHoneypotDetector`; its
            environment tracker receives the online spam feedback.
        queue_capacity: ingestion bound — arrivals beyond it are
            dropped with a ``service.overflow`` event (explicit
            backpressure, never silent loss).
        batch_size: tweets scored per inference call.
        flush_interval_s: virtual-clock deadline for partial batches;
            ``inf`` means no deadline.

    Raises:
        RuntimeError: if the detector was never fitted.
        ValueError: on a capacity or batch size that is not an int
            >= 1 (bools included), or a flush interval that is not
            > 0 (NaN included).
    """

    def __init__(
        self,
        detector: PseudoHoneypotDetector,
        *,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        batch_size: int = DEFAULT_BATCH_SIZE,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    ) -> None:
        if not detector.fitted:
            raise RuntimeError(
                "detector must be fit before serving; train it or use "
                "PseudoHoneypotDetector.from_fitted_classifier"
            )
        for name, value in (
            ("queue_capacity", queue_capacity),
            ("batch_size", batch_size),
        ):
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ValueError(
                    f"{name} must be an int >= 1, got {value!r}"
                )
        # ``not > 0`` also refuses NaN: its deadlines compare false with
        # every instant, so they would fall due only at the drain.
        if not flush_interval_s > 0:
            raise ValueError(
                f"flush_interval_s must be > 0, got {flush_interval_s!r}"
            )
        self.detector = detector
        self.queue_capacity = queue_capacity
        self.batch_size = batch_size
        self.flush_interval_s = float(flush_interval_s)
        self.extractor = FeatureExtractor(environment=detector.environment)
        #: Verdicts in scoring order.
        self.results: list[ScoredTweet] = []
        #: Senders of at least one confirmed spam.
        self.spammer_ids: set[int] = set()
        self.ingested = 0
        self.dropped = 0
        self.scored = 0
        self.batches = 0
        self._queue: deque[CapturedTweet] = deque()
        #: Virtual clock (simulated seconds).
        self._now = 0.0
        #: When the partial batch's deadline falls due; None if unarmed.
        self._deadline: float | None = None
        #: Captures of the polled network already served.
        self._cursor = 0
        self._score_wall_s = 0.0
        self._latencies_ms: list[float] = []
        # Lazily registered here — never at import time — so runs
        # without a service keep a byte-identical metrics snapshot.
        registry = get_registry()
        self._m_ingested = registry.counter("service.ingested")
        self._m_dropped = registry.counter("service.dropped")
        self._m_scored = registry.counter("service.scored")
        self._m_batches = registry.counter("service.batches")
        self._m_spams = registry.counter("service.spam_flagged")
        self._m_depth = registry.gauge("service.queue_depth")
        self._m_latency = registry.histogram("service.score_latency_ms")

    # -- the service loop --------------------------------------------------

    def _serve(self, captures: list[CapturedTweet], until: float) -> None:
        """Serve ``captures`` in arrival order, then run the clock on.

        Each capture arrives at its creation time, clamped forward to
        the clock (a reconnect backfill arrives late); arrivals that
        share an instant keep their input order.  Each instant runs:

        1. a deadline that lapsed before the instant flushes;
        2. the instant's arrivals are offered to the queue;
        3. a deadline that falls on the instant flushes;
        4. batches flush while a full one waits.  The first of them
           may be partial, when step 3 has just taken a full batch.

        After the last instant a deadline due by ``until`` flushes, and
        the clock moves to ``until`` if it lies ahead.
        """
        queue = self._queue
        stamps = [max(c.tweet.created_at, self._now) for c in captures]
        order = sorted(range(len(captures)), key=stamps.__getitem__)
        for now, arrivals in groupby(order, key=stamps.__getitem__):
            if self._deadline is not None and self._deadline < now:
                self._fire_deadline()
            self._now = now
            for i in arrivals:
                self._offer(captures[i])
            full = len(queue) >= self.batch_size
            if self._deadline == now:
                self._fire_deadline()
            while full:
                self._flush()
                full = len(queue) >= self.batch_size
        if self._deadline is not None and self._deadline <= until:
            self._fire_deadline()
        self._now = max(self._now, until)

    def _offer(self, capture: CapturedTweet) -> None:
        """Queue one arrival, or count and announce its drop."""
        self.ingested += 1
        self._m_ingested.inc()
        if len(self._queue) >= self.queue_capacity:
            self.dropped += 1
            self._m_dropped.inc()
            emit(
                "service.overflow",
                hour=capture.hour,
                tweet_id=capture.tweet.tweet_id,
                depth=len(self._queue),
            )
            return
        self._queue.append(capture)
        self._m_depth.set(len(self._queue))
        self._arm()

    def _arm(self) -> None:
        """Arm a deadline for a partial batch, unless one is armed."""
        if self._deadline is None and (
            0 < len(self._queue) < self.batch_size
        ):
            self._deadline = self._now + self.flush_interval_s

    def _fire_deadline(self) -> None:
        """Move the clock to the armed deadline and flush."""
        self._now = self._deadline
        self._deadline = None
        self._flush()

    def _drain(self) -> None:
        """Flush the armed deadline wherever it lies, then the rest."""
        if self._deadline is not None:
            self._fire_deadline()
        while self._queue:
            self._flush()

    # -- scoring -----------------------------------------------------------

    def _flush(self) -> None:
        """Score one batch from the head of the queue, if any."""
        queue = self._queue
        if not queue:
            return
        batch = [
            queue.popleft() for __ in range(min(self.batch_size, len(queue)))
        ]
        start = time.perf_counter()
        # Confirmed spams reach the environment inside ``score``,
        # before the next batch extracts — classify()'s cadence.
        __, p_spam, is_spam = self.detector.score(self.extractor, batch)
        elapsed = time.perf_counter() - start
        n_spams = 0
        for capture, p, spam in zip(batch, p_spam.tolist(), is_spam):
            self.results.append(
                ScoredTweet(
                    tweet_id=capture.tweet.tweet_id,
                    sender_id=capture.sender_id,
                    hour=capture.hour,
                    spam_probability=p,
                    is_spam=spam,
                    backfilled=capture.backfilled,
                )
            )
            if spam:
                n_spams += 1
                self.spammer_ids.add(capture.sender_id)
        self.scored += len(batch)
        self.batches += 1
        self._m_scored.inc(len(batch))
        self._m_batches.inc()
        if n_spams:
            self._m_spams.inc(n_spams)
        self._m_depth.set(len(queue))
        self._score_wall_s += elapsed
        self._latencies_ms.append(elapsed * 1000.0)
        self._m_latency.observe(elapsed * 1000.0)
        emit(
            "service.batch_scored",
            n=len(batch),
            spams=n_spams,
            queue_depth=len(queue),
            hour=batch[-1].hour,
        )
        self._arm()

    # -- run loops ---------------------------------------------------------

    def _poll(self, network: PseudoHoneypotNetwork) -> None:
        """Serve the captures the monitor gained since the last poll,
        and run the clock to the platform clock."""
        captured = network.monitor.captured
        fresh = captured[self._cursor :]
        self._cursor = len(captured)
        self._serve(fresh, until=network.engine.clock.now)

    def run_network(
        self, network: PseudoHoneypotNetwork, hours: int
    ) -> ServiceStats:
        """Drive a deployed network for ``hours``, scoring online.

        Each platform hour runs under monitoring, then the service
        serves the hour's captures and every deadline due by the
        platform clock.  At the end the network shuts down (draining
        broken streams — the backfill lands here) and the service
        drains its own queue.

        Raises:
            RuntimeError: if the network was never deployed.
        """
        if not network.deployed:
            raise RuntimeError("deploy() the network before serving it")
        for __ in range(hours):
            network.run_hour()
            self._poll(network)
        network.shutdown()
        self._poll(network)
        self._drain()
        return self.stats()

    def replay(self, captures: list[CapturedTweet]) -> ServiceStats:
        """Score a fixed capture set through the full service loop.

        Orders captures exactly as the batch path does
        (:func:`~repro.core.detector.time_order`), serves each at its
        creation time, and drains — the offline entry point the parity
        tests and the bench workload share.
        """
        # No platform clock to reach: the drain runs what is left.
        self._serve(
            [captures[i] for i in time_order(captures)], until=-math.inf
        )
        self._drain()
        return self.stats()

    # -- accounting --------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Current accounting + latency snapshot for this service."""
        return ServiceStats(
            ingested=self.ingested,
            scored=self.scored,
            dropped=self.dropped,
            in_flight=len(self._queue),
            batches=self.batches,
            spams=len(
                [r for r in self.results if r.is_spam]
            ),
            p50_ms=_nearest_rank(self._latencies_ms, 50),
            p99_ms=_nearest_rank(self._latencies_ms, 99),
            tweets_per_sec=(
                self.scored / self._score_wall_s
                if self._score_wall_s > 0
                else 0.0
            ),
        )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_FLUSH_INTERVAL_S",
    "DEFAULT_QUEUE_CAPACITY",
    "ScoredTweet",
    "ServiceStats",
    "SnifferService",
]
