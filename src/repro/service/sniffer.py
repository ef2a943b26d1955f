"""The always-on sniffer service: async ingestion + online scoring.

Turns the batch pipeline (select → monitor → label → train →
classify) into a long-running deployment shape: captured tweets flow
through a bounded ingestion queue on a virtual-clock scheduler, and
each flushed batch goes through the detector's one scoring kernel,
:meth:`PseudoHoneypotDetector.score` — extraction against the
service's long-lived extractor, compiled-forest inference, and the
environment-score feedback exactly as live collection would.

Semantics contract with the batch path: a zero-fault service run over
a fixed capture set, with ``batch_size`` equal to ``classify``'s
``chunk_size`` and the flush deadline out of reach, produces verdicts
**bitwise-identical** to :meth:`PseudoHoneypotDetector.classify`.
Both order captures with :func:`~repro.core.detector.time_order` and
score them through the same kernel, so only the chunk boundaries could
differ, and under that condition they do not.
``tests/service/test_service.py`` and ``tests/golden`` pin this,
including at every worker count.

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
from dataclasses import dataclass

from ..core.detector import (
    SPAM_THRESHOLD,
    PseudoHoneypotDetector,
    time_order,
)
from ..core.monitor import CapturedTweet
from ..core.network import PseudoHoneypotNetwork
from ..features.extractor import FeatureExtractor
from ..obs import emit, get_registry
from .queues import BoundedQueue
from .scheduler import EventScheduler

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
    holds at every instant; after :meth:`SnifferService.drain`,
    ``in_flight`` is zero.
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
        # ``not > 0`` also refuses NaN, whose deadlines would break the
        # scheduler's heap order.
        if not flush_interval_s > 0:
            raise ValueError(
                f"flush_interval_s must be > 0, got {flush_interval_s!r}"
            )
        self.detector = detector
        self.batch_size = batch_size
        self.flush_interval_s = float(flush_interval_s)
        self.extractor = FeatureExtractor(environment=detector.environment)
        self.scheduler = EventScheduler()
        self.queue: BoundedQueue[CapturedTweet] = BoundedQueue(
            queue_capacity
        )
        #: Verdicts in scoring order.
        self.results: list[ScoredTweet] = []
        #: Senders of at least one confirmed spam.
        self.spammer_ids: set[int] = set()
        self.ingested = 0
        self.dropped = 0
        self.scored = 0
        self.batches = 0
        self._cursor = 0
        self._flush_scheduled = False
        self._deadline_scheduled = False
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

    # -- ingestion ---------------------------------------------------------

    def ingest(self, capture: CapturedTweet) -> None:
        """Schedule one capture's arrival on the virtual clock.

        Arrivals land at the tweet's creation time, clamped forward to
        *now* for late deliveries (reconnect backfills).
        """
        self.scheduler.schedule(
            capture.tweet.created_at,
            "service.arrival",
            lambda: self._arrive(capture),
        )

    def _arrive(self, capture: CapturedTweet) -> None:
        self.ingested += 1
        self._m_ingested.inc()
        if not self.queue.offer(capture):
            self.dropped += 1
            self._m_dropped.inc()
            emit(
                "service.overflow",
                hour=capture.hour,
                tweet_id=capture.tweet.tweet_id,
                depth=self.queue.depth,
            )
            return
        self._m_depth.set(self.queue.depth)
        self._schedule_scoring()

    def _schedule_scoring(self) -> None:
        """Keep exactly one flush path armed for the queued work."""
        if self.queue.depth >= self.batch_size:
            if not self._flush_scheduled:
                self._flush_scheduled = True
                self.scheduler.schedule(
                    self.scheduler.now, "service.flush", self._flush_full
                )
        elif self.queue.depth and not self._deadline_scheduled:
            self._deadline_scheduled = True
            self.scheduler.schedule(
                self.scheduler.now + self.flush_interval_s,
                "service.flush_deadline",
                self._flush_deadline,
            )

    def _flush_full(self) -> None:
        self._flush_scheduled = False
        self._flush()

    def _flush_deadline(self) -> None:
        self._deadline_scheduled = False
        if self.queue.depth:
            self._flush()

    # -- scoring -----------------------------------------------------------

    def _flush(self) -> None:
        batch = self.queue.take(self.batch_size)
        if not batch:
            return
        start = time.perf_counter()
        # Confirmed spams reach the environment inside ``score``,
        # before the next batch extracts — classify()'s cadence.
        __, p_spam = self.detector.score(self.extractor, batch)
        elapsed = time.perf_counter() - start
        n_spams = 0
        for capture, p in zip(batch, p_spam):
            spam = bool(p >= SPAM_THRESHOLD)
            self.results.append(
                ScoredTweet(
                    tweet_id=capture.tweet.tweet_id,
                    sender_id=capture.sender_id,
                    hour=capture.hour,
                    spam_probability=float(p),
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
        self._m_depth.set(self.queue.depth)
        self._score_wall_s += elapsed
        self._latencies_ms.append(elapsed * 1000.0)
        self._m_latency.observe(elapsed * 1000.0)
        emit(
            "service.batch_scored",
            n=len(batch),
            spams=n_spams,
            queue_depth=self.queue.depth,
            hour=batch[-1].hour,
        )
        self._schedule_scoring()

    # -- run loops ---------------------------------------------------------

    def poll(self, network: PseudoHoneypotNetwork) -> int:
        """Ingest captures the monitor gained since the last poll.

        Advances the virtual clock to the platform clock, so every
        arrival due by now is scored or queued.  Returns how many new
        captures were ingested.
        """
        captured = network.monitor.captured
        fresh = captured[self._cursor :]
        self._cursor = len(captured)
        for capture in fresh:
            self.ingest(capture)
        self.scheduler.run_until(network.engine.clock.now)
        return len(fresh)

    def run_network(
        self, network: PseudoHoneypotNetwork, hours: int
    ) -> ServiceStats:
        """Drive a deployed network for ``hours``, scoring online.

        Each platform hour runs under monitoring, then the service
        ingests the hour's captures and scores every due batch.  At
        the end the network shuts down (draining broken streams — the
        backfill lands here) and the service drains its own queue.

        Raises:
            RuntimeError: if the network was never deployed.
        """
        if not network.deployed:
            raise RuntimeError("deploy() the network before serving it")
        for __ in range(hours):
            network.run_hour()
            self.poll(network)
        network.shutdown()
        self.poll(network)
        self.drain()
        return self.stats()

    def replay(self, captures: list[CapturedTweet]) -> ServiceStats:
        """Score a fixed capture set through the full service loop.

        Orders captures exactly as the batch path does
        (:func:`~repro.core.detector.time_order`), schedules each
        arrival at its creation time, and drains — the offline entry
        point the parity tests and the bench workload share.
        """
        for i in time_order(captures):
            self.ingest(captures[i])
        self.scheduler.run_all()
        self.drain()
        return self.stats()

    def drain(self) -> None:
        """Run every pending event, then flush until the queue is empty."""
        self.scheduler.run_all()
        while self.queue.depth:
            self._flush()

    # -- accounting --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Accepted but not yet scored (current queue depth)."""
        return self.queue.depth

    def stats(self) -> ServiceStats:
        """Current accounting + latency snapshot for this service."""
        return ServiceStats(
            ingested=self.ingested,
            scored=self.scored,
            dropped=self.dropped,
            in_flight=self.in_flight,
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
