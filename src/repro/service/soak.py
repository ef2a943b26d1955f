"""Chaos soak harness: the always-on service under fault plans.

Runs the full service loop — monitored network, fault injector,
bounded-queue ingestion, online scoring, health watchdog — against a
seeded small world through :meth:`SnifferService.run_network`, and
audits the outcome against the firehose ground truth.  The PR 5 chaos
invariant, extended to the service::

    scored + dropped + lost + in_flight == ground truth

where ``lost`` is the network's exact gap-loss accounting and
``dropped`` is the service's explicit overflow count.  Nothing is ever
double-scored (the monitor dedups, the service cursor never re-reads).

Lives in the package (not ``tests/``) so ``scripts/check.sh``'s soak
lane, the chaos test sweep, and ad-hoc debugging all share one
harness.  Detection *quality* is out of scope here — the detector is
fitted on a seeded synthetic matrix, which keeps a 15-run sweep
seconds-cheap while exercising the identical scoring path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..core.detector import PseudoHoneypotDetector
from ..core.network import PseudoHoneypotNetwork
from ..core.portability import ActivityPolicy
from ..core.selection import AttributeSelector, SelectionPlan
from ..faults import BackoffConfig, FaultInjector, FaultPlan, RetryPolicy
from ..features.schema import N_FEATURES
from ..ml.forest import RandomForestClassifier
from ..obs import get_registry, reset, set_enabled
from ..obs.health import HealthEngine
from ..twittersim.api.rest import RestClient
from ..twittersim.config import SimulationConfig
from ..twittersim.engine import TwitterEngine
from ..twittersim.entities import Tweet
from ..twittersim.population import build_population
from .health import service_rules
from .sniffer import SnifferService

#: Unmonitored hours before deploy (trending/timelines populate).
WARM_UP_HOURS = 2

#: Counter prefix the injector bumps per fault kind.
_INJECTED_PREFIX = "faults.injected."


def synthetic_detector(
    seed: int = 0,
    n_estimators: int = 8,
    max_depth: int = 8,
    workers: int | None = 0,
) -> PseudoHoneypotDetector:
    """A fitted detector on seeded synthetic features — fast and
    deterministic.

    The soak judges queueing and fault invariants, not verdict
    quality; a small forest on a random-but-learnable matrix runs the
    identical inference path in milliseconds.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(256, N_FEATURES))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    classifier = RandomForestClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        seed=seed,
        workers=workers,
    )
    classifier.fit(X, y)
    return PseudoHoneypotDetector.from_fitted_classifier(classifier)


@dataclass(frozen=True)
class SoakOutcome:
    """One audited service-under-faults run."""

    seed: int
    hours: int
    n_faults: int
    injected_kinds: tuple[str, ...]
    ground_truth: int
    scored: int
    dropped: int
    lost: int
    in_flight: int
    duplicate_scores: int
    alerts_fired: tuple[str, ...]
    p99_ms: float
    tweets_per_sec: float

    @property
    def reconciled(self) -> bool:
        """Whether the extended chaos invariant holds."""
        return (
            self.duplicate_scores == 0
            and self.scored + self.dropped + self.lost + self.in_flight
            == self.ground_truth
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready record (the soak log line)."""
        record = asdict(self)
        record["injected_kinds"] = list(self.injected_kinds)
        record["alerts_fired"] = list(self.alerts_fired)
        record["reconciled"] = self.reconciled
        return record


class _FirehoseTap:
    """Ground-truth recorder: tweets crossing the current node set.

    Subscribed upstream of any injected stream fault (duplicate
    deliveries and drops never reach the firehose), it counts exactly
    the tweets a fault-free monitor would capture once each.
    """

    def __init__(self, network: PseudoHoneypotNetwork) -> None:
        self._network = network
        self.tweet_ids: list[int] = []

    def __call__(self, tweet: Tweet) -> None:
        names = {
            node.screen_name for node in self._network.current_nodes
        }
        if tweet.user.screen_name in names or any(
            m.screen_name in names for m in tweet.mentions
        ):
            self.tweet_ids.append(tweet.tweet_id)


def run_service_soak(
    seed: int,
    plan: FaultPlan,
    hours: int = 5,
    warm_up_hours: int = WARM_UP_HOURS,
    queue_capacity: int = 4_096,
    batch_size: int = 32,
    flush_interval_s: float = 1_800.0,
) -> SoakOutcome:
    """One full service soak run: world, faults, service, audit.

    Resets the global observability state (the run owns the process
    telemetry), builds a seeded small world with the fault plan
    installed, deploys an attribute-selected network, serves ``hours``
    monitored hours online under the service health pack, then drains
    and reconciles against the firehose ground truth.

    A final unmonitored "settle" hour ticks the health engine once
    more, so service events emitted after the last monitored hour
    (shutdown drain, final flushes) are still judged.
    """
    reset()
    set_enabled(True)
    config = SimulationConfig.small(seed=seed)
    population = build_population(config)
    engine = TwitterEngine(population)
    injector = FaultInjector(plan, seed=seed)
    engine.install_fault_injector(injector)
    engine.run_hours(warm_up_hours)
    rest = RestClient(engine)
    selector = AttributeSelector(
        rest,
        candidate_pool=400,
        activity=ActivityPolicy(window_hours=6.0),
        seed=seed,
    )
    network = PseudoHoneypotNetwork(
        engine,
        selector,
        SelectionPlan.random_plan(4, 3, seed=seed + 17),
        switch_every_hours=1,
        # An always-on deployment waits out deploy-time rate limits
        # instead of crashing: heavy sweep plans can burst-limit the
        # selection queries past the default six attempts.
        retry_policy=RetryPolicy(
            seed=seed, default=BackoffConfig(max_attempts=12)
        ),
    )
    network.deploy()
    tap = _FirehoseTap(network)
    engine.subscribe(tap)
    detector = synthetic_detector(seed=seed + 1)
    service = SnifferService(
        detector,
        queue_capacity=queue_capacity,
        batch_size=batch_size,
        flush_interval_s=flush_interval_s,
    )
    with HealthEngine(rules=service_rules()) as health:
        stats = service.run_network(network, hours)
        engine.unsubscribe(tap)
        # Settle tick: hour_completed fires once more so the tail of
        # service events lands in a judged HourHealth record.
        engine.run_hour()

    scored_ids = [r.tweet_id for r in service.results]
    injected = get_registry().counter_values(_INJECTED_PREFIX)
    kinds = tuple(
        sorted(
            name[len(_INJECTED_PREFIX) :]
            for name, count in injected.items()
            if count
        )
    )
    return SoakOutcome(
        seed=seed,
        hours=hours,
        n_faults=len(plan.faults),
        injected_kinds=kinds,
        ground_truth=len(set(tap.tweet_ids)),
        scored=stats.scored,
        dropped=stats.dropped,
        lost=int(network.recovery.lost),
        in_flight=stats.in_flight,
        duplicate_scores=len(scored_ids) - len(set(scored_ids)),
        alerts_fired=tuple(
            sorted({i.rule for i in health.incidents.incidents})
        ),
        p99_ms=round(stats.p99_ms, 3),
        tweets_per_sec=round(stats.tweets_per_sec, 1),
    )


__all__ = [
    "SoakOutcome",
    "WARM_UP_HOURS",
    "run_service_soak",
    "synthetic_detector",
]
