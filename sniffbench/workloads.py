"""The three sniffer workloads: set-up, timed phase and output checks.

Every workload builds a ``SimulationConfig.medium(seed)`` world with
``workers=0`` and drives the program only through its public API.
``setup`` builds what the timed phase consumes; ``run`` times that
phase with the stopwatch it is handed, then checks the outputs against
the program's accounting identities and, for replay, against the batch
path ``PseudoHoneypotDetector.classify``.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.detector import PseudoHoneypotDetector
from repro.core.experiment import NetworkRun, PseudoHoneypotExperiment
from repro.core.monitor import CapturedTweet
from repro.core.network import PseudoHoneypotNetwork
from repro.core.selection import SelectionPlan
from repro.ml.metrics import f1_score
from repro.obs import get_event_stream
from repro.service.sniffer import ScoredTweet, ServiceStats, SnifferService
from repro.twittersim.config import SimulationConfig
from repro.twittersim.population import GroundTruth


@dataclass(frozen=True)
class Scale:
    """World preset and phase sizes shared by the three workloads."""

    #: ``SimulationConfig`` preset, called with the seed.
    config: Callable[..., SimulationConfig]
    candidate_pool: int
    warmup_hours: int
    #: The set-up detector's ground truth: a random plan of
    #: ``gt_targets`` attributes x ``gt_per_value`` accounts.
    gt_hours: int
    gt_targets: int
    gt_per_value: int
    #: Nodes per attribute value of the full paper plan (10 = 2,400).
    plan_per_value: int
    live_hours: int
    replay_hours: int
    train_hours: int


#: The benchmark world (about 13.6k accounts).  A 20 x 20 ground-truth
#: plan for 7 hours labels 70-170 spams and trains a detector whose F1
#: holds steady across seeds; 10 x 10 for 6 hours labels 15-50, and
#: its F1 swings from 0.78 to 0.96.  Twelve full-plan hours give replay
#: more than 100 full scoring batches; four give train about 10k rows.
BENCH = Scale(
    config=SimulationConfig.medium,
    candidate_pool=6_000,
    warmup_hours=4,
    gt_hours=7,
    gt_targets=20,
    gt_per_value=20,
    plan_per_value=10,
    live_hours=12,
    replay_hours=12,
    train_hours=4,
)

#: A world of a few hundred accounts for the benchmark's own tests.
MICRO = Scale(
    config=SimulationConfig.small,
    candidate_pool=400,
    warmup_hours=2,
    gt_hours=4,
    gt_targets=5,
    gt_per_value=3,
    plan_per_value=1,
    live_hours=3,
    replay_hours=3,
    train_hours=3,
)

#: Replay's flush deadline: beyond any stream's span, so every batch
#: but the last is full.  ``classify`` parity is the service's
#: documented contract only under this condition; the default 900 s
#: deadline cuts partial batches whose environment feedback can flip
#: a verdict.
NO_DEADLINE_S = 1e12


class Stopwatch:
    """Times one timed phase: ``with watch: ...``, then ``watch.wall_s``."""

    def __init__(self) -> None:
        self.start = 0.0
        self.wall_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_s = time.perf_counter() - self.start


class BatchClock:
    """Wall-clock stamps of the service's public ``service.batch_scored``
    events, so batch gaps are timed from outside the service."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def _on_event(self, event) -> None:
        if event.name == "service.batch_scored":
            self.stamps.append(time.perf_counter())

    def __enter__(self) -> "BatchClock":
        get_event_stream().subscribe(self._on_event)
        return self

    def __exit__(self, *exc_info: object) -> None:
        get_event_stream().unsubscribe(self._on_event)

    def gaps_ms(self, start: float) -> list[float]:
        """Gaps between consecutive batches, the first from ``start``."""
        edges = [start, *self.stamps]
        return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


@dataclass
class Outcome:
    """What one timed phase did, and what its checks found."""

    wall_s: float
    #: Work units of the throughput metric: firehose tweets (live),
    #: verdicts (replay) or labeled rows (train).
    work: int
    attempted: int
    #: Captures dropped by the queue plus matches lost by the stream.
    failed: int
    #: F1 of the verdicts (live, replay) or labels (train) against
    #: the world's ground truth.
    f1: float
    #: Hash of the outputs; the same seed must give the same digest.
    digest: str
    problems: list[str] = field(default_factory=list)
    batch_gaps_ms: list[float] = field(default_factory=list)


def digest(*arrays: object) -> str:
    """Short content hash of a few arrays."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def build_world(seed: int, scale: Scale) -> PseudoHoneypotExperiment:
    """The seeded world after its warm-up hours."""
    experiment = PseudoHoneypotExperiment(
        scale.config(seed=seed),
        candidate_pool=scale.candidate_pool,
        workers=0,
    )
    experiment.warm_up(scale.warmup_hours)
    return experiment


def train_setup_detector(
    experiment: PseudoHoneypotExperiment, scale: Scale
) -> PseudoHoneypotDetector:
    """The set-up detector: a random ground-truth plan, labeled and
    trained."""
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    dataset = experiment.label_ground_truth(collection)
    detector = experiment.train_detector(collection, dataset)
    # A deployment compiles the forest once, before it serves.
    detector.classifier.compiled()
    return detector


def verdict_outcome(
    results: list[ScoredTweet], truth: GroundTruth
) -> tuple[float, str]:
    """F1 against the ground truth and digest of a service's verdicts."""
    ids = np.array([r.tweet_id for r in results], dtype=np.int64)
    spam = np.array([r.is_spam for r in results], dtype=bool)
    proba = np.array([r.spam_probability for r in results])
    actual = np.array([truth.is_spam_tweet(int(i)) for i in ids])
    return f1_score(actual, spam), digest(ids, spam, proba)


def service_problems(
    service: SnifferService, stats: ServiceStats, captures: int
) -> list[str]:
    """Broken accounting identities of a drained service."""
    problems = []
    if stats.ingested != captures:
        problems.append(f"ingested {stats.ingested} of {captures} captures")
    if stats.scored + stats.dropped + stats.in_flight != stats.ingested:
        problems.append(f"service accounting does not add up: {stats}")
    if stats.in_flight:
        problems.append(f"{stats.in_flight} in flight after the drain")
    ids = [r.tweet_id for r in service.results]
    if len(set(ids)) != len(ids):
        problems.append("a tweet id was scored twice")
    return problems


@dataclass
class LiveState:
    experiment: PseudoHoneypotExperiment
    detector: PseudoHoneypotDetector


class Live:
    """Deploy the full paper plan and score it online, hour by hour."""

    name = "live"
    #: The timed phase consumes the world's next hours, so every
    #: repetition needs a fresh set-up.
    reusable = False

    def __init__(self, scale: Scale = BENCH) -> None:
        self.scale = scale

    def setup(self, seed: int) -> LiveState:
        experiment = build_world(seed, self.scale)
        return LiveState(
            experiment, train_setup_detector(experiment, self.scale)
        )

    def run(
        self, state: LiveState, watch: Stopwatch, reference: bool
    ) -> Outcome:
        experiment = state.experiment
        network = PseudoHoneypotNetwork(
            experiment.engine,
            experiment.make_selector(seed_offset=29),
            SelectionPlan.full_paper_plan(self.scale.plan_per_value),
        )
        service = SnifferService(state.detector)
        first_hour = len(experiment.engine.hour_stats)
        with BatchClock() as clock, watch:
            network.deploy()
            stats = service.run_network(network, self.scale.live_hours)
        firehose = sum(
            hour.total_tweets
            for hour in experiment.engine.hour_stats[first_hour:]
        )
        problems = service_problems(
            service, stats, len(network.monitor.captured)
        )
        lost = network.recovery.lost
        if lost:
            problems.append(f"the stream lost {lost} matches")
        f1, verdicts = verdict_outcome(
            service.results, experiment.population.truth
        )
        return Outcome(
            wall_s=watch.wall_s,
            work=firehose,
            attempted=stats.ingested,
            failed=stats.dropped + lost,
            f1=f1,
            digest=verdicts,
            problems=problems,
            batch_gaps_ms=clock.gaps_ms(watch.start),
        )


@dataclass
class ReplayState:
    truth: GroundTruth
    detector: PseudoHoneypotDetector
    captures: list[CapturedTweet]


class Replay:
    """Score a recorded full-plan capture stream through the service."""

    name = "replay"
    #: Each repetition serves a fresh copy of the set-up detector.
    reusable = True

    def __init__(self, scale: Scale = BENCH) -> None:
        self.scale = scale

    def setup(self, seed: int) -> ReplayState:
        experiment = build_world(seed, self.scale)
        detector = train_setup_detector(experiment, self.scale)
        recorded = experiment.run_full_network(
            hours=self.scale.replay_hours,
            per_value=self.scale.plan_per_value,
        )
        return ReplayState(
            experiment.population.truth, detector, recorded.captures
        )

    def run(
        self, state: ReplayState, watch: Stopwatch, reference: bool
    ) -> Outcome:
        service = SnifferService(
            copy.deepcopy(state.detector), flush_interval_s=NO_DEADLINE_S
        )
        with BatchClock() as clock, watch:
            stats = service.replay(state.captures)
        problems = service_problems(service, stats, len(state.captures))
        if reference:
            problems.extend(self.differs_from_classify(state, service))
        f1, verdicts = verdict_outcome(service.results, state.truth)
        return Outcome(
            wall_s=watch.wall_s,
            work=stats.scored,
            attempted=stats.ingested,
            failed=stats.dropped,
            f1=f1,
            digest=verdicts,
            problems=problems,
            batch_gaps_ms=clock.gaps_ms(watch.start),
        )

    @staticmethod
    def differs_from_classify(
        state: ReplayState, service: SnifferService
    ) -> list[str]:
        """The batch path's verdicts must equal the service's bitwise."""
        batch = copy.deepcopy(state.detector).classify(
            state.captures, chunk_size=service.batch_size
        )
        ids = [r.tweet_id for r in service.results]
        if ids != [c.tweet.tweet_id for c in batch.captures]:
            return ["verdicts are not in classify's order"]
        verdicts = np.array(
            [r.is_spam for r in service.results], dtype=np.int64
        )
        differing = int(np.sum(verdicts != batch.is_spam))
        if differing:
            return [f"{differing} verdicts differ from classify"]
        return []


@dataclass
class TrainState:
    experiment: PseudoHoneypotExperiment
    recorded: NetworkRun


class Train:
    """Label a recorded full-plan capture stream and fit the forest."""

    name = "train"
    #: Labeling and training only read the world.
    reusable = True

    def __init__(self, scale: Scale = BENCH) -> None:
        self.scale = scale

    def setup(self, seed: int) -> TrainState:
        experiment = build_world(seed, self.scale)
        recorded = experiment.run_full_network(
            hours=self.scale.train_hours,
            per_value=self.scale.plan_per_value,
        )
        return TrainState(experiment, recorded)

    def run(
        self, state: TrainState, watch: Stopwatch, reference: bool
    ) -> Outcome:
        experiment = state.experiment
        with watch:
            dataset = experiment.label_ground_truth(state.recorded)
            detector = experiment.train_detector(state.recorded, dataset)
        problems = []
        ids = [tweet.tweet_id for tweet in dataset.tweets]
        captured = [c.tweet.tweet_id for c in state.recorded.captures]
        if sorted(ids) != sorted(captured) or len(
            dataset.tweet_labels
        ) != len(captured):
            problems.append("labels do not map one to one onto captures")
        if not detector.fitted:
            problems.append("the detector is not fitted")
        truth = experiment.population.truth
        actual = np.array([truth.is_spam_tweet(i) for i in ids])
        return Outcome(
            wall_s=watch.wall_s,
            work=dataset.n_tweets,
            attempted=dataset.n_tweets,
            failed=0,
            f1=f1_score(actual, dataset.tweet_labels),
            digest=digest(
                np.array(ids, dtype=np.int64),
                dataset.tweet_labels,
                detector.classifier.feature_importances(),
            ),
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (Live, Replay, Train)}
