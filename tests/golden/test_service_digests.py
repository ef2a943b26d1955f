"""Golden digests of the service's batching: arrivals, deadlines, drops.

``test_scoring_digests.py`` pins one replay with the flush deadline out
of reach, where every batch but the last is full.  These cases pin what
the service's own clock decides: where a batch closes, which arrivals
overflow the queue, and in which order a deadline, a full batch and the
arrivals of one instant are served.  Each case records:

* ``results`` — (tweet id, verdict, spam probability) in scoring order;
* ``batches`` — the batch sizes of the ``service.batch_scored`` events;
* ``dropped`` — the tweet ids of the ``service.overflow`` events;
* ``stats`` — the ``ServiceStats`` counts (no timings).

Cases:

* ``replay/b<B>/cap<C>/flush<F>`` — ``replay`` of the tiny seed-3
  full-plan sweep (the ``tiny/seed3`` world of the scoring digests,
  with its detector trained the same way) at batch size ``B``, queue
  capacity ``C`` and flush deadline ``F`` seconds.  At 3600 s, seven
  deadlines over the four cases fall on an instant that also has
  arrivals.  A capacity under the batch size never fills a batch.
* ``network/seed19`` — ``run_network`` for 3 hours on a small world
  whose stream breaks in the last monitored hour and cannot reconnect
  (``tests/chaos/test_resilience.py::TestBrokenAtShutdown``), so
  shutdown backfills captures stamped before the service clock.

Two hand-made streams then pin the order of one instant literally.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools

import pytest

from repro.analysis.bench import workload_scale
from repro.core import PseudoHoneypotDetector, PseudoHoneypotExperiment
from repro.core.network import PseudoHoneypotNetwork
from repro.core.portability import ActivityPolicy
from repro.core.selection import AttributeSelector, SelectionPlan
from repro.faults import (
    BackoffConfig,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)
from repro.obs import get_event_stream, is_enabled, set_enabled
from repro.obs.ledger import stable_digest
from repro.service.sniffer import SnifferService
from repro.service.soak import synthetic_detector
from repro.twittersim.api.rest import RestClient
from repro.twittersim.config import SimulationConfig
from repro.twittersim.engine import TwitterEngine
from repro.twittersim.population import build_population

#: Shutdown-broken stream: disconnected at 30% of monitored hour 4,
#: and the end-of-hour reconnect (clock hour 5) is refused.
BROKEN_AT_SHUTDOWN = FaultPlan(
    (
        ScheduledFault(
            hour=4, kind=FaultKind.STREAM_DISCONNECT, at_fraction=0.3
        ),
        ScheduledFault(hour=5, kind=FaultKind.FILTER_LIMIT, count=1),
    )
)


@functools.cache
def replay_world() -> tuple[PseudoHoneypotDetector, list]:
    """The trained detector and sweep captures of tiny seed 3."""
    scale = workload_scale("tiny", seed=3)
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=0
    )
    experiment.warm_up(scale.warmup_hours)
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    dataset = experiment.label_ground_truth(collection)
    detector = PseudoHoneypotDetector().fit_from_ground_truth(
        collection.captures, dataset
    )
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    return detector, sweep.captures


def broken_network(seed: int) -> PseudoHoneypotNetwork:
    """A deployed small-world network under ``BROKEN_AT_SHUTDOWN``."""
    engine = TwitterEngine(build_population(SimulationConfig.small(seed)))
    engine.install_fault_injector(
        FaultInjector(BROKEN_AT_SHUTDOWN, seed=seed)
    )
    engine.run_hours(2)
    network = PseudoHoneypotNetwork(
        engine,
        AttributeSelector(
            RestClient(engine),
            candidate_pool=400,
            activity=ActivityPolicy(window_hours=6.0),
            seed=seed,
        ),
        SelectionPlan.random_plan(4, 3, seed=seed + 17),
        switch_every_hours=1,
        retry_policy=RetryPolicy(
            seed=seed, default=BackoffConfig(max_attempts=1)
        ),
    )
    network.deploy()
    return network


@contextlib.contextmanager
def service_events():
    """Batch sizes and dropped tweet ids the service announces."""
    batches: list[int] = []
    dropped: list[int] = []

    def record(event) -> None:
        if event.name == "service.batch_scored":
            batches.append(event.attributes["n"])
        elif event.name == "service.overflow":
            dropped.append(event.attributes["tweet_id"])

    stream = get_event_stream()
    was_enabled = is_enabled()
    set_enabled(True)
    stream.subscribe(record)
    try:
        yield batches, dropped
    finally:
        stream.unsubscribe(record)
        set_enabled(was_enabled)


def compute(case: str) -> dict[str, str]:
    """Fresh artifact digests of one golden case."""
    kind, *params = case.split("/")
    with service_events() as (batches, dropped):
        if kind == "replay":
            batch, capacity, flush = params
            detector, captures = replay_world()
            service = SnifferService(
                copy.deepcopy(detector),
                batch_size=int(batch.removeprefix("b")),
                queue_capacity=int(capacity.removeprefix("cap")),
                flush_interval_s=float(flush.removeprefix("flush")),
            )
            stats = service.replay(captures)
        else:
            seed = int(params[0].removeprefix("seed"))
            service = SnifferService(
                synthetic_detector(seed=seed), batch_size=16
            )
            stats = service.run_network(broken_network(seed), 3)
    return {
        "results": stable_digest(
            [
                [r.tweet_id, r.is_spam, r.spam_probability]
                for r in service.results
            ]
        ),
        "batches": stable_digest(batches),
        "dropped": stable_digest(dropped),
        "stats": stable_digest(
            [
                stats.ingested,
                stats.scored,
                stats.dropped,
                stats.in_flight,
                stats.batches,
                stats.spams,
            ]
        ),
    }


GOLDEN: dict[str, dict[str, str]] = {
    "replay/b7/cap4/flush60": {
        "results": "1fdfe94ab2d5",
        "batches": "c4162607ea5f",
        "dropped": "ec2023d8b404",
        "stats": "4fd3c6eeaa01"
    },
    "replay/b7/cap4/flush3600": {
        "results": "fecc097d1bc1",
        "batches": "144c8475fc21",
        "dropped": "9a47973225a2",
        "stats": "62ce088cad34"
    },
    "replay/b7/cap4/flush1e+12": {
        "results": "1a6488ed03e1",
        "batches": "d0f77d8fb469",
        "dropped": "62bbe4e2daad",
        "stats": "71aae9a91cb8"
    },
    "replay/b7/cap4096/flush60": {
        "results": "66590f9650fb",
        "batches": "c3f2d2cc1c6e",
        "dropped": "718575762574",
        "stats": "0c412c1e5504"
    },
    "replay/b7/cap4096/flush3600": {
        "results": "0ece37598601",
        "batches": "9cbab0f62608",
        "dropped": "718575762574",
        "stats": "35a92bd8eb8e"
    },
    "replay/b7/cap4096/flush1e+12": {
        "results": "cf007feb7660",
        "batches": "29a085d8cd20",
        "dropped": "718575762574",
        "stats": "b7e5be45d8ee"
    },
    "replay/b256/cap4/flush60": {
        "results": "1fdfe94ab2d5",
        "batches": "c4162607ea5f",
        "dropped": "ec2023d8b404",
        "stats": "4fd3c6eeaa01"
    },
    "replay/b256/cap4/flush3600": {
        "results": "fecc097d1bc1",
        "batches": "144c8475fc21",
        "dropped": "9a47973225a2",
        "stats": "62ce088cad34"
    },
    "replay/b256/cap4/flush1e+12": {
        "results": "1a6488ed03e1",
        "batches": "d0f77d8fb469",
        "dropped": "62bbe4e2daad",
        "stats": "71aae9a91cb8"
    },
    "replay/b256/cap4096/flush60": {
        "results": "9f97768f0dca",
        "batches": "ddec8e0394e5",
        "dropped": "718575762574",
        "stats": "31b68502ce7b"
    },
    "replay/b256/cap4096/flush3600": {
        "results": "d4bb3514aec5",
        "batches": "456962d0de62",
        "dropped": "718575762574",
        "stats": "991d85082d90"
    },
    "replay/b256/cap4096/flush1e+12": {
        "results": "62855505fdc0",
        "batches": "dab1b8dcf9eb",
        "dropped": "718575762574",
        "stats": "5869c451a14b"
    },
    "network/seed19": {
        "results": "e0dc12fa9464",
        "batches": "5149fc9daa94",
        "dropped": "718575762574",
        "stats": "3706a38f509b"
    }
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_service_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]


def batch_sizes(offsets: list[int], batch_size: int) -> list[int]:
    """Batch sizes of a replay whose arrivals land at ``1000 + offsets``
    seconds, at a 10 s flush deadline."""
    __, captures = replay_world()
    stream = [
        dataclasses.replace(
            capture,
            tweet=dataclasses.replace(
                capture.tweet, created_at=1_000.0 + offset
            ),
        )
        for capture, offset in zip(captures, offsets)
    ]
    service = SnifferService(
        synthetic_detector(), batch_size=batch_size, flush_interval_s=10.0
    )
    with service_events() as (batches, __):
        service.replay(stream)
    return batches


def test_deadline_on_an_instant_goes_before_its_full_batch():
    # At 1010 two arrivals fill a batch and leave 5 queued.  Then the
    # deadline the first arrival armed falls due and scores 4, and the
    # full batch that was waiting scores the 1 left.
    assert batch_sizes([0, 0, 0, 10, 10, 15, 40], 4) == [4, 1, 1, 1]


def test_arrivals_go_before_a_deadline_at_their_instant():
    # Five arrivals at 1005 score a batch of 3 and leave 2 queued under
    # the deadline the first of them armed, due at 1015.  The two
    # arrivals at 1015 join the queue before that deadline scores 3;
    # the full batch that was waiting scores the 1 left.
    assert batch_sizes([5, 5, 5, 5, 5, 15, 15, 16, 30], 3) == [3, 3, 1, 1, 1]
