"""SnifferService semantics: batch parity, backpressure, lazy metrics.

The headline contract (DESIGN.md §15): a zero-fault service run over a
fixed capture set, with ``batch_size`` equal to ``classify``'s
``chunk_size`` and the flush deadline out of reach, is **bitwise
identical** to :meth:`PseudoHoneypotDetector.classify` — same verdicts,
same ordering, same spammer set, same feature rows, same probabilities
— at every worker count (workers only parallelize fitting, and fitted
trees are worker-invariant by the parallel layer's contract).
"""

from __future__ import annotations

import gc
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.detector import PseudoHoneypotDetector
from repro.core.network import PseudoHoneypotNetwork
from repro.core.portability import ActivityPolicy
from repro.core.selection import AttributeSelector, SelectionPlan
from repro.features.extractor import FeatureExtractor
from repro.obs import get_event_stream, get_registry, reset
from repro.service.sniffer import ScoredTweet, SnifferService
from repro.service.soak import synthetic_detector
from repro.twittersim.api.rest import RestClient
from repro.twittersim.config import SimulationConfig
from repro.twittersim.engine import TwitterEngine
from repro.twittersim.population import build_population

#: Small enough that the fixture stream spans several batches.
BATCH = 16


def make_service(seed: int = 3, **kwargs) -> SnifferService:
    defaults = dict(
        batch_size=BATCH,
        flush_interval_s=1e12,
        queue_capacity=100_000,
    )
    defaults.update(kwargs)
    return SnifferService(synthetic_detector(seed=seed), **defaults)


def reference_scoring(captures, detector, chunk_size):
    """The scoring semantics spelled out: chunked rows, probabilities
    and feedback, written independently of the detector's kernel."""
    order = np.argsort([c.tweet.created_at for c in captures], kind="stable")
    ordered = [captures[i] for i in order]
    extractor = FeatureExtractor(environment=detector.environment)
    rows, probas = [], []
    for start in range(0, len(ordered), chunk_size):
        chunk = ordered[start : start + chunk_size]
        X = np.empty((len(chunk), 58))
        for i, capture in enumerate(chunk):
            X[i] = extractor.extract(
                capture.tweet, capture.attribute_keys, capture.node_user_ids
            )
        proba = np.asarray(detector.classifier.predict_proba(X))[:, 1]
        for capture, p in zip(chunk, proba):
            if p >= 0.5:
                detector.environment.record_spam(capture.attribute_keys)
        rows.append(X)
        probas.append(proba)
    return ordered, np.vstack(rows), np.concatenate(probas)


class TestBatchParity:
    def test_verdicts_match_classify(self, capture_stream):
        outcome = synthetic_detector(seed=3).classify(
            capture_stream, chunk_size=BATCH
        )
        service = make_service(seed=3)
        service.replay(capture_stream)
        assert np.array_equal(
            outcome.is_spam,
            np.array(
                [int(r.is_spam) for r in service.results], dtype=np.int64
            ),
        )
        assert [c.tweet.tweet_id for c in outcome.captures] == [
            r.tweet_id for r in service.results
        ]
        assert outcome.spammer_ids == service.spammer_ids

    def test_parity_at_classify_default_chunk(self, capture_stream):
        outcome = synthetic_detector(seed=3).classify(capture_stream)
        service = make_service(seed=3, batch_size=2_000)
        service.replay(capture_stream)
        assert np.array_equal(
            outcome.is_spam,
            np.array(
                [int(r.is_spam) for r in service.results], dtype=np.int64
            ),
        )

    def test_feature_rows_and_probabilities_bitwise(
        self, capture_stream, monkeypatch
    ):
        reference = synthetic_detector(seed=3)
        __, X_ref, proba_ref = reference_scoring(
            capture_stream, reference, BATCH
        )
        scored = []
        score = PseudoHoneypotDetector.score

        def spy(detector, extractor, chunk):
            scored.append(score(detector, extractor, chunk))
            return scored[-1]

        monkeypatch.setattr(PseudoHoneypotDetector, "score", spy)
        service = make_service(seed=3)
        service.replay(capture_stream)
        assert len(scored) == service.batches
        assert np.array_equal(X_ref, np.vstack([X for X, __, __ in scored]))
        assert np.array_equal(
            proba_ref, np.concatenate([p for __, p, __ in scored])
        )
        assert np.array_equal(
            proba_ref,
            np.array([r.spam_probability for r in service.results]),
        )
        assert [r.is_spam for r in service.results] == [
            spam for __, __, flags in scored for spam in flags
        ]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parity_across_worker_counts(self, capture_stream, workers):
        sequential = make_service(seed=3)
        sequential.replay(capture_stream)
        parallel = SnifferService(
            synthetic_detector(seed=3, workers=workers),
            batch_size=BATCH,
            flush_interval_s=1e12,
            queue_capacity=100_000,
        )
        parallel.replay(capture_stream)
        assert sequential.results == parallel.results
        assert sequential.spammer_ids == parallel.spammer_ids

    def test_replay_is_deterministic(self, capture_stream):
        runs = []
        for __ in range(2):
            reset()
            service = make_service(seed=3)
            service.replay(capture_stream)
            batches = [
                event.attributes
                for event in get_event_stream().events(
                    "service.batch_scored"
                )
            ]
            assert len(batches) == service.batches > 1
            runs.append((service.results, batches))
        assert runs[0] == runs[1]


class TestAccounting:
    def test_ingestion_identity_after_drain(self, capture_stream):
        stats = make_service().replay(capture_stream)
        assert stats.ingested == len(capture_stream)
        assert stats.ingested == stats.scored + stats.dropped
        assert stats.in_flight == 0

    def test_overflow_drops_are_counted_and_announced(
        self, capture_stream
    ):
        stats = make_service(
            queue_capacity=4, batch_size=64, flush_interval_s=1e12
        ).replay(capture_stream)
        assert stats.dropped > 0
        assert stats.ingested == stats.scored + stats.dropped
        overflows = get_event_stream().events("service.overflow")
        assert len(overflows) == stats.dropped
        assert stats.in_flight == 0

    def test_overflow_refuses_only_a_full_queue(self, capture_stream):
        # Deadlines empty the queue between bursts, so it is not always
        # full; an arrival is refused only when it is.
        stats = make_service(
            queue_capacity=4, batch_size=64, flush_interval_s=3_600.0
        ).replay(capture_stream)
        overflows = get_event_stream().events("service.overflow")
        assert 0 < stats.dropped == len(overflows)
        assert stats.batches > 1
        assert {event.attributes["depth"] for event in overflows} == {4}

    def test_deadline_scores_partial_batches(self, capture_stream):
        service = make_service(batch_size=1_000, flush_interval_s=60.0)
        stats = service.replay(capture_stream)
        assert stats.scored == len(capture_stream)
        assert stats.batches > 1  # deadline fired mid-stream

    def test_latency_stats_populate(self, capture_stream):
        stats = make_service().replay(capture_stream)
        assert stats.batches >= 2
        assert stats.p99_ms >= stats.p50_ms > 0.0
        assert stats.tweets_per_sec > 0.0

    def test_scored_tweets_carry_capture_identity(self, capture_stream):
        service = make_service()
        service.replay(capture_stream)
        by_id = {c.tweet.tweet_id: c for c in capture_stream}
        for result in service.results:
            capture = by_id[result.tweet_id]
            assert isinstance(result, ScoredTweet)
            assert result.sender_id == capture.sender_id
            assert result.hour == capture.hour
            assert result.backfilled == capture.backfilled


class TestConstruction:
    def test_unfitted_detector_is_rejected(self):
        with pytest.raises(RuntimeError, match="fit"):
            SnifferService(PseudoHoneypotDetector())

    def test_invalid_parameters_are_rejected(self):
        detector = synthetic_detector()
        with pytest.raises(ValueError):
            SnifferService(detector, batch_size=0)
        with pytest.raises(ValueError):
            SnifferService(detector, flush_interval_s=0.0)
        with pytest.raises(ValueError):
            SnifferService(detector, queue_capacity=0)

    def test_nan_flush_interval_is_rejected(self):
        # A NaN deadline compares false with every arrival instant, so
        # it would fall due only at the drain, moving batch boundaries
        # silently.
        with pytest.raises(ValueError, match="flush_interval_s"):
            SnifferService(synthetic_detector(), flush_interval_s=math.nan)

    def test_infinite_flush_interval_is_accepted(self):
        service = SnifferService(
            synthetic_detector(), flush_interval_s=math.inf
        )
        assert service.flush_interval_s == math.inf

    @pytest.mark.parametrize("option", ["batch_size", "queue_capacity"])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_non_int_sizes_are_rejected(self, option, value):
        with pytest.raises(ValueError, match=option):
            SnifferService(synthetic_detector(), **{option: value})


def run_fresh(program: str) -> str:
    """Run ``program`` in a fresh interpreter; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(pathlib.Path(__file__).resolve().parents[2]),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestLazyMetrics:
    def test_core_loads_no_service_module(self):
        # The scoring kernel and the extractor live below the service
        # layer: the batch pipeline runs without it.
        program = (
            "import sys\n"
            "import repro.core\n"
            "print([m for m in sys.modules\n"
            "       if m.split('.')[:2] == ['repro', 'service']])\n"
        )
        assert run_fresh(program) == "[]"

    def test_no_service_metrics_until_a_service_exists(self):
        # Registered instrument names survive obs.reset() (identity is
        # kept so cached references stay wired), so the only honest
        # check is a fresh interpreter: building detectors and
        # extractors must not register any service.* instrument; the
        # first SnifferService must register them all.
        program = (
            "from repro.obs import get_registry\n"
            "from repro.features.extractor import FeatureExtractor\n"
            "from repro.service.soak import synthetic_detector\n"
            "from repro.service.sniffer import SnifferService\n"
            "detector = synthetic_detector()\n"
            "FeatureExtractor()\n"
            "assert not get_registry().counter_values('service')\n"
            "SnifferService(detector)\n"
            "names = set(get_registry().counter_values('service'))\n"
            "assert {'service.ingested', 'service.scored',\n"
            "        'service.dropped', 'service.batches'} <= names\n"
            "print('OK')\n"
        )
        assert run_fresh(program) == "OK"

    def test_counters_mirror_service_accounting(self, capture_stream):
        service = make_service(queue_capacity=4, batch_size=64)
        stats = service.replay(capture_stream)
        counters = get_registry().counter_values("service")
        assert counters["service.ingested"] == stats.ingested
        assert counters["service.scored"] == stats.scored
        assert counters["service.dropped"] == stats.dropped
        assert counters["service.batches"] == stats.batches


def deployed_network(seed: int = 5) -> PseudoHoneypotNetwork:
    """A deployed small-world network, ready to serve."""
    engine = TwitterEngine(build_population(SimulationConfig.small(seed)))
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
    )
    network.deploy()
    return network


def freeze_counts_per_hour(network: PseudoHoneypotNetwork) -> dict:
    """What a firehose subscriber sees of the collector's permanent
    generation, once per platform hour (the count walks it)."""
    seen: dict[int, int] = {}

    def look(tweet) -> None:
        hour = network.engine.clock.hour
        if hour not in seen:
            seen[hour] = gc.get_freeze_count()

    network.engine.subscribe(look)
    return seen


class TestCollectorHandBack:
    """``run_network`` keeps the world out of the cyclic collector
    while it serves, and hands the collector back as it found it."""

    HOURS = 3

    @pytest.mark.parametrize("enabled", [True, False])
    def test_served_hours_run_frozen_then_thaw(self, enabled):
        assert gc.get_freeze_count() == 0, "a freeze leaked into the test"
        network = deployed_network()
        seen = freeze_counts_per_hour(network)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            stats = make_service().run_network(network, self.HOURS)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert stats.scored > 0
        assert len(seen) == self.HOURS
        assert all(count > 0 for count in seen.values()), seen
        assert gc.get_freeze_count() == 0

    def test_a_raising_hour_thaws_the_collector(self):
        assert gc.get_freeze_count() == 0, "a freeze leaked into the test"
        network = deployed_network()
        seen = freeze_counts_per_hour(network)
        run_hour = network.run_hour
        hours = []

        def second_hour_fails() -> None:
            hours.append(len(hours))
            if len(hours) == 2:
                raise RuntimeError("the platform went away")
            run_hour()

        network.run_hour = second_hour_fails
        with pytest.raises(RuntimeError, match="went away"):
            make_service().run_network(network, self.HOURS)
        assert hours == [0, 1]
        assert len(seen) == 1 and all(seen.values()), seen
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_a_callers_freeze_is_left_alone(self):
        assert gc.get_freeze_count() == 0, "a freeze leaked into the test"
        network = deployed_network()
        seen = freeze_counts_per_hour(network)
        gc.freeze()
        try:
            theirs = gc.get_freeze_count()
            make_service().run_network(network, self.HOURS)
            after = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        # A frozen object can still die by reference count, so the
        # caller's count may only shrink: a freeze of ours would add
        # the hours' objects, an unfreeze of ours would zero it.
        assert len(seen) == self.HOURS
        assert all(0 < count <= theirs for count in seen.values())
        assert 0 < after <= theirs
