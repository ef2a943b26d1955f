"""Parity: every pool-backed hot path is identical at any worker count.

The parallel layer's whole contract is that ``workers=`` is a pure
performance knob.  These tests run each fan-out site sequentially
(``workers=0``) and over a 4-process pool (``workers=4``) at the same
seed and assert bit-for-bit equal outputs.  They run fine on a single
core — correctness needs processes, not parallel speedup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.labeling.minhash import MinHasher, group_by_signature
from repro.labeling.neardup import group_near_duplicates
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_validate
from repro.obs import reset, set_enabled
from repro.twittersim.clock import days
from repro.twittersim.entities import (
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)

WORKERS = 4


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    set_enabled(True)
    yield
    reset()


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(160, 6))
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.int64)
    return X, y


def make_forest() -> RandomForestClassifier:
    return RandomForestClassifier(n_estimators=10, max_depth=6, seed=3)


def _profile(uid: int) -> UserProfile:
    return UserProfile(
        user_id=uid,
        screen_name=f"user{uid}",
        name="U",
        created_at=-days(50),
        description="",
        friends_count=1,
        followers_count=1,
        statuses_count=1,
        listed_count=0,
        favourites_count=0,
        verified=False,
    )


def _tweet(text: str, at: float, uid: int) -> Tweet:
    return Tweet(
        tweet_id=int(at * 100) + uid * 10_000_000,
        created_at=at,
        user=_profile(uid),
        text=text,
        kind=TweetKind.TWEET,
        source=TweetSource.WEB,
        mentions=(),
        urls=tuple(t for t in text.split() if t.startswith("http")),
        in_reply_to_tweet_id=None,
        in_reply_to_created_at=None,
    )


class TestForestParity:
    def test_predictions_bitwise_identical(self, dataset):
        X, y = dataset
        sequential = RandomForestClassifier(
            n_estimators=10, max_depth=6, seed=3, workers=0
        ).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=10, max_depth=6, seed=3, workers=WORKERS
        ).fit(X, y)
        assert np.array_equal(
            sequential.predict_proba(X), parallel.predict_proba(X)
        )
        assert np.array_equal(
            sequential.feature_importances(),
            parallel.feature_importances(),
        )


class TestCrossValidationParity:
    def test_fold_metrics_identical(self, dataset):
        X, y = dataset
        sequential = cross_validate(
            make_forest, X, y, n_splits=4, seed=9, workers=0
        )
        parallel = cross_validate(
            make_forest, X, y, n_splits=4, seed=9, workers=WORKERS
        )
        assert sequential.mean == parallel.mean
        assert sequential.folds == parallel.folds

    def test_unpicklable_factory_falls_back(self, dataset):
        X, y = dataset
        baseline = cross_validate(
            make_forest, X, y, n_splits=4, seed=9, workers=0
        )
        lambda_result = cross_validate(
            lambda: make_forest(), X, y, n_splits=4, seed=9, workers=WORKERS
        )
        assert lambda_result.mean == baseline.mean


class TestFaultedRunParity:
    """Parity must survive chaos: label a fault-perturbed capture set.

    A collection run executed under a fixed fault plan (reconnects,
    backfills, duplicate deliveries) feeds the full labeling pipeline
    at ``workers=0`` and ``workers=4``; the resulting datasets must be
    bitwise identical, proving the worker knob stays a pure
    performance choice even for degraded-mode inputs.
    """

    @pytest.fixture(scope="class")
    def faulted_experiment(self):
        from repro.core.experiment import PseudoHoneypotExperiment
        from repro.faults import FaultPlan
        from repro.twittersim.config import SimulationConfig

        plan = FaultPlan.random_plan(
            21, start_hour=2, n_hours=4, intensity=1.5
        )
        experiment = PseudoHoneypotExperiment(
            SimulationConfig.small(seed=21),
            candidate_pool=400,
            fault_plan=plan,
        )
        experiment.warm_up(2)
        run = experiment.collect_ground_truth(
            hours=4, n_targets=4, per_value=3
        )
        assert run.n_captures > 0
        return experiment, run

    def _label(self, experiment, run, workers):
        from repro.labeling.manual import ManualChecker
        from repro.labeling.pipeline import GroundTruthLabeler

        checker = ManualChecker(
            experiment.population.truth,
            error_rate=0.02,
            seed=experiment.config.seed,
        )
        labeler = GroundTruthLabeler(
            experiment.rest,
            checker,
            minhash_seed=experiment.config.seed,
            workers=workers,
        )
        return labeler.label(
            [capture.tweet for capture in run.captures]
        )

    def test_labeling_identical_at_any_worker_count(
        self, faulted_experiment
    ):
        experiment, run = faulted_experiment
        sequential = self._label(experiment, run, workers=0)
        parallel = self._label(experiment, run, workers=WORKERS)
        assert np.array_equal(
            sequential.tweet_labels, parallel.tweet_labels
        )
        assert sequential.user_labels == parallel.user_labels
        assert sequential.tweet_method == parallel.tweet_method
        assert sequential.user_method == parallel.user_method
        assert sequential.method_counts == parallel.method_counts


class TestLabelingParity:
    # More than one 256-text chunk of distinct texts, so the signature
    # chunks really ship to pool workers.
    def test_minhash_groups_identical(self):
        texts = [
            f"win free cash now today offer code x{i % 300} act fast"
            for i in range(720)
        ] + ["a unique gardening story %d with detail" % i for i in range(9)]
        hasher = MinHasher(seed=5)
        assert group_by_signature(
            texts, hasher, workers=0
        ) == group_by_signature(texts, hasher, workers=WORKERS)

    def test_neardup_groups_identical(self):
        tweets = [
            _tweet(
                f"join our amazing deal code x{i % 300} right now friends",
                at=float(i * 240),
                uid=i,
            )
            for i in range(720)
        ]
        hasher = MinHasher(seed=2)
        assert group_near_duplicates(
            tweets, hasher, workers=0
        ) == group_near_duplicates(tweets, hasher, workers=WORKERS)
