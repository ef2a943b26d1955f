"""Tests for the detector and the Active/Dormant policy."""

import dataclasses

import numpy as np
import pytest

import repro.core.detector as detector_module
from repro.analysis.session import ReproSession
from repro.core.detector import PseudoHoneypotDetector, default_classifier
from repro.core.portability import ActivityPolicy
from repro.ml.tree import DecisionTreeClassifier


class TestActivityPolicy:
    def test_active_from_recent_history(self):
        policy = ActivityPolicy(window_hours=24)
        now = 100 * 3600.0
        assert policy.is_active_from_history(now - 3600, now)
        assert not policy.is_active_from_history(now - 25 * 3600, now)
        assert not policy.is_active_from_history(None, now)

    def test_is_active_via_timeline(self, warm_world):
        population, engine, rest = warm_world
        policy = ActivityPolicy(window_hours=24)
        recent = list(engine.recent_tweets())
        active_uid = recent[-1].user.user_id
        assert policy.is_active(rest, active_uid, engine.clock.now)

    def test_dormant_when_suspended(self, fresh_world):
        population, engine, rest = fresh_world(seed=91)
        engine.run_hours(2)
        uid = population.order[0]
        population.cols.column("suspended")[population.index_of[uid]] = True
        assert not ActivityPolicy().is_active(rest, uid, engine.clock.now)

    def test_dormant_when_never_posted(self, fresh_world):
        population, engine, rest = fresh_world(seed=92)
        # Find an account with no timeline at hour 0.
        uid = population.order[0]
        assert not ActivityPolicy().is_active(rest, uid, engine.clock.now)


class TestDetector:
    def test_default_classifier_is_paper_rf(self):
        model = default_classifier()
        assert model.n_estimators == 70
        assert model.max_depth == 700

    def test_fit_and_classify_on_tiny_session(self, tiny_session):
        run = tiny_session.ground_truth_run
        dataset = tiny_session.ground_truth
        detector = PseudoHoneypotDetector(
            classifier=DecisionTreeClassifier(max_depth=8)
        )
        detector.fit_from_ground_truth(run.captures, dataset)
        outcome = detector.classify(run.captures)
        assert outcome.n_tweets == len(run.captures)
        assert 0 <= outcome.n_spams <= outcome.n_tweets
        assert outcome.n_spammers <= outcome.n_spams or outcome.n_spams == 0

    def test_detector_accuracy_against_truth(self, tiny_session):
        """The trained detector must beat chance comfortably on truth."""
        run = tiny_session.ground_truth_run
        dataset = tiny_session.ground_truth
        truth = tiny_session.experiment.population.truth
        detector = tiny_session.experiment.train_detector(run, dataset)
        outcome = detector.classify(run.captures)
        actual = np.array(
            [
                truth.is_spam_tweet(c.tweet.tweet_id)
                for c in outcome.captures
            ]
        )
        agreement = (outcome.is_spam == actual).mean()
        assert agreement > 0.9

    def test_classify_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PseudoHoneypotDetector().classify([])

    @pytest.mark.parametrize("chunk_size", [-1, 0, True, 2.5])
    def test_classify_rejects_bad_chunk_size(
        self, tiny_session, chunk_size, monkeypatch
    ):
        # range(0, n, -1) is empty: a bad chunk size would score
        # nothing and call every capture "not spam".
        run = tiny_session.ground_truth_run
        detector = PseudoHoneypotDetector(
            classifier=DecisionTreeClassifier(max_depth=8)
        )
        detector.fit_from_ground_truth(run.captures, tiny_session.ground_truth)
        extracted = []
        monkeypatch.setattr(
            detector_module,
            "extract_rows",
            lambda *args, **kwargs: extracted.append(args),
        )
        with pytest.raises(ValueError, match="chunk_size"):
            detector.classify(run.captures, chunk_size=chunk_size)
        assert extracted == []

    def test_fit_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            PseudoHoneypotDetector().fit([], np.array([1]))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            PseudoHoneypotDetector().fit([], np.array([]))

    def test_environment_scores_update_during_classify(self, tiny_session):
        run = tiny_session.ground_truth_run
        dataset = tiny_session.ground_truth
        detector = PseudoHoneypotDetector(
            classifier=DecisionTreeClassifier(max_depth=8)
        )
        detector.fit_from_ground_truth(run.captures, dataset)
        outcome = detector.classify(run.captures)
        if outcome.n_spams:
            assert detector.environment.snapshot()

    def test_labels_travel_with_shuffled_captures(self, tiny_session):
        # Out-of-order delivery leaves capture lists unsorted; each
        # label must still feed back after its own capture's row, and
        # the training matrix must keep every label beside its row.
        # Captures stamped with one instant keep their relative order,
        # as time order's tie rule does.
        run = tiny_session.ground_truth_run
        dataset = tiny_session.ground_truth
        label_of = dict(
            zip(
                (tweet.tweet_id for tweet in dataset.tweets),
                dataset.tweet_labels,
            )
        )
        captures = [c for c in run.captures if c.tweet.tweet_id in label_of]
        labels = np.array([label_of[c.tweet.tweet_id] for c in captures])
        __, instant = np.unique(
            [c.tweet.created_at for c in captures], return_inverse=True
        )
        key = np.random.default_rng(5).random(instant.max() + 1)[instant]
        shuffle = np.argsort(key, kind="stable")
        shuffled = [captures[i] for i in shuffle]
        assert np.array_equal(
            PseudoHoneypotDetector().extract_features(captures, labels),
            PseudoHoneypotDetector().extract_features(
                shuffled, labels[shuffle]
            ),
        )
        session = ReproSession(tiny_session.scale)
        session.ground_truth_run = dataclasses.replace(run, captures=shuffled)
        session.ground_truth = dataset
        X, y = session.training_matrix
        X_ref, y_ref = tiny_session.training_matrix
        assert np.array_equal(X, X_ref)
        assert np.array_equal(y, y_ref)
