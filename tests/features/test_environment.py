"""Tests for the environment-score tracker."""

import pytest

from repro.features.environment import EnvironmentScoreTracker


class TestEnvironmentScore:
    def test_tau_when_no_spam_seen(self):
        tracker = EnvironmentScoreTracker(tau=0.01)
        tracker.record_capture(("friends_count",))
        assert tracker.score(("friends_count",)) == 0.01
        assert tracker.score(()) == 0.01

    def test_score_is_max_over_attributes(self):
        tracker = EnvironmentScoreTracker()
        for __ in range(10):
            tracker.record_capture(("a", "b"))
        for __ in range(5):
            tracker.record_spam(("a",))
        tracker.record_spam(("b",))
        assert tracker.likelihood("a") == pytest.approx(0.5)
        assert tracker.likelihood("b") == pytest.approx(0.1)
        assert tracker.score(("a", "b")) == pytest.approx(0.5)

    def test_likelihood_none_without_spam(self):
        tracker = EnvironmentScoreTracker()
        tracker.record_capture(("x",))
        assert tracker.likelihood("x") is None

    def test_updates_as_spam_arrives(self):
        tracker = EnvironmentScoreTracker(tau=0.001)
        for __ in range(4):
            tracker.record_capture(("x",))
        before = tracker.score(("x",))
        tracker.record_spam(("x",))
        after = tracker.score(("x",))
        assert before == 0.001
        assert after == pytest.approx(0.25)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            EnvironmentScoreTracker(tau=2.0)

    def test_snapshot_contains_only_spammy_attributes(self):
        tracker = EnvironmentScoreTracker()
        tracker.record_capture(("quiet",))
        tracker.record_capture(("loud",))
        tracker.record_spam(("loud",))
        assert "loud" in tracker.snapshot()
        assert "quiet" not in tracker.snapshot()

    def test_score_never_exceeds_one(self):
        tracker = EnvironmentScoreTracker()
        tracker.record_spam(("x",))  # spam without capture record
        assert tracker.score(("x",)) <= 1.0
        # More spams than captures under one attribute.
        tracker.record_capture(("a",))
        tracker.record_spam(("a",))
        tracker.record_spam(("a",))
        assert tracker.score(("a",)) == 1.0
        assert tracker.snapshot() == {
            "x": tracker.likelihood("x"),
            "a": tracker.likelihood("a"),
        }
        assert max(tracker.snapshot().values()) <= 1.0
