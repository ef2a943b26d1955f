"""Tests for the manual-checking oracle and suspension checks."""

import pytest

from repro.labeling.manual import ManualChecker
from repro.labeling.suspended import find_suspended
from repro.twittersim.population import GroundTruth


class TestManualChecker:
    def make_truth(self):
        truth = GroundTruth()
        truth.spam_tweet_ids.update(range(0, 2000, 2))  # even ids spam
        return truth

    def test_zero_error_rate_is_oracle(self):
        checker = ManualChecker(self.make_truth(), error_rate=0.0)
        assert checker.check_tweet(2)
        assert not checker.check_tweet(3)

    def test_verdicts_deterministic_per_item(self):
        checker = ManualChecker(self.make_truth(), error_rate=0.3, seed=5)
        first = [checker.check_tweet(i) for i in range(100)]
        second = [checker.check_tweet(i) for i in range(100)]
        assert first == second

    def test_error_rate_approximately_respected(self):
        checker = ManualChecker(self.make_truth(), error_rate=0.1, seed=0)
        wrong = sum(
            checker.check_tweet(i) != (i % 2 == 0) for i in range(2000)
        )
        assert 100 < wrong < 320

    def test_rejects_bad_error_rate(self):
        with pytest.raises(ValueError):
            ManualChecker(self.make_truth(), error_rate=0.8)

    def test_counts_verdicts(self):
        checker = ManualChecker(self.make_truth(), error_rate=0.0)
        for i in range(7):
            checker.check_tweet(i)
        assert checker.verdicts_issued == 7


class TestFindSuspended:
    def test_detects_suspended_accounts(self, fresh_world):
        population, __, rest = fresh_world(seed=51)
        ids = population.order[:150]
        suspended = set(ids[::7])
        flags = population.cols.column("suspended")
        for uid in suspended:
            flags[population.index_of[uid]] = True
        found = find_suspended(rest, list(ids))
        assert found == suspended

    def test_handles_duplicates(self, fresh_world):
        population, __, rest = fresh_world(seed=52)
        uid = population.order[0]
        population.cols.column("suspended")[population.index_of[uid]] = True
        found = find_suspended(rest, [uid, uid, uid])
        assert found == {uid}

    def test_empty_input(self, fresh_world):
        __, __, rest = fresh_world(seed=53)
        assert find_suspended(rest, []) == set()
