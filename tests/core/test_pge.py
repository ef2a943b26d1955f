"""Tests for PGE computation and the advanced-plan refinement."""

import numpy as np
import pytest

from repro.core.detector import ClassificationOutcome
from repro.core.monitor import CaptureCategory, CapturedTweet
from repro.core.pge import (
    advanced_plan_from_pge,
    aggregate,
    overall_pge,
    parse_sample_label,
    pge_ranking,
    PgeEntry,
    spam_count_distribution,
)
from repro.twittersim.entities import Tweet, TweetKind, UserProfile


def capture(sender=1, hour=0, keys=("friends_count",), labels=None, at=None):
    labels = labels or tuple(f"{k}=100" for k in keys)
    at = at if at is not None else float(hour * 3600)
    user = UserProfile(
        user_id=sender,
        screen_name=f"u{sender}",
        name="",
        created_at=0.0,
        description="",
        friends_count=0,
        followers_count=0,
        statuses_count=0,
        listed_count=0,
        favourites_count=0,
    )
    tweet = Tweet(
        tweet_id=sender * 100_000 + int(at),
        created_at=at,
        user=user,
        text="",
        kind=TweetKind.TWEET,
    )
    return CapturedTweet(
        tweet=tweet,
        hour=hour,
        capture_category=CaptureCategory.MENTION,
        attribute_keys=keys,
        sample_labels=labels,
        node_user_ids=(999,),
    )


def outcome(captures, spam_flags):
    return ClassificationOutcome(
        captures=captures,
        is_spam=np.array(spam_flags),
        spammer_ids={
            c.sender_id for c, s in zip(captures, spam_flags) if s
        },
    )


class TestAggregate:
    def test_counts_tweets_spams_spammers(self):
        captures = [
            capture(sender=1, at=1.0),
            capture(sender=1, at=2.0),
            capture(sender=2, at=3.0),
        ]
        stats = aggregate(outcome(captures, [1, 1, 0]))
        entry = stats["friends_count"]
        assert entry.tweets == 3
        assert entry.spams == 2
        assert entry.spammers == 1
        assert entry.users == 2

    def test_multi_attribute_counted_under_each(self):
        captures = [capture(sender=1, keys=("a", "b"), labels=("a=1", "b=2"))]
        stats = aggregate(outcome(captures, [1]))
        assert stats["a"].spams == 1
        assert stats["b"].spams == 1

    def test_by_sample_granularity(self):
        captures = [capture(sender=1, keys=("a",), labels=("a=10",))]
        stats = aggregate(outcome(captures, [1]), by_sample=True)
        assert "a=10" in stats

    def test_ratios(self):
        captures = [capture(sender=i, at=float(i)) for i in range(4)]
        stats = aggregate(outcome(captures, [1, 0, 0, 0]))
        entry = stats["friends_count"]
        assert entry.spam_ratio() == pytest.approx(0.25)
        assert entry.spammer_ratio() == pytest.approx(0.25)


class TestPgeRanking:
    def test_pge_formula(self):
        assert overall_pge(n_spammers=100, n_nodes=100, hours=10) == 0.1

    def test_overall_pge_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            overall_pge(1, 0, 10)

    def test_ranking_descending(self):
        captures = (
            [capture(sender=i, keys=("hot",), labels=("hot=1",), at=float(i))
             for i in range(6)]
            + [capture(sender=10 + i, keys=("cold",), labels=("cold=1",),
                       at=100.0 + i) for i in range(2)]
        )
        stats = aggregate(
            outcome(captures, [1] * 8), by_sample=True
        )
        exposure = {"hot=1": 10, "cold=1": 10}
        ranking = pge_ranking(stats, exposure)
        assert ranking[0].label == "hot=1"
        assert ranking[0].pge == pytest.approx(0.6)
        assert ranking[1].pge == pytest.approx(0.2)

    def test_zero_exposure_skipped(self):
        stats = aggregate(
            outcome([capture(sender=1)], [1]), by_sample=True
        )
        assert pge_ranking(stats, {}) == []


class TestAdvancedPlan:
    def entries(self):
        return [
            PgeEntry("avg_lists_per_day=1", 50, 100, 0.5),
            PgeEntry("followers_count=10000", 40, 100, 0.4),
            PgeEntry("trending_up", 30, 100, 0.3),
        ]

    def test_plan_from_ranking(self):
        plan = advanced_plan_from_pge(self.entries(), top_k=3, per_value=10)
        assert plan.total_requested == 30
        profile_labels = {t.sample_label for t in plan.profile_targets}
        assert profile_labels == {
            "avg_lists_per_day=1",
            "followers_count=10000",
        }
        assert plan.category_targets[0].key == "trending_up"

    def test_requires_enough_entries(self):
        with pytest.raises(ValueError):
            advanced_plan_from_pge(self.entries(), top_k=10)

    def test_parse_sample_label(self):
        assert parse_sample_label("friends_count=100") == (
            "friends_count",
            100.0,
        )
        assert parse_sample_label("trending_up") == ("trending_up", None)


class TestSpamDistribution:
    def test_fig2_fractions(self):
        captures = (
            [capture(sender=1, at=float(i)) for i in range(3)]  # 3 spams
            + [capture(sender=2, at=10.0)]  # 1 spam
            + [capture(sender=3, at=11.0)]  # 1 spam
        )
        dist = spam_count_distribution(outcome(captures, [1] * 5))
        assert dist[1] == pytest.approx(2 / 3)
        assert dist[3] == pytest.approx(1 / 3)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_empty_when_no_spam(self):
        dist = spam_count_distribution(
            outcome([capture(sender=1)], [0])
        )
        assert dist == {}
