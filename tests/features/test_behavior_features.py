"""Tests for behavioral trackers."""

import pytest

from repro.features.behavior import BehaviorTracker, UserActivity
from repro.twittersim.entities import (
    Mention,
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)


def profile(uid: int) -> UserProfile:
    return UserProfile(
        user_id=uid,
        screen_name=f"user{uid}",
        name=f"User {uid}",
        created_at=0.0,
        description="",
        friends_count=0,
        followers_count=0,
        statuses_count=0,
        listed_count=0,
        favourites_count=0,
    )


def tweet(
    uid: int,
    at: float,
    kind=TweetKind.TWEET,
    source=TweetSource.WEB,
    mentions=(),
) -> Tweet:
    return Tweet(
        tweet_id=int(at * 1000) + uid,
        created_at=at,
        user=profile(uid),
        text="hello",
        kind=kind,
        source=source,
        mentions=mentions,
    )


class TestUserActivity:
    def test_fresh_activity_is_zeroed(self):
        activity = UserActivity()
        assert sum(activity.kind_counts) == 0
        assert sum(activity.source_counts) == 0
        assert activity.average_interval() == 0.0

    def test_average_interval(self):
        activity = UserActivity()
        for at in (0.0, 10.0, 40.0):
            activity.record(tweet(1, at))
        assert activity.average_interval() == pytest.approx(20.0)

    def test_single_tweet_interval_zero(self):
        activity = UserActivity()
        activity.record(tweet(1, 5.0))
        assert activity.average_interval() == 0.0


class TestBehaviorTracker:
    def test_reciprocity_symmetric(self):
        tracker = BehaviorTracker()
        tracker.record(tweet(1, 1.0, mentions=(Mention(2, "user2"),)))
        tracker.record(tweet(2, 2.0, mentions=(Mention(1, "user1"),)))
        assert tracker.reciprocity(1, 2) == 2
        assert tracker.reciprocity(2, 1) == 2

    def test_reciprocity_zero_for_strangers(self):
        assert BehaviorTracker().reciprocity(1, 2) == 0

    def test_activity_per_user(self):
        tracker = BehaviorTracker()
        tracker.record(tweet(1, 1.0))
        tracker.record(tweet(1, 2.0))
        tracker.record(tweet(2, 3.0))
        assert tracker.activity(1).n_tweets == 2
        assert tracker.activity(2).n_tweets == 1

    def test_lookups_of_unseen_ids_never_insert(self):
        tracker = BehaviorTracker()
        tracker.record(tweet(1, 1.0, mentions=(Mention(2, "user2"),)))
        activity = dict(tracker._activity)
        reciprocity = dict(tracker._reciprocity)
        # 2 was mentioned but never sent; 98 and 99 were never seen.
        assert tracker.activity(2) is None
        assert tracker.activity(99) is None
        assert tracker.reciprocity(1, 99) == 0
        assert tracker.reciprocity(98, 99) == 0
        assert tracker._activity == activity
        assert tracker._reciprocity == reciprocity
        assert len(tracker) == 1

    def test_multi_mention_counts_each_pair(self):
        tracker = BehaviorTracker()
        tracker.record(
            tweet(
                1,
                1.0,
                mentions=(Mention(2, "user2"), Mention(3, "user3")),
            )
        )
        assert tracker.reciprocity(1, 2) == 1
        assert tracker.reciprocity(1, 3) == 1
        assert tracker.reciprocity(2, 3) == 0
