"""Tests for profile/tweet records and their JSON round trips."""

import pytest

from repro.twittersim.clock import days
from repro.twittersim.entities import (
    Mention,
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)


def make_profile(**overrides) -> UserProfile:
    base = dict(
        user_id=1,
        screen_name="alice_sky",
        name="Alice Sky",
        created_at=-days(100),
        description="coffee and code ✨",
        friends_count=120,
        followers_count=80,
        statuses_count=500,
        listed_count=10,
        favourites_count=200,
    )
    base.update(overrides)
    return UserProfile(**base)


class TestUserProfile:
    def test_age_days(self):
        profile = make_profile(created_at=-days(100))
        assert profile.age_days(now=0.0) == pytest.approx(100.0)

    def test_age_days_floor_one_day(self):
        profile = make_profile(created_at=0.0)
        assert profile.age_days(now=10.0) == 1.0

    def test_json_roundtrip(self):
        profile = make_profile(verified=True, default_profile_image=True)
        assert UserProfile.from_json(profile.to_json()) == profile


class TestTweet:
    def make_tweet(self, **overrides) -> Tweet:
        base = dict(
            tweet_id=42,
            created_at=1000.0,
            user=make_profile(),
            text="hello @bob http://news.example/x",
            kind=TweetKind.TWEET,
            source=TweetSource.MOBILE,
            hashtags=("news",),
            mentions=(Mention(2, "bob"),),
            urls=("http://news.example/x",),
        )
        base.update(overrides)
        return Tweet(**base)

    def test_mentions_user(self):
        tweet = self.make_tweet()
        assert tweet.mentions_user(2)
        assert not tweet.mentions_user(3)

    def test_mention_time_none_without_reply(self):
        assert self.make_tweet().mention_time() is None

    def test_mention_time_computed(self):
        tweet = self.make_tweet(
            in_reply_to_tweet_id=1, in_reply_to_created_at=700.0
        )
        assert tweet.mention_time() == pytest.approx(300.0)

    def test_json_roundtrip(self):
        tweet = self.make_tweet(
            kind=TweetKind.QUOTE,
            source=TweetSource.THIRD_PARTY,
            in_reply_to_tweet_id=7,
            in_reply_to_created_at=500.0,
            topic="topic_election",
        )
        assert Tweet.from_json(tweet.to_json()) == tweet

