"""Tests for profile and content feature blocks."""

import numpy as np
import pytest

from repro.features.content import normalize_text_for_dedup
from repro.features.extractor import FeatureExtractor
from repro.features.profile import N_PROFILE_FEATURES, profile_features
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
        name="Alice",
        created_at=-days(200),
        description="coffee 🔥 and 42 code",
        friends_count=100,
        followers_count=50,
        statuses_count=400,
        listed_count=20,
        favourites_count=600,
        verified=True,
        default_profile_image=False,
    )
    base.update(overrides)
    return UserProfile(**base)


class TestProfileFeatures:
    def test_vector_length(self):
        assert len(profile_features(make_profile(), now=0.0)) == 16
        assert N_PROFILE_FEATURES == 16

    def test_values_match_definitions(self):
        profile = make_profile()
        vector = profile_features(profile, now=0.0)
        assert vector[0] == 100  # friends
        assert vector[1] == 50  # followers
        assert vector[2] == pytest.approx(200)  # age days
        assert vector[3] == 400  # statuses
        assert vector[4] == pytest.approx(2.0)  # statuses/day
        assert vector[5] == 20  # listed
        assert vector[6] == pytest.approx(0.1)  # lists/day
        assert vector[7] == pytest.approx(3.0)  # favourites/day
        assert vector[8] == 600  # favourites
        assert vector[9] == 1.0  # verified
        assert vector[10] == 0.0  # default image
        assert vector[11] == len("alice_sky")
        assert vector[12] == len("Alice")
        assert vector[13] == len(profile.description)
        assert vector[14] == 1.0  # emoji in description
        assert vector[15] == 2.0  # digits in description ("42")

    def test_all_finite(self):
        vector = profile_features(make_profile(created_at=0.0), now=0.0)
        assert np.isfinite(vector).all()


class TestContentFeatures:
    def make_tweet(self, **overrides) -> Tweet:
        base = dict(
            tweet_id=1,
            created_at=0.0,
            user=make_profile(),
            text="win cash 💰 now 99 http://x.example/a #social",
            kind=TweetKind.RETWEET,
            source=TweetSource.THIRD_PARTY,
            hashtags=("social",),
            mentions=(Mention(2, "bob"),),
            urls=("http://x.example/a",),
        )
        base.update(overrides)
        return Tweet(**base)

    def test_vector_values(self):
        # Content slots 32-39 of the extractor's row; an earlier copy
        # of the text (to another victim) makes this one repeated.
        extractor = FeatureExtractor()
        extractor.extract(
            self.make_tweet(tweet_id=0, created_at=-60.0, mentions=())
        )
        tweet = self.make_tweet()
        vector = extractor.extract(tweet)[32:40]
        assert vector[0] == 1.0  # repeated
        assert vector[1] == 1.0  # retweet
        assert vector[2] == 2.0  # third party
        assert vector[3] == 1.0  # hashtag count
        assert vector[4] == 1.0  # mention count
        assert vector[5] == len(tweet.text)
        assert vector[6] == 1.0  # emoji
        assert vector[7] == 2.0  # digits "99"

    def test_not_repeated_flag(self):
        assert FeatureExtractor().extract(self.make_tweet())[32] == 0.0


class TestDedupNormalization:
    def test_strips_mentions_and_urls(self):
        a = normalize_text_for_dedup("@alice win cash http://x.example/a 99")
        b = normalize_text_for_dedup("@bob win cash http://y.example/b 99")
        assert a == b == "win cash 99"

    def test_case_insensitive(self):
        assert normalize_text_for_dedup("Win CASH") == "win cash"
