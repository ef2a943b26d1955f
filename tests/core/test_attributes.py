"""Tests for Table I/II attribute definitions."""

import numpy as np
import pytest

from repro.core.attributes import (
    ALL_ATTRIBUTE_KEYS,
    HASHTAG_ATTRIBUTE_KEYS,
    PROFILE_ATTRIBUTE_BY_KEY,
    PROFILE_ATTRIBUTES,
    TRENDING_ATTRIBUTE_KEYS,
    AttributeCategory,
    attribute_values,
    category_of_key,
    hashtag_category_of_key,
)
from repro.twittersim.clock import days
from repro.twittersim.entities import UserProfile
from repro.twittersim.hashtags import HashtagCategory


def make_profile(**overrides) -> UserProfile:
    base = dict(
        user_id=1,
        screen_name="x",
        name="X",
        created_at=-days(100),
        description="",
        friends_count=300,
        followers_count=100,
        statuses_count=1000,
        listed_count=50,
        favourites_count=200,
    )
    base.update(overrides)
    return UserProfile(**base)


def value_of(key: str, profile: UserProfile, now: float = 0.0) -> float:
    """The column formula's value of ``key`` for one profile."""
    counters = {
        "created": np.array([profile.created_at]),
        "friends": np.array([profile.friends_count]),
        "followers": np.array([profile.followers_count]),
        "statuses": np.array([profile.statuses_count]),
        "listed": np.array([profile.listed_count]),
        "favourites": np.array([profile.favourites_count]),
    }
    return float(attribute_values(key, counters, now)[0])


class TestTableII:
    def test_eleven_profile_attributes(self):
        assert len(PROFILE_ATTRIBUTES) == 11

    def test_each_attribute_has_ten_sample_values(self):
        for spec in PROFILE_ATTRIBUTES:
            assert len(spec.sample_values) == 10

    def test_sample_values_strictly_increasing(self):
        for spec in PROFILE_ATTRIBUTES:
            values = spec.sample_values
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_paper_row_values(self):
        friends = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        assert friends.sample_values == (
            10, 50, 100, 200, 300, 500, 1_000, 3_000, 5_000, 10_000,
        )
        age = PROFILE_ATTRIBUTE_BY_KEY["account_age_days"]
        assert age.sample_values[-1] == 3_000
        lists = PROFILE_ATTRIBUTE_BY_KEY["avg_lists_per_day"]
        assert lists.sample_values[0] == pytest.approx(1 / 100)

    def test_sample_label_format(self):
        spec = PROFILE_ATTRIBUTE_BY_KEY["followers_count"]
        assert spec.sample_label(10_000) == "followers_count=10000"


class TestAttributeValues:
    def test_reads_profile_counters(self):
        profile = make_profile()
        assert value_of("friends_count", profile) == 300
        assert value_of("friend_follower_ratio", profile) == pytest.approx(
            3.0
        )
        assert value_of("avg_lists_per_day", profile) == pytest.approx(0.5)

    def test_per_day_averages(self):
        profile = make_profile(
            statuses_count=500, listed_count=10, favourites_count=200
        )
        assert value_of("avg_statuses_per_day", profile) == pytest.approx(
            5.0
        )
        assert value_of("avg_lists_per_day", profile) == pytest.approx(0.1)
        assert value_of("avg_favorites_per_day", profile) == pytest.approx(
            2.0
        )

    def test_friend_follower_ratio(self):
        profile = make_profile(friends_count=120, followers_count=80)
        assert value_of("friend_follower_ratio", profile) == pytest.approx(
            1.5
        )

    def test_ratio_with_zero_followers(self):
        profile = make_profile(friends_count=120, followers_count=0)
        assert value_of("friend_follower_ratio", profile) == 120.0

    def test_every_table_ii_key_has_a_formula(self):
        profile = make_profile()
        for spec in PROFILE_ATTRIBUTES:
            assert value_of(spec.key, profile) > 0

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="karma"):
            value_of("karma", make_profile())


class TestNetworkComposition:
    """The paper's 2,400-node layout: 1,100 + 900 + 400."""

    def test_total_attribute_keys(self):
        # 11 profile + 9 hashtag + 4 trending = 24 attributes (Table I).
        assert len(ALL_ATTRIBUTE_KEYS) == 24

    def test_hashtag_keys(self):
        assert len(HASHTAG_ATTRIBUTE_KEYS) == 9
        assert "no_hashtag" in HASHTAG_ATTRIBUTE_KEYS

    def test_trending_keys(self):
        assert TRENDING_ATTRIBUTE_KEYS == (
            "trending_up", "trending_down", "popular_tweets", "no_trending",
        )

    def test_category_of_key(self):
        assert category_of_key("friends_count") is AttributeCategory.PROFILE
        assert category_of_key("hashtag_social") is AttributeCategory.HASHTAG
        assert category_of_key("trending_up") is AttributeCategory.TRENDING
        with pytest.raises(KeyError):
            category_of_key("nonsense")

    def test_hashtag_category_of_key(self):
        assert (
            hashtag_category_of_key("hashtag_tech") is HashtagCategory.TECH
        )
        assert hashtag_category_of_key("no_hashtag") is None
        with pytest.raises(KeyError):
            hashtag_category_of_key("trending_up")
