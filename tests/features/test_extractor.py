"""Tests for the 58-feature extractor."""

import numpy as np
import pytest

from repro.features.extractor import (
    DEDUP_WINDOW_S,
    NO_MENTION_TIME,
    FeatureExtractor,
)
from repro.features.schema import N_FEATURES, feature_index
from repro.twittersim.clock import days
from repro.twittersim.entities import (
    Mention,
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)


def profile(uid: int, name: str | None = None) -> UserProfile:
    return UserProfile(
        user_id=uid,
        screen_name=name or f"user{uid}",
        name=f"User {uid}",
        created_at=-days(100),
        description="hello world",
        friends_count=10 * uid,
        followers_count=5 * uid,
        statuses_count=100,
        listed_count=3,
        favourites_count=50,
    )


def tweet(uid: int, at: float, text="hi there friend", **overrides) -> Tweet:
    base = dict(
        tweet_id=int(at * 1000) * 100 + uid,
        created_at=at,
        user=profile(uid),
        text=text,
        kind=TweetKind.TWEET,
        source=TweetSource.WEB,
    )
    base.update(overrides)
    return Tweet(**base)


class TestExtraction:
    def test_vector_shape_and_finiteness(self):
        extractor = FeatureExtractor()
        vector = extractor.extract(tweet(1, 100.0))
        assert vector.shape == (N_FEATURES,)
        assert np.isfinite(vector).all()

    def test_sender_profile_block(self):
        extractor = FeatureExtractor()
        vector = extractor.extract(tweet(3, 100.0))
        assert vector[feature_index("sender_friends_count")] == 30
        assert vector[feature_index("sender_followers_count")] == 15

    def test_receiver_block_zero_without_mentions(self):
        extractor = FeatureExtractor()
        vector = extractor.extract(tweet(1, 100.0))
        assert np.array_equal(vector[16:32], np.zeros(16))

    def test_receiver_block_filled_from_last_seen_profile(self):
        extractor = FeatureExtractor()
        extractor.extract(tweet(2, 100.0))
        mention_tweet = tweet(
            1, 200.0, mentions=(Mention(2, "user2"),)
        )
        vector = extractor.extract(mention_tweet, node_user_ids=(2,))
        assert vector[feature_index("receiver_friends_count")] == 20

    def test_unseen_receiver_adds_no_state(self):
        # Receiver 2 never sent a tweet: its blocks read zeros and the
        # lookup leaves no trace in the behavioral state.
        extractor = FeatureExtractor()
        mention_tweet = tweet(1, 200.0, mentions=(Mention(2, "user2"),))
        vector = extractor.extract(mention_tweet, node_user_ids=(2,))
        assert np.array_equal(vector[16:32], np.zeros(16))
        assert np.array_equal(vector[44:47], np.zeros(3))
        assert np.array_equal(vector[51:55], np.zeros(4))
        assert len(extractor.behavior) == 1

    def test_receiver_prefers_honeypot_node(self):
        mention_tweet = tweet(
            1,
            200.0,
            mentions=(Mention(2, "user2"), Mention(5, "user5")),
        )
        assert FeatureExtractor.receiver_of(mention_tweet, (5,)) == 5
        assert FeatureExtractor.receiver_of(mention_tweet) == 2

    def test_repeated_content_flag(self):
        extractor = FeatureExtractor()
        first = extractor.extract(tweet(1, 100.0, text="same spam text here"))
        second = extractor.extract(tweet(2, 200.0, text="same spam text here"))
        idx = feature_index("is_repeated")
        assert first[idx] == 0.0
        assert second[idx] == 1.0

    def test_repeated_expires_after_window(self):
        extractor = FeatureExtractor()
        idx = feature_index("is_repeated")
        text = "short lived duplicate"
        extractor.extract(tweet(1, 0.0, text=text))
        edge = extractor.extract(tweet(2, DEDUP_WINDOW_S, text=text))
        late = extractor.extract(tweet(3, 2 * DEDUP_WINDOW_S + 1, text=text))
        assert edge[idx] == 1.0
        assert late[idx] == 0.0

    def test_mention_time_feature(self):
        extractor = FeatureExtractor()
        reply = tweet(
            1,
            400.0,
            mentions=(Mention(2, "user2"),),
            in_reply_to_tweet_id=9,
            in_reply_to_created_at=100.0,
        )
        vector = extractor.extract(reply)
        assert vector[feature_index("mention_time")] == pytest.approx(300.0)

    def test_mention_time_sentinel_for_non_reply(self):
        extractor = FeatureExtractor()
        vector = extractor.extract(tweet(1, 100.0))
        assert vector[feature_index("mention_time")] == NO_MENTION_TIME

    def test_reciprocity_grows_with_conversation(self):
        extractor = FeatureExtractor()
        idx = feature_index("reciprocity_count")
        a = extractor.extract(tweet(1, 1.0, mentions=(Mention(2, "user2"),)))
        b = extractor.extract(tweet(2, 2.0, mentions=(Mention(1, "user1"),)))
        c = extractor.extract(tweet(1, 3.0, mentions=(Mention(2, "user2"),)))
        assert a[idx] == 0.0
        assert b[idx] == 1.0
        assert c[idx] == 2.0

    def test_sender_distribution_uses_past_only(self):
        extractor = FeatureExtractor()
        idx = feature_index("sender_tweet_frac")
        first = extractor.extract(tweet(1, 1.0))
        assert first[idx] == 0.0  # no history yet
        second = extractor.extract(tweet(1, 2.0))
        assert second[idx] == 1.0  # history = one TWEET

    def test_kind_share_slots(self):
        # Sender kinds in slots 41-43, receiver kinds in 44-46: running
        # counts over the user's past tweets, zeros before any.
        extractor = FeatureExtractor()
        kinds = (TweetKind.TWEET, TweetKind.TWEET, TweetKind.RETWEET)
        first = extractor.extract(
            tweet(1, 0.0, kind=kinds[0], mentions=(Mention(2, "user2"),))
        )
        for at, kind in enumerate(kinds[1:], start=1):
            extractor.extract(tweet(1, float(at), kind=kind))
        sender = extractor.extract(tweet(1, 10.0))
        receiver = extractor.extract(
            tweet(2, 11.0, mentions=(Mention(1, "user1"),))
        )
        assert not first[41:47].any()
        assert sender[41:44].tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])
        assert receiver[41:44].tolist() == [0.0, 0.0, 0.0]
        assert receiver[44:47].tolist() == pytest.approx([0.75, 0.25, 0.0])

    def test_source_share_slots(self):
        # Sender sources (web, mobile, third-party, other) in slots
        # 47-50, receiver sources in 51-54.
        extractor = FeatureExtractor()
        sources = (TweetSource.MOBILE, TweetSource.MOBILE, TweetSource.OTHER)
        first = extractor.extract(
            tweet(1, 0.0, source=sources[0], mentions=(Mention(2, "user2"),))
        )
        for at, source in enumerate(sources[1:], start=1):
            extractor.extract(tweet(1, float(at), source=source))
        sender = extractor.extract(tweet(1, 10.0))
        receiver = extractor.extract(
            tweet(2, 11.0, mentions=(Mention(1, "user1"),))
        )
        assert not first[47:55].any()
        assert sender[47:51].tolist() == pytest.approx(
            [0.0, 2 / 3, 0.0, 1 / 3]
        )
        assert receiver[51:55].tolist() == pytest.approx(
            [0.25, 0.5, 0.0, 0.25]
        )

    def test_average_interval_feature(self):
        extractor = FeatureExtractor()
        idx = feature_index("avg_tweet_interval")
        extractor.extract(tweet(1, 0.0))
        extractor.extract(tweet(1, 60.0))
        third = extractor.extract(tweet(1, 180.0))
        assert third[idx] == pytest.approx(60.0)

    def test_environment_score_reacts_to_spam(self):
        extractor = FeatureExtractor()
        idx = feature_index("environment_score")
        attrs = ("lists_count",)
        baseline = extractor.extract(tweet(1, 1.0), attrs)[idx]
        spammy = tweet(2, 2.0)
        extractor.extract(spammy, attrs)
        extractor.environment.record_spam(attrs)
        after = extractor.extract(tweet(3, 3.0), attrs)[idx]
        assert baseline == extractor.environment.tau
        assert after > baseline

