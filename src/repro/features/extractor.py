"""The 58-feature extractor (Section IV-A).

``FeatureExtractor`` is stateful: behavioral features are running
statistics over the captured stream, the "is repeated" content feature
needs a dedup memory, the receiver-profile block reads the receiver's
last profile snapshot seen in the stream, and the environment score
needs the per-attribute group-likelihood tracker.  Feed it captured
tweets in timestamp order; each call extracts the feature vector *from
the past only* and then folds the tweet into the state (no
self-leakage).  The extractor keeps no memo: every call computes its
profile blocks, dedup form and character counts directly (only
:func:`~repro.features.profile.profile_features` memoizes description
character counts).  The capture-row loop that drives it, passing each capture's crossed node ids and feeding confirmed
spams back into the environment tracker, is
:func:`repro.core.detector.extract_rows`, so this package never sees a
capture.
"""

from __future__ import annotations

import numpy as np

from ..twittersim.entities import Tweet, UserProfile
from .behavior import BehaviorTracker
from .content import (
    _KIND_CODE,
    _SOURCE_CODE,
    normalize_text_for_dedup,
)
from .textstats import count_digits, count_emoji
from .environment import EnvironmentScoreTracker
from .profile import empty_profile_features, profile_features
from .schema import N_FEATURES

#: Sentinel for "not a reaction to any post" in the mention-time slot.
NO_MENTION_TIME = -1.0

#: How long a normalized text stays "seen" for the is-repeated feature:
#: the paper's 1-day window for content duplication checks.
DEDUP_WINDOW_S = 86_400.0


class FeatureExtractor:
    """Extracts the paper's 58 features from a captured tweet stream.

    Args:
        environment: shared group-likelihood tracker; a fresh one is
            created if omitted.
    """

    def __init__(
        self, environment: EnvironmentScoreTracker | None = None
    ) -> None:
        self.environment = environment or EnvironmentScoreTracker()
        self.behavior = BehaviorTracker()
        self._profiles: dict[int, UserProfile] = {}
        self._text_last_seen: dict[str, float] = {}
        self._dedup_prune_at = 0.0

    @staticmethod
    def receiver_of(
        tweet: Tweet, node_user_ids: tuple[int, ...] = ()
    ) -> int | None:
        """The receiver account id of a tweet, if any.

        The receiver is the first mentioned pseudo-honeypot node among
        ``node_user_ids`` (the nodes the capture crossed), falling back
        to the first mention (footnote 2 of the paper).
        """
        for mention in tweet.mentions:
            if mention.user_id in node_user_ids:
                return mention.user_id
        return tweet.mentions[0].user_id if tweet.mentions else None

    # ------------------------------------------------------------------

    def extract(
        self,
        tweet: Tweet,
        attributes: tuple[str, ...] = (),
        node_user_ids: tuple[int, ...] = (),
    ) -> np.ndarray:
        """Feature vector of one captured tweet, then update state.

        Args:
            tweet: the captured tweet.
            attributes: selection-attribute labels of the capturing
                pseudo-honeypot node (drives the environment score).
            node_user_ids: user ids of the pseudo-honeypot nodes the
                capture crossed (pick the receiver, :meth:`receiver_of`).

        Returns:
            float64 vector of length 58 in schema order.
        """
        now = tweet.created_at
        sender = tweet.user

        receiver_id = self.receiver_of(tweet, node_user_ids)
        receiver_profile = (
            self._profiles.get(receiver_id) if receiver_id is not None else None
        )

        text = tweet.text
        normalized = normalize_text_for_dedup(text)
        last_seen = self._text_last_seen.get(normalized)
        repeated = last_seen is not None and now - last_seen <= DEDUP_WINDOW_S

        sender_activity = self.behavior.activity(sender.user_id)
        receiver_activity = (
            self.behavior.activity(receiver_id)
            if receiver_id is not None
            else None
        )

        mention_time = tweet.mention_time()
        reciprocity = (
            self.behavior.reciprocity(sender.user_id, receiver_id)
            if receiver_id is not None
            else 0
        )

        vector = np.empty(N_FEATURES)
        vector[0:16] = profile_features(sender, now)
        vector[16:32] = (
            profile_features(receiver_profile, now)
            if receiver_profile is not None
            else empty_profile_features()
        )
        vector[32] = repeated
        vector[33] = _KIND_CODE[tweet.kind]
        vector[34] = _SOURCE_CODE[tweet.source]
        vector[35] = len(tweet.hashtags)
        vector[36] = len(tweet.mentions)
        vector[37] = len(text)
        vector[38] = count_emoji(text)
        vector[39] = count_digits(text)
        vector[40] = float(reciprocity)
        # Kind and source fractions (slots 41-54) divide the running
        # counts straight into the row; a user with no history reads
        # zeros.  Each record adds exactly one count, so ``n_tweets``
        # is the counts' sum.
        n_sender = sender_activity.n_tweets
        if n_sender:
            np.divide(
                sender_activity.kind_counts, n_sender, out=vector[41:44]
            )
            np.divide(
                sender_activity.source_counts, n_sender, out=vector[47:51]
            )
        else:
            vector[41:44] = sender_activity.kind_counts
            vector[47:51] = sender_activity.source_counts
        if receiver_activity is not None:
            n_receiver = receiver_activity.n_tweets
            if n_receiver:
                np.divide(
                    receiver_activity.kind_counts,
                    n_receiver,
                    out=vector[44:47],
                )
                np.divide(
                    receiver_activity.source_counts,
                    n_receiver,
                    out=vector[51:55],
                )
            else:
                vector[44:47] = receiver_activity.kind_counts
                vector[51:55] = receiver_activity.source_counts
        else:
            vector[44:47] = 0.0
            vector[51:55] = 0.0
        vector[55] = (
            mention_time if mention_time is not None else NO_MENTION_TIME
        )
        vector[56] = sender_activity.average_interval()
        vector[57] = self.environment.score(attributes)

        self._update(tweet, normalized, attributes)
        return vector

    # ------------------------------------------------------------------

    def _update(
        self, tweet: Tweet, normalized: str, attributes: tuple[str, ...]
    ) -> None:
        self.behavior.record(tweet)
        self._profiles[tweet.user.user_id] = tweet.user
        self._text_last_seen[normalized] = tweet.created_at
        self.environment.record_capture(attributes)
        if tweet.created_at >= self._dedup_prune_at:
            self._prune_dedup(tweet.created_at)

    def _prune_dedup(self, now: float) -> None:
        horizon = now - DEDUP_WINDOW_S
        self._text_last_seen = {
            text: ts
            for text, ts in self._text_last_seen.items()
            if ts >= horizon
        }
        self._dedup_prune_at = now + DEDUP_WINDOW_S / 4
