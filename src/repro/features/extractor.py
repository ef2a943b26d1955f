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
character counts).  Each call builds its row as one list of Python
floats in schema order and converts it to an array once.  The
capture-row loop that drives it, passing each capture's crossed node
ids and feeding confirmed spams back into the environment tracker, is
:func:`repro.core.detector.extract_rows`, so this package never sees a
capture.
"""

from __future__ import annotations

import numpy as np

from ..twittersim.entities import Tweet, UserProfile
from .behavior import BehaviorTracker, UserActivity
from .content import (
    _KIND_CODE,
    _SOURCE_CODE,
    normalize_text_for_dedup,
)
from .environment import EnvironmentScoreTracker
from .profile import NO_PROFILE_FEATURES, profile_features
from .textstats import count_digits, count_emoji

#: Sentinel for "not a reaction to any post" in the mention-time slot.
NO_MENTION_TIME = -1.0

#: How long a normalized text stays "seen" for the is-repeated feature:
#: the paper's 1-day window for content duplication checks.
DEDUP_WINDOW_S = 86_400.0

#: Kind and source shares of a user with no observed tweets.
_NO_SHARES = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def _shares(
    activity: UserActivity | None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Kind and source fractions of one user's observed tweets.

    Each record adds exactly one kind and one source count, so
    ``n_tweets`` is each list's sum.  The counts are exact ints, so each
    fraction is their correctly rounded quotient.
    """
    if activity is None:
        return _NO_SHARES
    n = activity.n_tweets
    k0, k1, k2 = activity.kind_counts
    s0, s1, s2, s3 = activity.source_counts
    return (k0 / n, k1 / n, k2 / n), (s0 / n, s1 / n, s2 / n, s3 / n)


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
        sender_id = sender.user_id
        text = tweet.text
        behavior = self.behavior

        receiver_id = self.receiver_of(tweet, node_user_ids)
        receiver_profile = (
            None if receiver_id is None else self._profiles.get(receiver_id)
        )
        sender_activity = behavior.activity(sender_id)
        if receiver_id is None:
            receiver_activity = None
            reciprocity = 0.0
        else:
            receiver_activity = behavior.activity(receiver_id)
            reciprocity = float(behavior.reciprocity(sender_id, receiver_id))

        normalized = normalize_text_for_dedup(text)
        last_seen = self._text_last_seen.get(normalized)
        repeated = last_seen is not None and now - last_seen <= DEDUP_WINDOW_S
        mention_time = tweet.mention_time()
        sender_kinds, sender_sources = _shares(sender_activity)
        receiver_kinds, receiver_sources = _shares(receiver_activity)

        row = profile_features(sender, now)
        row += (
            profile_features(receiver_profile, now)
            if receiver_profile is not None
            else NO_PROFILE_FEATURES
        )
        row += (
            1.0 if repeated else 0.0,
            _KIND_CODE[tweet.kind._value_],
            _SOURCE_CODE[tweet.source._value_],
            float(len(tweet.hashtags)),
            float(len(tweet.mentions)),
            float(len(text)),
            float(count_emoji(text)),
            float(count_digits(text)),
            reciprocity,
        )
        row += sender_kinds
        row += receiver_kinds
        row += sender_sources
        row += receiver_sources
        row += (
            mention_time if mention_time is not None else NO_MENTION_TIME,
            (
                sender_activity.average_interval()
                if sender_activity is not None
                else 0.0
            ),
            self.environment.score(attributes),
        )

        # Fold the tweet into the state, after its own row.
        behavior.record(tweet)
        self._profiles[sender_id] = sender
        self._text_last_seen[normalized] = now
        self.environment.record_capture(attributes)
        if now >= self._dedup_prune_at:
            self._prune_dedup(now)
        return np.array(row)

    # ------------------------------------------------------------------

    def _prune_dedup(self, now: float) -> None:
        horizon = now - DEDUP_WINDOW_S
        self._text_last_seen = {
            text: ts
            for text, ts in self._text_last_seen.items()
            if ts >= horizon
        }
        self._dedup_prune_at = now + DEDUP_WINDOW_S / 4
