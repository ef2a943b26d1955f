"""The 58-feature extractor (Section IV-A).

``FeatureExtractor`` is stateful: behavioral features are running
statistics over the captured stream, the "is repeated" content feature
needs a dedup memory, receiver-profile features need a profile cache,
and the environment score needs the per-attribute group-likelihood
tracker.  Feed it captured tweets in timestamp order; each call
extracts the feature vector *from the past only* and then folds the
tweet into the state (no self-leakage).  The capture-row loop that
drives it, and feeds confirmed spams back into the environment
tracker, is :func:`repro.core.detector.extract_rows`, so this package
never sees a capture.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry
from ..twittersim.entities import Tweet, UserProfile
from .behavior import BehaviorTracker
from .cache import LRUCache
from .content import (
    _KIND_CODE,
    _SOURCE_CODE,
    normalize_text_for_dedup,
)
from .textstats import count_digits, count_emoji
from .environment import EnvironmentScoreTracker
from .profile import (
    empty_profile_features,
    profile_features,
    refresh_age_slots,
)
from .schema import N_FEATURES

#: Sentinel for "not a reaction to any post" in the mention-time slot.
NO_MENTION_TIME = -1.0


class FeatureExtractor:
    """Extracts the paper's 58 features from a captured tweet stream.

    Args:
        honeypot_ids: ids of current pseudo-honeypot nodes; a tweet's
            *receiver* is its first mentioned honeypot node, falling
            back to its first mention (footnote 2 of the paper).
        environment: shared group-likelihood tracker; a fresh one is
            created if omitted.
        dedup_window_s: how long a normalized text stays "seen" for the
            is-repeated feature (paper uses a 1-day window for content
            duplication checks).
        profile_cache_cap: LRU entry cap for the profile-feature memo
            (None = :attr:`PROFILE_CACHE_CAP`); the service layer
            shrinks it in cache-thrash tests.
    """

    def __init__(
        self,
        honeypot_ids: set[int] | None = None,
        environment: EnvironmentScoreTracker | None = None,
        dedup_window_s: float = 86_400.0,
        profile_cache_cap: int | None = None,
    ) -> None:
        self.honeypot_ids = honeypot_ids or set()
        self.environment = environment or EnvironmentScoreTracker()
        self.dedup_window_s = dedup_window_s
        self.behavior = BehaviorTracker()
        self._profiles: dict[int, UserProfile] = {}
        self._text_last_seen: dict[str, float] = {}
        self._dedup_prune_at = 0.0
        # Profile-feature memo: 12 of the 16 slots are pure functions
        # of the (frozen, hashable) profile snapshot; the 4 age slots
        # are refreshed per extraction, keeping hits bitwise-identical
        # to a full recompute.  Snapshots repeat heavily — a receiver's
        # cached profile serves every mention until it posts again.
        # LRU eviction (vs the old clear-on-full dict) keeps the hot
        # working set resident under long always-on streams; eviction
        # policy can never change a feature value, only hit rates.
        self._pf_cache = LRUCache(
            profile_cache_cap
            if profile_cache_cap is not None
            else self.PROFILE_CACHE_CAP
        )
        # Text-derived values (normalized dedup form, emoji/digit
        # counts) are pure functions of the text, and campaign blasts
        # repeat texts heavily — memoize per distinct string.
        self._text_stats = LRUCache(self.TEXT_STATS_CAP)
        registry = get_registry()
        self._m_pf_hits = registry.counter("features.profile_cache.hits")
        self._m_pf_misses = registry.counter("features.profile_cache.misses")

    #: Entry cap for the per-extractor profile-feature memo.
    PROFILE_CACHE_CAP = 50_000

    #: Entry cap for the per-text statistics memo.
    TEXT_STATS_CAP = 200_000

    # ------------------------------------------------------------------

    def register_profile(self, profile: UserProfile) -> None:
        """Seed the receiver-profile cache (e.g. with honeypot nodes)."""
        self._profiles[profile.user_id] = profile

    def set_honeypot_ids(self, honeypot_ids: set[int]) -> None:
        """Update current honeypot node ids (hourly switching)."""
        self.honeypot_ids = honeypot_ids

    def receiver_of(self, tweet: Tweet) -> int | None:
        """The receiver account id of a tweet, if any."""
        for mention in tweet.mentions:
            if mention.user_id in self.honeypot_ids:
                return mention.user_id
        return tweet.mentions[0].user_id if tweet.mentions else None

    # ------------------------------------------------------------------

    def extract(
        self, tweet: Tweet, attributes: tuple[str, ...] = ()
    ) -> np.ndarray:
        """Feature vector of one captured tweet, then update state.

        Args:
            tweet: the captured tweet.
            attributes: selection-attribute labels of the capturing
                pseudo-honeypot node (drives the environment score).

        Returns:
            float64 vector of length 58 in schema order.
        """
        now = tweet.created_at
        sender = tweet.user

        receiver_id = self.receiver_of(tweet)
        receiver_profile = (
            self._profiles.get(receiver_id) if receiver_id is not None else None
        )

        text = tweet.text
        stats = self._text_stats.get(text)
        if stats is None:
            stats = (
                normalize_text_for_dedup(text),
                count_emoji(text),
                count_digits(text),
            )
            self._text_stats.put(text, stats)
        normalized, n_emoji, n_digits = stats
        last_seen = self._text_last_seen.get(normalized)
        repeated = (
            last_seen is not None and now - last_seen <= self.dedup_window_s
        )

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
        vector[0:16] = self._profile_features_cached(sender, now)
        vector[16:32] = (
            self._profile_features_cached(receiver_profile, now)
            if receiver_profile is not None
            else empty_profile_features()
        )
        vector[32] = repeated
        vector[33] = _KIND_CODE[tweet.kind]
        vector[34] = _SOURCE_CODE[tweet.source]
        vector[35] = len(tweet.hashtags)
        vector[36] = len(tweet.mentions)
        vector[37] = len(text)
        vector[38] = n_emoji
        vector[39] = n_digits
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

    @property
    def profile_cache_hits(self) -> int:
        """Profile-feature memo hits since construction."""
        return self._pf_cache.hits

    @property
    def profile_cache_misses(self) -> int:
        """Profile-feature memo misses since construction."""
        return self._pf_cache.misses

    def _profile_features_cached(
        self, profile: UserProfile, now: float
    ) -> np.ndarray:
        """Per-account profile features with the age slots refreshed."""
        base = self._pf_cache.get(profile)
        if base is None:
            self._m_pf_misses.inc()
            fresh = profile_features(profile, now)
            self._pf_cache.put(profile, fresh)
            return fresh
        self._m_pf_hits.inc()
        return refresh_age_slots(base, profile, now)

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
        horizon = now - self.dedup_window_s
        self._text_last_seen = {
            text: ts
            for text, ts in self._text_last_seen.items()
            if ts >= horizon
        }
        self._dedup_prune_at = now + self.dedup_window_s / 4
