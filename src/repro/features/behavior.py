"""Stateful behavioral trackers backing the 18 behavior features.

The behavioral features are defined over the *observed* stream: tweet
and source distributions of each sender/receiver, pairwise reciprocity
counts, and average inter-tweet intervals are all running statistics
over what the monitor has captured so far.  The extractor updates these
trackers tweet-by-tweet in timestamp order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..twittersim.entities import Tweet, TweetKind, TweetSource

_KIND_SLOT = {
    TweetKind.TWEET: 0,
    TweetKind.RETWEET: 1,
    TweetKind.QUOTE: 2,
}

_SOURCE_SLOT = {
    TweetSource.WEB: 0,
    TweetSource.MOBILE: 1,
    TweetSource.THIRD_PARTY: 2,
    TweetSource.OTHER: 3,
}


@dataclass
class UserActivity:
    """Running per-user stream statistics."""

    kind_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(3, dtype=np.float64)
    )
    source_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(4, dtype=np.float64)
    )
    n_tweets: int = 0
    last_tweet_at: float | None = None
    total_interval: float = 0.0

    def average_interval(self) -> float:
        """Mean seconds between consecutive observed tweets (0 if < 2)."""
        n_gaps = self.n_tweets - 1
        return self.total_interval / n_gaps if n_gaps > 0 else 0.0

    def record(self, tweet: Tweet) -> None:
        """Fold one authored tweet into the statistics."""
        self.kind_counts[_KIND_SLOT[tweet.kind]] += 1
        self.source_counts[_SOURCE_SLOT[tweet.source]] += 1
        if self.last_tweet_at is not None:
            gap = tweet.created_at - self.last_tweet_at
            if gap > 0:
                self.total_interval += gap
        self.last_tweet_at = tweet.created_at
        self.n_tweets += 1


class BehaviorTracker:
    """Stream-wide behavioral state: per-user activity and reciprocity."""

    def __init__(self) -> None:
        self._activity: dict[int, UserActivity] = defaultdict(UserActivity)
        self._reciprocity: dict[tuple[int, int], int] = defaultdict(int)

    def activity(self, user_id: int) -> UserActivity:
        """Running statistics of one user (empty if never seen)."""
        return self._activity[user_id]

    def reciprocity(self, user_a: int, user_b: int) -> int:
        """Number of observed interactions between an unordered pair."""
        key = (user_a, user_b) if user_a <= user_b else (user_b, user_a)
        return self._reciprocity[key]

    def record(self, tweet: Tweet) -> None:
        """Fold one captured tweet into all behavioral statistics."""
        self._activity[tweet.user.user_id].record(tweet)
        for mention in tweet.mentions:
            a, b = tweet.user.user_id, mention.user_id
            key = (a, b) if a <= b else (b, a)
            self._reciprocity[key] += 1

    def __len__(self) -> int:
        return len(self._activity)
