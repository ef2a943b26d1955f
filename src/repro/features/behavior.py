"""Stateful behavioral trackers backing the 18 behavior features.

The behavioral features are defined over the *observed* stream: tweet
and source distributions of each sender/receiver, pairwise reciprocity
counts, and average inter-tweet intervals are all running statistics
over what the monitor has captured so far.  The extractor updates these
trackers tweet-by-tweet in timestamp order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..twittersim.entities import Tweet, TweetKind, TweetSource

# Keyed by the members' ``_value_`` strings: a dict lookup by an enum
# member runs ``Enum.__hash__`` in Python, a string key hashes in C.
_KIND_SLOT = {
    TweetKind.TWEET.value: 0,
    TweetKind.RETWEET.value: 1,
    TweetKind.QUOTE.value: 2,
}

_SOURCE_SLOT = {
    TweetSource.WEB.value: 0,
    TweetSource.MOBILE.value: 1,
    TweetSource.THIRD_PARTY.value: 2,
    TweetSource.OTHER.value: 3,
}


@dataclass
class UserActivity:
    """Running per-user stream statistics."""

    kind_counts: list[int] = field(default_factory=lambda: [0, 0, 0])
    source_counts: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    n_tweets: int = 0
    last_tweet_at: float | None = None
    total_interval: float = 0.0

    def average_interval(self) -> float:
        """Mean seconds between consecutive observed tweets (0 if < 2)."""
        n_gaps = self.n_tweets - 1
        return self.total_interval / n_gaps if n_gaps > 0 else 0.0

    def record(self, tweet: Tweet) -> None:
        """Fold one authored tweet into the statistics."""
        self.kind_counts[_KIND_SLOT[tweet.kind._value_]] += 1
        self.source_counts[_SOURCE_SLOT[tweet.source._value_]] += 1
        if self.last_tweet_at is not None:
            gap = tweet.created_at - self.last_tweet_at
            if gap > 0:
                self.total_interval += gap
        self.last_tweet_at = tweet.created_at
        self.n_tweets += 1


class BehaviorTracker:
    """Stream-wide behavioral state: per-user activity and reciprocity.

    Only :meth:`record` adds state; a lookup of an id never seen
    leaves the tracker as it was.
    """

    def __init__(self) -> None:
        self._activity: dict[int, UserActivity] = {}
        self._reciprocity: dict[tuple[int, int], int] = {}

    def activity(self, user_id: int) -> UserActivity | None:
        """Running statistics of one user; None if never seen sending."""
        return self._activity.get(user_id)

    def reciprocity(self, user_a: int, user_b: int) -> int:
        """Number of observed interactions between an unordered pair."""
        key = (user_a, user_b) if user_a <= user_b else (user_b, user_a)
        return self._reciprocity.get(key, 0)

    def record(self, tweet: Tweet) -> None:
        """Fold one captured tweet into all behavioral statistics."""
        sender_id = tweet.user.user_id
        activity = self._activity.get(sender_id)
        if activity is None:
            activity = self._activity[sender_id] = UserActivity()
        activity.record(tweet)
        reciprocity = self._reciprocity
        for mention in tweet.mentions:
            a, b = sender_id, mention.user_id
            key = (a, b) if a <= b else (b, a)
            reciprocity[key] = reciprocity.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self._activity)
