"""Pseudo-honeypot monitoring (Section III-E).

The monitor is the stream listener behind the network's filtered
stream.  For every matched tweet it records which honeypot nodes were
crossed and under which selection attributes, and assigns the paper's
capture category:

* **OWN_POST** (category 1) — the parasitic account's own activity;
* **MENTION** (categories 2/3) — another account mentioning a node;
  whether it is a benign mention (2) or spam (3) is exactly what the
  detector decides later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..obs import get_event_stream, get_registry
from ..twittersim.entities import Tweet
from .selection import HoneypotNode


class CaptureCategory(enum.Enum):
    """Capture categories of Section III-E."""

    OWN_POST = "own_post"
    MENTION = "mention"


@dataclass(frozen=True, slots=True)
class CapturedTweet:
    """One monitored tweet with its capture context."""

    tweet: Tweet
    hour: int
    capture_category: CaptureCategory
    #: Attribute keys of every honeypot node this tweet crossed.
    attribute_keys: tuple[str, ...]
    #: Sampling-bin labels of those nodes (Table VI granularity).
    sample_labels: tuple[str, ...]
    #: User ids of the crossed nodes.
    node_user_ids: tuple[int, ...]
    #: Recovered via REST after a stream gap, not seen live.
    backfilled: bool = False

    @property
    def sender_id(self) -> int:
        """Author of the captured tweet."""
        return self.tweet.user.user_id


class PseudoHoneypotMonitor:
    """Stream listener that tags matches with their capture context."""

    def __init__(self) -> None:
        self._nodes_by_name: dict[str, HoneypotNode] = {}
        self._hour = 0
        self.captured: list[CapturedTweet] = []
        #: Tweet ids ever examined — dedups faulty redelivery and
        #: keeps a reconnect backfill from double-counting tweets the
        #: stream already delivered live.
        self._seen_ids: set[int] = set()
        registry = get_registry()
        self._m_captures = registry.counter("network.captures")
        self._m_drops = registry.counter("network.drops")
        self._m_by_category = {
            category: registry.counter(f"network.captures.{category.value}")
            for category in CaptureCategory
        }
        self._events = get_event_stream()

    @property
    def node_ids(self) -> set[int]:
        """User ids of the currently deployed nodes."""
        return {node.user_id for node in self._nodes_by_name.values()}

    def set_nodes(self, nodes: list[HoneypotNode], hour: int) -> None:
        """Install the hour's node set (called at each switch)."""
        self._nodes_by_name = {node.screen_name: node for node in nodes}
        self._hour = hour

    def on_tweet(self, tweet: Tweet) -> None:
        """Record a matched tweet with its crossing nodes.

        Idempotent per tweet id: a redelivered tweet (duplicate fault,
        or live delivery followed by a backfill of the same window) is
        dropped, so capture counts never double-count.
        """
        if tweet.tweet_id in self._seen_ids:
            # Lazily registered: fault-free runs never see a
            # duplicate, keeping their metrics snapshot unchanged.
            get_registry().counter("capture.duplicate_dropped").inc()
            return
        self._seen_ids.add(tweet.tweet_id)
        self._capture(tweet, backfilled=False)

    def backfill(self, tweets: list[Tweet]) -> int:
        """Ingest gap-recovery tweets fetched over REST.

        Tweets the stream already delivered live are skipped; the
        rest are captured with ``backfilled=True``.  Returns how many
        were newly captured (crossing a deployed node).
        """
        recovered = 0
        for tweet in tweets:
            if tweet.tweet_id in self._seen_ids:
                continue
            self._seen_ids.add(tweet.tweet_id)
            if self._capture(tweet, backfilled=True):
                recovered += 1
        if recovered:
            get_registry().counter("capture.gap_backfilled").inc(
                recovered
            )
        return recovered

    def _capture(self, tweet: Tweet, backfilled: bool) -> bool:
        crossed: list[HoneypotNode] = []
        author_node = self._nodes_by_name.get(tweet.user.screen_name)
        if author_node is not None:
            crossed.append(author_node)
        for mention in tweet.mentions:
            node = self._nodes_by_name.get(mention.screen_name)
            if node is not None and node is not author_node:
                crossed.append(node)
        if not crossed:
            # Matched by the stream filter but no longer crossing a
            # deployed node (e.g. delivered just after a switch).
            self._m_drops.inc()
            return False
        category = (
            CaptureCategory.OWN_POST
            if author_node is not None
            else CaptureCategory.MENTION
        )
        if len(crossed) == 1:
            # Most captures cross one node: nothing to deduplicate.
            attribute_keys = (crossed[0].attribute_key,)
            sample_labels = (crossed[0].sample_label,)
        else:
            attribute_keys = tuple(
                dict.fromkeys(n.attribute_key for n in crossed)
            )
            sample_labels = tuple(
                dict.fromkeys(n.sample_label for n in crossed)
            )
        self.captured.append(
            CapturedTweet(
                tweet=tweet,
                hour=self._hour,
                capture_category=category,
                attribute_keys=attribute_keys,
                sample_labels=sample_labels,
                node_user_ids=tuple(n.user_id for n in crossed),
                backfilled=backfilled,
            )
        )
        self._m_captures.inc()
        self._m_by_category[category].inc()
        if backfilled:
            self._events.emit(
                "network.capture",
                hour=self._hour,
                category=category.value,
                n_nodes_crossed=len(crossed),
                backfilled=True,
            )
        else:
            self._events.emit(
                "network.capture",
                hour=self._hour,
                category=category.value,
                n_nodes_crossed=len(crossed),
            )
        return True

    def drain(self) -> list[CapturedTweet]:
        """Return and clear the capture buffer."""
        captured = self.captured
        self.captured = []
        return captured
