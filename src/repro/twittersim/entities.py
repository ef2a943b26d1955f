"""Public data records of the synthetic Twitter platform.

These mirror the subset of Twitter's JSON objects the paper consumes:
a tweet embeds a snapshot of its author's profile, its entities
(hashtags, mentions, URLs), a source label, and timestamps.  Everything
the pseudo-honeypot pipeline reads — all 58 features of Section IV-A —
is derivable from these records, exactly as the paper derives them from
tweet JSON.

Ground truth (who is actually a spammer) is deliberately *not* on these
records; it lives in :class:`repro.twittersim.population.GroundTruth`
and is only consulted by the labeling oracle and the evaluation code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .clock import SECONDS_PER_DAY


class TweetKind(enum.Enum):
    """Tweet status: an original tweet, a retweet, or a quote tweet."""

    TWEET = "tweet"
    RETWEET = "retweet"
    QUOTE = "quote"


class TweetSource(enum.Enum):
    """The client a tweet was posted from.

    The paper buckets sources into web, mobile, third-party, and others;
    automation-heavy accounts skew toward third-party clients.
    """

    WEB = "web"
    MOBILE = "mobile"
    THIRD_PARTY = "third_party"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class UserProfile:
    """A public snapshot of an account profile at some instant.

    Attributes mirror Twitter user JSON fields.  ``created_at`` is in
    simulation seconds and may be negative for accounts that pre-date
    the simulation epoch.
    """

    user_id: int
    screen_name: str
    name: str
    created_at: float
    description: str
    friends_count: int
    followers_count: int
    statuses_count: int
    listed_count: int
    favourites_count: int
    verified: bool = False
    default_profile_image: bool = False
    profile_image_id: int = 0

    def age_days(self, now: float) -> float:
        """Account age in days at simulation time ``now`` (min 1 day).

        Clamping to one day keeps the per-day averages finite for
        brand-new accounts, matching how the paper's per-day attributes
        are necessarily computed.
        """
        return max((now - self.created_at) / SECONDS_PER_DAY, 1.0)

    def to_json(self) -> dict[str, Any]:
        """Serialize to a Twitter-like user JSON dictionary."""
        return {
            "id": self.user_id,
            "screen_name": self.screen_name,
            "name": self.name,
            "created_at": self.created_at,
            "description": self.description,
            "friends_count": self.friends_count,
            "followers_count": self.followers_count,
            "statuses_count": self.statuses_count,
            "listed_count": self.listed_count,
            "favourites_count": self.favourites_count,
            "verified": self.verified,
            "default_profile_image": self.default_profile_image,
            "profile_image_id": self.profile_image_id,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "UserProfile":
        """Deserialize from :meth:`to_json` output."""
        return cls(
            user_id=data["id"],
            screen_name=data["screen_name"],
            name=data["name"],
            created_at=data["created_at"],
            description=data["description"],
            friends_count=data["friends_count"],
            followers_count=data["followers_count"],
            statuses_count=data["statuses_count"],
            listed_count=data["listed_count"],
            favourites_count=data["favourites_count"],
            verified=data["verified"],
            default_profile_image=data["default_profile_image"],
            profile_image_id=data["profile_image_id"],
        )


@dataclass(frozen=True, slots=True)
class Mention:
    """An @-mention entity inside a tweet."""

    user_id: int
    screen_name: str


@dataclass(frozen=True, slots=True)
class Tweet:
    """A public tweet record, as delivered by the streaming API.

    ``in_reply_to_tweet_id`` / ``in_reply_to_created_at`` are set when
    the tweet reacts to a specific earlier post; the *mention time*
    behavioral feature (f_m = T_mention - T_post) is computed from them.
    """

    tweet_id: int
    created_at: float
    user: UserProfile
    text: str
    kind: TweetKind = TweetKind.TWEET
    source: TweetSource = TweetSource.WEB
    hashtags: tuple[str, ...] = ()
    mentions: tuple[Mention, ...] = ()
    urls: tuple[str, ...] = ()
    topic: str | None = None
    in_reply_to_tweet_id: int | None = None
    in_reply_to_created_at: float | None = None
    quoted_status_id: int | None = None

    def mentions_user(self, user_id: int) -> bool:
        """True if this tweet @-mentions the given user id."""
        return any(m.user_id == user_id for m in self.mentions)

    def mention_time(self) -> float | None:
        """Reaction delay f_m = T_mention - T_post, or None if not a reply."""
        if self.in_reply_to_created_at is None:
            return None
        return self.created_at - self.in_reply_to_created_at

    def to_json(self) -> dict[str, Any]:
        """Serialize to a Twitter-like tweet JSON dictionary."""
        return {
            "id": self.tweet_id,
            "created_at": self.created_at,
            "user": self.user.to_json(),
            "text": self.text,
            "kind": self.kind.value,
            "source": self.source.value,
            "entities": {
                "hashtags": list(self.hashtags),
                "user_mentions": [
                    {"id": m.user_id, "screen_name": m.screen_name}
                    for m in self.mentions
                ],
                "urls": list(self.urls),
            },
            "topic": self.topic,
            "in_reply_to_status_id": self.in_reply_to_tweet_id,
            "in_reply_to_created_at": self.in_reply_to_created_at,
            "quoted_status_id": self.quoted_status_id,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Tweet":
        """Deserialize from :meth:`to_json` output."""
        entities = data.get("entities", {})
        return cls(
            tweet_id=data["id"],
            created_at=data["created_at"],
            user=UserProfile.from_json(data["user"]),
            text=data["text"],
            kind=TweetKind(data["kind"]),
            source=TweetSource(data["source"]),
            hashtags=tuple(entities.get("hashtags", ())),
            mentions=tuple(
                Mention(m["id"], m["screen_name"])
                for m in entities.get("user_mentions", ())
            ),
            urls=tuple(entities.get("urls", ())),
            topic=data.get("topic"),
            in_reply_to_tweet_id=data.get("in_reply_to_status_id"),
            in_reply_to_created_at=data.get("in_reply_to_created_at"),
            quoted_status_id=data.get("quoted_status_id"),
        )


@dataclass(slots=True)
class AccountState:
    """The record one account registration appends to the store.

    The account then lives as a row of
    :class:`~repro.twittersim.columnar.AccountColumns`, where the
    engine mutates its counters and takes frozen :class:`UserProfile`
    snapshots into tweets, so a tweet's embedded profile reflects the
    account *at posting time*, like real tweet JSON does.
    """

    user_id: int
    screen_name: str
    name: str
    created_at: float
    description: str
    friends_count: int
    followers_count: int
    statuses_count: int
    listed_count: int
    favourites_count: int
    verified: bool = False
    default_profile_image: bool = False
    profile_image_id: int = 0
    suspended: bool = False
    last_post_at: float = field(default=float("-inf"))
    last_mentioned_at: float = field(default=float("-inf"))
