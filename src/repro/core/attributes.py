"""Selection attributes of the pseudo-honeypot (Tables I and II).

Three categories:

* **C1 profile-based** — 11 attributes, each sampled at the 10 values
  of Table II, 10 accounts per value (1,100 nodes);
* **C2 hashtag-based** — 8 topical classes plus *no hashtag*
  (900 nodes);
* **C3 trending-based** — trending-up / trending-down / popular /
  no-trending (400 nodes);

for the paper's 2,400-node network.  :func:`attribute_values` is the
one definition of each profile attribute: it computes an attribute over
gathered account-counter columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..twittersim.clock import SECONDS_PER_DAY
from ..twittersim.hashtags import HashtagCategory


class AttributeCategory(enum.Enum):
    """Table I's three attribute categories."""

    PROFILE = "profile"
    HASHTAG = "hashtag"
    TRENDING = "trending"


@dataclass(frozen=True)
class AttributeSpec:
    """One profile-based selection attribute with its sample values."""

    key: str
    description: str
    sample_values: tuple[float, ...]

    def sample_label(self, value: float) -> str:
        """Stable label of one sampling bin, e.g. ``friends_count=1000``."""
        text = f"{value:g}"
        return f"{self.key}={text}"


#: Table II, in row order.
PROFILE_ATTRIBUTES: tuple[AttributeSpec, ...] = (
    AttributeSpec(
        "friends_count",
        "friends count",
        (10, 50, 100, 200, 300, 500, 1_000, 3_000, 5_000, 10_000),
    ),
    AttributeSpec(
        "followers_count",
        "follower count",
        (10, 50, 100, 200, 300, 500, 1_000, 3_000, 5_000, 10_000),
    ),
    AttributeSpec(
        "total_friends_followers",
        "total friends and followers",
        (20, 100, 200, 500, 1_000, 2_000, 3_000, 5_000, 10_000, 30_000),
    ),
    AttributeSpec(
        "friend_follower_ratio",
        "ratio of friends and followers",
        (1 / 10, 1 / 8, 1 / 4, 1 / 2, 1, 2, 4, 6, 8, 10),
    ),
    AttributeSpec(
        "account_age_days",
        "account age (days)",
        (10, 50, 100, 300, 500, 1_000, 1_500, 2_000, 2_500, 3_000),
    ),
    AttributeSpec(
        "lists_count",
        "lists count",
        (10, 20, 30, 40, 50, 70, 100, 200, 300, 500),
    ),
    AttributeSpec(
        "favorites_count",
        "favorites count",
        (10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 200_000),
    ),
    AttributeSpec(
        "status_count",
        "status count",
        (10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 200_000),
    ),
    AttributeSpec(
        "avg_lists_per_day",
        "average of lists per day",
        (1 / 100, 1 / 50, 1 / 20, 1 / 10, 1 / 8, 1 / 6, 1 / 4, 1 / 2, 1, 2),
    ),
    AttributeSpec(
        "avg_favorites_per_day",
        "average of favorites per day",
        (1 / 50, 1 / 10, 1 / 5, 1 / 2, 1, 2, 3, 5, 10, 50),
    ),
    AttributeSpec(
        "avg_statuses_per_day",
        "average of statuses per day",
        (1 / 50, 1 / 10, 1 / 5, 1 / 2, 1, 2, 3, 4, 10, 50),
    ),
)

PROFILE_ATTRIBUTE_BY_KEY: dict[str, AttributeSpec] = {
    spec.key: spec for spec in PROFILE_ATTRIBUTES
}


def _age_days(counters: dict, now: float) -> np.ndarray:
    """Account ages in days at ``now``, floored at one day (memoized
    in ``counters``)."""
    age = counters.get("age_days")
    if age is None:
        age = np.maximum((now - counters["created"]) / SECONDS_PER_DAY, 1.0)
        counters["age_days"] = age
    return age


def attribute_values(key: str, counters: dict, now: float) -> np.ndarray:
    """The profile attribute ``key`` of every account in ``counters``.

    ``counters`` maps ``created``, ``friends``, ``followers``,
    ``statuses``, ``listed`` and ``favourites`` to aligned arrays of
    the accounts' creation times and counts.  Ages are floored at one
    day, so the per-day averages of brand-new accounts stay finite, and
    the friend/follower ratio divides by at least one follower.

    Raises:
        KeyError: ``key`` is not a Table II attribute.
    """
    if key == "friends_count":
        return counters["friends"].astype(np.float64)
    if key == "followers_count":
        return counters["followers"].astype(np.float64)
    if key == "total_friends_followers":
        return (counters["friends"] + counters["followers"]).astype(
            np.float64
        )
    if key == "friend_follower_ratio":
        return counters["friends"] / np.maximum(counters["followers"], 1)
    if key == "account_age_days":
        return _age_days(counters, now)
    if key == "lists_count":
        return counters["listed"].astype(np.float64)
    if key == "favorites_count":
        return counters["favourites"].astype(np.float64)
    if key == "status_count":
        return counters["statuses"].astype(np.float64)
    if key == "avg_lists_per_day":
        return counters["listed"] / _age_days(counters, now)
    if key == "avg_favorites_per_day":
        return counters["favourites"] / _age_days(counters, now)
    if key == "avg_statuses_per_day":
        return counters["statuses"] / _age_days(counters, now)
    raise KeyError(f"unknown profile attribute {key!r}")


#: Hashtag attribute keys: the 8 classes of Table I plus no-hashtag.
HASHTAG_ATTRIBUTE_KEYS: tuple[str, ...] = tuple(
    f"hashtag_{category.value}" for category in HashtagCategory
) + ("no_hashtag",)

#: Trending attribute keys of Table I.
TRENDING_ATTRIBUTE_KEYS: tuple[str, ...] = (
    "trending_up",
    "trending_down",
    "popular_tweets",
    "no_trending",
)

#: Every attribute key the full 2,400-node network selects on.
ALL_ATTRIBUTE_KEYS: tuple[str, ...] = (
    tuple(spec.key for spec in PROFILE_ATTRIBUTES)
    + HASHTAG_ATTRIBUTE_KEYS
    + TRENDING_ATTRIBUTE_KEYS
)


def category_of_key(key: str) -> AttributeCategory:
    """Category of an attribute key.

    Raises:
        KeyError: unknown key.
    """
    if key in PROFILE_ATTRIBUTE_BY_KEY:
        return AttributeCategory.PROFILE
    if key in HASHTAG_ATTRIBUTE_KEYS:
        return AttributeCategory.HASHTAG
    if key in TRENDING_ATTRIBUTE_KEYS:
        return AttributeCategory.TRENDING
    raise KeyError(f"unknown attribute key {key!r}")


def hashtag_category_of_key(key: str) -> HashtagCategory | None:
    """HashtagCategory for a ``hashtag_*`` key, None for ``no_hashtag``.

    Raises:
        KeyError: if the key is not a hashtag attribute.
    """
    if key == "no_hashtag":
        return None
    if key in HASHTAG_ATTRIBUTE_KEYS:
        return HashtagCategory(key.removeprefix("hashtag_"))
    raise KeyError(f"{key!r} is not a hashtag attribute")
