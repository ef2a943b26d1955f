"""The 16 account-profile features (Section IV-A, "Account Profile").

Extracted from the profile snapshot embedded in tweet JSON, for both
the sender and — when the tweet mentions a pseudo-honeypot node — the
receiver.  Tweets without an applicable receiver get a zero block
(footnote 2: receiver features exist only for receivers we can single
out).
"""

from __future__ import annotations

from ..twittersim.entities import UserProfile
from .textstats import count_digits, count_emoji

N_PROFILE_FEATURES = 16

#: The block of a tweet with no receiver profile to read.
NO_PROFILE_FEATURES: tuple[float, ...] = (0.0,) * N_PROFILE_FEATURES

#: Character-class statistics are pure functions of the description
#: string, and descriptions repeat massively (one per account, embedded
#: in every tweet snapshot), so they memoize collision-free on the
#: string itself.  The cap only bounds pathological churn.
_DESC_STATS_CAP = 200_000
_desc_stats: dict[str, tuple[float, float]] = {}


def _description_stats(text: str) -> tuple[float, float]:
    stats = _desc_stats.get(text)
    if stats is None:
        if len(_desc_stats) >= _DESC_STATS_CAP:
            _desc_stats.clear()
        stats = (float(count_emoji(text)), float(count_digits(text)))
        _desc_stats[text] = stats
    return stats


def profile_features(profile: UserProfile, now: float) -> list[float]:
    """The 16 profile features of one account at time ``now``."""
    age = profile.age_days(now)
    n_emoji, n_digits = _description_stats(profile.description)
    return [
        float(profile.friends_count),
        float(profile.followers_count),
        age,
        float(profile.statuses_count),
        profile.statuses_count / age,
        float(profile.listed_count),
        profile.listed_count / age,
        profile.favourites_count / age,
        float(profile.favourites_count),
        float(profile.verified),
        float(profile.default_profile_image),
        float(len(profile.screen_name)),
        float(len(profile.name)),
        float(len(profile.description)),
        n_emoji,
        n_digits,
    ]
