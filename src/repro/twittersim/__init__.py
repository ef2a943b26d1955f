"""Synthetic Twitter platform substrate.

Everything the pseudo-honeypot pipeline consumes from the real Twitter
platform — account profiles, the public tweet firehose, streaming
filters, REST lookups, trending analytics, the suspension process — is
reproduced here as a deterministic, seedable simulation.  See DESIGN.md
for the substitution rationale.
"""

from .campaigns import Campaign, SpammerTasteModel, TasteWeights
from .clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimClock, days, hours
from .config import SimulationConfig
from .drift import apply_spammer_drift, drifted_taste_weights
from .engine import HourStats, TwitterEngine
from .entities import (
    AccountState,
    Mention,
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)
from .hashtags import HASHTAG_POOLS, NO_HASHTAG, HashtagCategory, category_of
from .images import ImageStore
from .population import AccountKind, GroundTruth, Population, build_population
from .trending import DEFAULT_TOPICS, TopicProcess, TrendingTracker

__all__ = [
    "AccountKind",
    "AccountState",
    "Campaign",
    "DEFAULT_TOPICS",
    "GroundTruth",
    "HASHTAG_POOLS",
    "HashtagCategory",
    "HourStats",
    "ImageStore",
    "Mention",
    "NO_HASHTAG",
    "Population",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SimClock",
    "SimulationConfig",
    "SpammerTasteModel",
    "TasteWeights",
    "TopicProcess",
    "TrendingTracker",
    "Tweet",
    "TweetKind",
    "TweetSource",
    "TwitterEngine",
    "UserProfile",
    "apply_spammer_drift",
    "build_population",
    "category_of",
    "days",
    "drifted_taste_weights",
    "hours",
]
