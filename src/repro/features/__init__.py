"""Feature extraction: the paper's 58 tweet features (Section IV-A)."""

from .behavior import BehaviorTracker, UserActivity
from .content import normalize_text_for_dedup
from .environment import EnvironmentScoreTracker
from .extractor import NO_MENTION_TIME, FeatureExtractor
from .profile import NO_PROFILE_FEATURES, profile_features
from .schema import (
    BEHAVIOR_FEATURE_NAMES,
    CONTENT_FEATURE_NAMES,
    FEATURE_GROUPS,
    FEATURE_NAMES,
    N_FEATURES,
    PROFILE_FEATURE_NAMES,
    feature_index,
)
from .textstats import count_digits, count_emoji, strip_for_shingling

__all__ = [
    "BEHAVIOR_FEATURE_NAMES",
    "BehaviorTracker",
    "CONTENT_FEATURE_NAMES",
    "EnvironmentScoreTracker",
    "FEATURE_GROUPS",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "N_FEATURES",
    "NO_MENTION_TIME",
    "NO_PROFILE_FEATURES",
    "PROFILE_FEATURE_NAMES",
    "UserActivity",
    "count_digits",
    "count_emoji",
    "feature_index",
    "normalize_text_for_dedup",
    "profile_features",
    "strip_for_shingling",
]
