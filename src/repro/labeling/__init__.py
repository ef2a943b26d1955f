"""Ground-truth labeling: suspension, clustering, rules, manual oracle."""

from .dhash import dhash, dhash_many, group_by_dhash, hamming_distance
from .manual import ManualChecker
from .minhash import MinHasher, group_by_signature, stable_hash64
from .neardup import group_near_duplicates
from .pipeline import (
    METHODS,
    GroundTruthLabeler,
    LabeledDataset,
    MethodCounts,
)
from .rules import (
    SPAM_RULES,
    StreamContext,
    TweetText,
    is_rule_spam,
    is_seed_account,
    matching_rules,
    symbol_affiliation_spam,
)
from .screenname import group_by_pattern, pattern_key, sigma_sequence
from .suspended import find_suspended

__all__ = [
    "GroundTruthLabeler",
    "LabeledDataset",
    "METHODS",
    "ManualChecker",
    "MethodCounts",
    "MinHasher",
    "SPAM_RULES",
    "StreamContext",
    "TweetText",
    "dhash",
    "dhash_many",
    "find_suspended",
    "group_by_dhash",
    "group_by_pattern",
    "group_by_signature",
    "group_near_duplicates",
    "hamming_distance",
    "is_rule_spam",
    "is_seed_account",
    "matching_rules",
    "pattern_key",
    "sigma_sequence",
    "stable_hash64",
    "symbol_affiliation_spam",
]
