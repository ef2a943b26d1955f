"""Codes of the 8 tweet-content features (Section IV-A, "Tweet Contents").

The extractor writes the content block (slots 32-39) itself; this
module holds the kind and source codes and the dedup normalization it
reads.
"""

from __future__ import annotations

from ..twittersim.entities import TweetKind, TweetSource

_KIND_CODE = {
    TweetKind.TWEET: 0.0,
    TweetKind.RETWEET: 1.0,
    TweetKind.QUOTE: 2.0,
}

_SOURCE_CODE = {
    TweetSource.WEB: 0.0,
    TweetSource.MOBILE: 1.0,
    TweetSource.THIRD_PARTY: 2.0,
    TweetSource.OTHER: 3.0,
}


def normalize_text_for_dedup(text: str) -> str:
    """Canonical form for the "is repeated" feature.

    Mentions and URLs are stripped so a campaign blasting the same
    slogan at different victims still counts as repeated content.
    """
    tokens = [
        token
        for token in text.lower().split()
        if not token.startswith("@") and not token.startswith("http")
    ]
    return " ".join(tokens)

