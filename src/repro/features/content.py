"""Codes of the 8 tweet-content features (Section IV-A, "Tweet Contents").

The extractor writes the content block (slots 32-39) itself; this
module holds the kind and source codes and the dedup normalization it
reads.
"""

from __future__ import annotations

from ..twittersim.entities import TweetKind, TweetSource

# Keyed by the members' ``_value_`` strings: a dict lookup by an enum
# member runs ``Enum.__hash__`` in Python, a string key hashes in C.
_KIND_CODE = {
    TweetKind.TWEET.value: 0.0,
    TweetKind.RETWEET.value: 1.0,
    TweetKind.QUOTE.value: 2.0,
}

_SOURCE_CODE = {
    TweetSource.WEB.value: 0.0,
    TweetSource.MOBILE.value: 1.0,
    TweetSource.THIRD_PARTY.value: 2.0,
    TweetSource.OTHER.value: 3.0,
}


def normalize_text_for_dedup(text: str) -> str:
    """Canonical form for the "is repeated" feature.

    Mentions and URLs are stripped so a campaign blasting the same
    slogan at different victims still counts as repeated content.
    """
    return " ".join(
        [
            token
            for token in text.lower().split()
            if not token.startswith(("@", "http"))
        ]
    )
