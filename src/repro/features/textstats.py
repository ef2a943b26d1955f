"""Character-class statistics over tweet texts and profile strings."""

from __future__ import annotations

import re
import unicodedata

#: ASCII digits and every code point outside ASCII: within ASCII
#: ``str.isdigit`` accepts exactly 0-9, outside it more than decimal
#: digits (superscripts, circled digits), so those are asked one by
#: one.
_DIGIT_CANDIDATES = re.compile("[0-9\u0080-\U0010ffff]")

#: Every code point at or above U+2600: the only ones :func:`is_emoji`
#: can accept.
_AT_OR_ABOVE_U2600 = re.compile("[\u2600-\U0010ffff]")

#: What :func:`strip_for_shingling` removes from an ASCII token: every
#: character but ``str.isalnum``'s ASCII ones (no ASCII character is
#: an emoji).
_ASCII_NON_ALNUM = re.compile("[^0-9A-Za-z]")

#: Per-character emoji verdicts; the alphabet of any run is tiny, so
#: this stays a few dozen entries.
_emoji_cache: dict[str, bool] = {}


def count_digits(text: str) -> int:
    """Number of digit characters (``str.isdigit``)."""
    return sum(map(str.isdigit, _DIGIT_CANDIDATES.findall(text)))


def is_emoji(ch: str) -> bool:
    """Heuristic emoji test: symbol/other characters above U+2600.

    Covers the emoji blocks (Misc Symbols, Dingbats, Supplemental
    Symbols, Emoticons) without an external emoji database.
    """
    cached = _emoji_cache.get(ch)
    if cached is None:
        cached = ord(ch) >= 0x2600 and unicodedata.category(ch) in (
            "So",
            "Sk",
            "Cn",
        )
        _emoji_cache[ch] = cached
    return cached


def count_emoji(text: str) -> int:
    """Number of emoji characters (variation selectors excluded)."""
    if text.isascii():
        # Every ASCII code point is below U+2600.
        return 0
    return sum(map(is_emoji, _AT_OR_ABOVE_U2600.findall(text)))


def strip_for_shingling(text: str) -> str:
    """Normalize a text for MinHash: drop URLs, emoji, punctuation,
    and digit-only tokens, collapsing case/whitespace.

    Mirrors Section IV-B's preprocessing (remove URL, emoji, stop
    words, special characters).  Digit-only tokens are dropped because
    campaigns append counters/cache-busters to otherwise identical
    blasts — exactly the variation near-duplicate detection must see
    through.
    """
    tokens = []
    for token in text.lower().split():
        if token.startswith("http"):
            continue
        if token.isascii():
            cleaned = (
                token if token.isalnum() else _ASCII_NON_ALNUM.sub("", token)
            )
        else:
            cleaned = "".join(
                ch for ch in token if ch.isalnum() and not is_emoji(ch)
            )
        if cleaned and not cleaned.isdigit():
            tokens.append(cleaned)
    return " ".join(tokens)
