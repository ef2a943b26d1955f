"""Rule-based labeling policies (Section IV-B).

The paper lists eleven spam conditions, a seed-account whitelist for
non-spam, and an affiliation-symbol rule.  Each condition is a
standalone predicate over one tweet's :class:`TweetText` (with a little
stream context), so individual rules are unit-testable and the
pipeline can report which rule fired.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..features.content import normalize_text_for_dedup
from ..features.textstats import count_digits, count_emoji
from ..twittersim.entities import Tweet, TweetSource
from ..twittersim.text import SPAM_KEYWORD_CLASSES, is_malicious_url

#: Symbols whose group-wide presence triggers the affiliation rule.
AFFILIATION_SYMBOLS = ("💰", "🔥", "💯")

_MONEY = frozenset(SPAM_KEYWORD_CLASSES["money"])
_ADULT = frozenset(SPAM_KEYWORD_CLASSES["adult"])
_PROMO = frozenset(SPAM_KEYWORD_CLASSES["promo"])
_DECEPTION = frozenset(SPAM_KEYWORD_CLASSES["deception"])
_OFFENSIVE = frozenset({"explicit", "xxx", "offensive", "hate"})
_BAIT = _MONEY | _PROMO | _ADULT | _DECEPTION


class TweetText:
    """What the rules read of one tweet's text, each derived once.

    Attributes:
        tweet: the tweet itself.
        dedup: its :func:`normalize_text_for_dedup` form, the key of
            the stream's repeat counts.
        tokens: its text split on whitespace.
        words: its lowercased tokens, mentions and URLs left out and
            ``.,!?#`` stripped from both ends.
    """

    __slots__ = ("tweet", "dedup", "tokens", "words")

    def __init__(self, tweet: Tweet, dedup: str) -> None:
        self.tweet = tweet
        self.dedup = dedup
        self.tokens = tweet.text.split()
        self.words = {
            token.strip(".,!?#").lower()
            for token in self.tokens
            if not token.startswith(("@", "http"))
        }

    @classmethod
    def of(cls, tweet: Tweet) -> TweetText:
        """The facts of a tweet whose dedup form is not yet derived."""
        return cls(tweet, normalize_text_for_dedup(tweet.text))


@dataclass
class StreamContext:
    """Cross-tweet context the repetition and bot rules need."""

    #: Tweets seen per dedup form.
    text_counts: Counter = field(default_factory=Counter)
    #: Prior interaction pairs (sender, receiver) seen in the stream.
    known_pairs: set[tuple[int, int]] = field(default_factory=set)

    def observe(self, tweet: Tweet) -> None:
        """Fold a tweet into the context (call after evaluating it)."""
        self.fold(tweet, normalize_text_for_dedup(tweet.text))

    def fold(self, tweet: Tweet, dedup: str) -> None:
        """:meth:`observe` a tweet whose dedup form is derived."""
        self.text_counts[dedup] += 1
        sender = tweet.user.user_id
        for mention in tweet.mentions:
            self.known_pairs.add((sender, mention.user_id))


# --- The 11 spam conditions -------------------------------------------------


def rule_malicious_url(text: TweetText, ctx: StreamContext) -> bool:
    """1) has a malicious URL (blacklist hit)."""
    return any(is_malicious_url(url) for url in text.tweet.urls)


def rule_repetitive(text: TweetText, ctx: StreamContext) -> bool:
    """2) includes repetitive information (same content >= 3 times)."""
    return ctx.text_counts[text.dedup] >= 3


def rule_deceptive(text: TweetText, ctx: StreamContext) -> bool:
    """3) includes deceptive information (phishing-style keywords)."""
    return len(text.words & _DECEPTION) >= 2


def rule_pertinence(text: TweetText, ctx: StreamContext) -> bool:
    """4) has pertinence purpose: unsolicited targeted promotion."""
    return bool(text.tweet.mentions) and len(text.words & _PROMO) >= 2


def rule_meaningless(text: TweetText, ctx: StreamContext) -> bool:
    """5) includes many meaningless contents (symbol/digit-dominated)."""
    words = [
        token
        for token in text.tokens
        if not token.startswith(("@", "http", "#"))
    ]
    if len(words) > 4:
        return False
    raw = text.tweet.text
    return count_emoji(raw) + count_digits(raw) >= 6


def rule_money(text: TweetText, ctx: StreamContext) -> bool:
    """6) promises free or quick money gain."""
    return len(text.words & _MONEY) >= 2


def rule_adult(text: TweetText, ctx: StreamContext) -> bool:
    """7) includes adult content."""
    return not text.words.isdisjoint(_ADULT)


def rule_bot_automation(text: TweetText, ctx: StreamContext) -> bool:
    """8) automatic bot/app tweet with malicious signals.

    Third-party client + templated (repeated) content + a near-instant
    reaction time is the bot signature.
    """
    tweet = text.tweet
    if tweet.source is not TweetSource.THIRD_PARTY:
        return False
    repeated = ctx.text_counts[text.dedup] >= 2
    mention_time = tweet.mention_time()
    instant = mention_time is not None and mention_time < 120.0
    return repeated and instant


def rule_malicious_promoter(text: TweetText, ctx: StreamContext) -> bool:
    """9) from malicious promoters: promo keywords plus a link."""
    urls = text.tweet.urls
    return (
        bool(urls)
        and not text.words.isdisjoint(_PROMO)
        and any(is_malicious_url(url) for url in urls)
    )


def rule_friend_infiltrator(text: TweetText, ctx: StreamContext) -> bool:
    """10) friend infiltrators: cold-mention strangers with spam bait."""
    tweet = text.tweet
    if not tweet.mentions:
        return False
    sender = tweet.user.user_id
    cold = all(
        (sender, m.user_id) not in ctx.known_pairs for m in tweet.mentions
    )
    return cold and len(text.words & _BAIT) >= 2


def rule_offensive(text: TweetText, ctx: StreamContext) -> bool:
    """11) includes sensitive or offensive contents."""
    return not text.words.isdisjoint(_OFFENSIVE)


SPAM_RULES = (
    rule_malicious_url,
    rule_repetitive,
    rule_deceptive,
    rule_pertinence,
    rule_meaningless,
    rule_money,
    rule_adult,
    rule_bot_automation,
    rule_malicious_promoter,
    rule_friend_infiltrator,
    rule_offensive,
)


def matching_rules(tweet: Tweet, ctx: StreamContext) -> list[str]:
    """Names of all spam rules a tweet triggers."""
    text = TweetText.of(tweet)
    return [rule.__name__ for rule in SPAM_RULES if rule(text, ctx)]


def is_rule_spam(text: TweetText, ctx: StreamContext) -> bool:
    """True if any of the 11 conditions fires."""
    return any(rule(text, ctx) for rule in SPAM_RULES)


# --- Non-spam seeds and the affiliation-symbol rule -------------------------


def is_seed_account(tweet: Tweet) -> bool:
    """Seed non-spam: verified institutional accounts.

    The paper whitelists governments, famous companies, organizations
    and well-known persons; the platform's verified badge is the
    available proxy.
    """
    return tweet.user.verified


def symbol_affiliation_spam(
    tweets: list[Tweet], name_groups: list[list[int]]
) -> set[int]:
    """Affiliation-symbol rule over screen-name pattern groups.

    A tweet is spam if it carries an affiliation symbol *and* comes
    from a group of same-affiliation users (same registration pattern)
    in which the majority of tweets carry the symbol too.

    Args:
        tweets: candidate tweets.
        name_groups: groups of indices into ``tweets`` whose authors
            share a screen-name pattern.

    Returns:
        Indices of tweets labeled spam by this rule.
    """
    flagged: set[int] = set()
    for group in name_groups:
        with_symbol = [
            idx
            for idx in group
            if any(sym in tweets[idx].text for sym in AFFILIATION_SYMBOLS)
        ]
        if len(with_symbol) * 2 > len(group):
            flagged.update(with_symbol)
    return flagged
