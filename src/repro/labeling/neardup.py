"""Near-duplicate tweet detection in daily windows (Section IV-B).

The paper checks near-duplicated tweets inside 1-day time windows,
skipping contents shorter than 20 characters.  Texts are normalized
(mentions and URLs stripped — campaigns rotate both per blast) and
grouped by MinHash signature within each window: as in the paper, two
texts are the same when their signatures agree.
"""

from __future__ import annotations

from ..features.content import normalize_text_for_dedup
from ..twittersim.clock import SECONDS_PER_DAY
from ..twittersim.entities import Tweet
from .minhash import MinHasher, _distinct_signatures, group_signatures

#: Minimum raw content length considered (paper: 20 characters).
MIN_CONTENT_LENGTH = 20


def group_near_duplicates(
    tweets: list[Tweet],
    hasher: MinHasher | None = None,
    window_s: float = SECONDS_PER_DAY,
    workers: int | None = None,
) -> list[list[int]]:
    """Group indices of near-duplicate tweets per 1-day window.

    Derives each tweet's dedup form and defers to
    :func:`group_dedup_forms`.
    """
    return group_dedup_forms(
        tweets,
        [normalize_text_for_dedup(tweet.text) for tweet in tweets],
        hasher,
        window_s,
        workers,
    )


def group_dedup_forms(
    tweets: list[Tweet],
    dedup: list[str],
    hasher: MinHasher | None = None,
    window_s: float = SECONDS_PER_DAY,
    workers: int | None = None,
) -> list[list[int]]:
    """:func:`group_near_duplicates` given each tweet's dedup form.

    ``dedup[i]`` is ``normalize_text_for_dedup(tweets[i].text)``, which
    the labeler derives once for every stage that reads it.  Windowing
    runs in the parent (cheap, and the ``Tweet`` objects stay out of
    the pickle stream); the MinHash signatures — the hot loop — run
    once per distinct dedup form and fan out over ``workers`` pool
    processes (0 = sequential; ``None`` defers to the ambient
    :func:`repro.parallel.resolve_workers` rule).  Tweets group when
    their window and signature agree
    (:func:`repro.labeling.minhash.group_signatures`), so the groups
    are the same at any worker count.

    Returns:
        Groups of indices into ``tweets``, each of size >= 2, in
        first-appearance order; a group never spans two windows.
    """
    hasher = hasher or MinHasher()
    eligible = [
        (idx, int(tweet.created_at // window_s))
        for idx, tweet in enumerate(tweets)
        if len(tweet.text) >= MIN_CONTENT_LENGTH and len(dedup[idx]) >= 3
    ]
    signatures = _distinct_signatures(
        [dedup[idx] for idx, __ in eligible],
        hasher.signatures,
        workers,
        "neardup",
    )
    groups = group_signatures(
        signatures, scopes=[window for __, window in eligible]
    )
    return [[eligible[i][0] for i in members] for members in groups]
