"""The worker side of the engine's account-range shards.

:class:`~repro.twittersim.engine.TwitterEngine` draws its dominant
per-account phase — organic post emission — as one :class:`ShardTask`
per contiguous account range (``SimulationConfig.engine_shards``, 1 by
default) and fans the tasks out over ``repro.parallel``.  This module
holds the task and :func:`emit_shard`, the pure function a worker runs
on it.  The contract has two halves:

* **The shard count defines the stream.**  Shard ``s`` of hour ``h``
  draws every per-post random variable (timing, hashtags, topic, kind,
  text) from its own substream, NumPy's child key
  ``SeedSequence(seed, spawn_key=(h, s))``.  A plain list seed would
  not do: ``SeedSequence`` pads short entropy with zero words, so
  ``default_rng([seed, 0, 0])`` replays ``default_rng(seed)``, the
  stream that built the population.  Running the same world with a
  different shard count is a *different* (equally valid) world —
  exactly like changing the seed.
* **The worker count never does.**  Shard tasks are pure functions of
  their picklable payload, ``parallel_map`` gathers results in
  submission order, and the parent replays the merge (trending
  records, tweet finalization, stats) shard-by-shard in ascending
  shard order.  ``workers=0`` and ``workers=N`` produce bit-identical
  tweet streams, PGE tables, and report payloads.

Everything the per-post loop needs from the parent that is *not*
per-post randomness — burst-session state, Poisson post counts, the
suspension filter — is drawn from the parent's single stream before
the fan-out, so it is worker-count independent by construction.
Replies, spam, suspension, and tweet finalization (snowflake ids,
source draws, profile counters) stay on the parent stream.

Worker-side telemetry (the ``engine.shard.*`` counters below) flows
back through :mod:`repro.parallel.obsmerge`, so counter totals
reconcile at any worker count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..obs import get_registry
from . import behavior
from .entities import TweetKind
from .hashtags import HASHTAG_POOLS, HashtagCategory
from .text import TextGenerator


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work order for one hour.

    ``posting`` holds ``(row, n_posts, interests, affinity)`` per
    posting account, rows ascending within the shard's account range.
    """

    seed: int
    hour: int
    shard: int
    t0: float
    t_end: float
    topics: tuple[str, ...]
    topic_cdf: tuple[float, ...]
    posting: tuple[
        tuple[int, int, tuple[HashtagCategory, ...], float], ...
    ]


#: A shard-emitted proto-post: ``(row, created_at, text, kind,
#: hashtags, topic)``.  Plain data — the parent owns finalization.
ProtoPost = tuple[
    int, float, str, TweetKind, tuple[str, ...], "str | None"
]


def emit_shard(task: ShardTask) -> list[ProtoPost]:
    """Generate one shard's proto-posts from its private substream.

    Pure function of the task payload: runs identically inside a pool
    worker or inline in the parent process.  Each post draws its time,
    hashtags, topic, kind and text, in that order, from the shard's
    substream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(task.seed, spawn_key=(task.hour, task.shard))
    )
    text_gen = TextGenerator(rng)
    t0 = task.t0
    span = task.t_end - t0
    topic_cdf = task.topic_cdf
    topics = task.topics
    protos: list[ProtoPost] = []
    for row, n_posts, interests, affinity in task.posting:
        for __ in range(n_posts):
            created_at = t0 + span * rng.random()
            hashtags: tuple[str, ...] = ()
            if interests and rng.random() < 0.7:
                category = interests[
                    int(rng.integers(0, len(interests)))
                ]
                pool = HASHTAG_POOLS[category]
                if rng.random() < 0.8:
                    hashtags = (pool[int(rng.integers(0, len(pool)))],)
                else:
                    picks = rng.choice(len(pool), size=2, replace=False)
                    hashtags = tuple(pool[int(j)] for j in picks)
            topic: str | None = None
            if rng.random() < affinity:
                topic = topics[bisect_right(topic_cdf, rng.random())]
            kind = behavior.draw_kind(rng, spammer=False)
            text = text_gen.benign_text()
            if topic is not None:
                text = f"{text} #{topic}"
            if hashtags:
                text = text + " " + " ".join(f"#{h}" for h in hashtags)
            protos.append(
                (row, created_at, text, kind, hashtags, topic)
            )
    registry = get_registry()
    registry.counter("engine.shard.tasks").inc()
    registry.counter("engine.shard.posts").inc(len(protos))
    return protos
