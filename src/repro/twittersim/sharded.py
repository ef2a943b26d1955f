"""Account-range sharding of the engine hour loop.

``SimulationConfig.engine_shards > 0`` switches the engine's dominant
per-account phase — organic post emission — to a fan-out over
``repro.parallel``.  The contract has two halves:

* **The shard count defines the stream.**  Shard ``s`` of hour ``h``
  draws every per-post random variable (timing, hashtags, topic, kind,
  text) from its own ``np.random.default_rng([seed, hour, shard])``
  substream.  Running the same world with a different shard count is a
  *different* (equally valid) world — exactly like changing the seed.
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
source draws, profile counters) stay on the parent stream, exactly as
in the unsharded engine.

Worker-side telemetry (the ``engine.shard.*`` counters below) flows
back through :mod:`repro.parallel.obsmerge`, so counter totals
reconcile at any worker count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..obs import get_registry
from ..parallel import parallel_map
from . import behavior
from .clock import SECONDS_PER_HOUR
from .engine import HourStats, TwitterEngine
from .entities import Tweet, TweetKind
from .hashtags import HASHTAG_POOLS, HashtagCategory
from .population import Population
from .text import TextGenerator
from .trending import DEFAULT_TOPICS


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
    worker or inline in the parent process.  The per-post draw
    sequence mirrors ``TwitterEngine._make_organic_post`` exactly —
    only the generator differs.
    """
    rng = np.random.default_rng([task.seed, task.hour, task.shard])
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


class ShardedTwitterEngine(TwitterEngine):
    """A :class:`TwitterEngine` whose post loop fans out over shards.

    Args:
        population: the world (``config.engine_shards`` sets the shard
            count; values < 1 are clamped to 1).
        workers: pool size for the shard fan-out; ``None`` defers to
            the ambient :func:`repro.parallel.resolve_workers` rule
            and 0 forces in-process execution.  Identical output at
            every worker count.
    """

    def __init__(
        self,
        population: Population,
        taste=None,
        topics: tuple[str, ...] = DEFAULT_TOPICS,
        workers: int | None = None,
    ) -> None:
        super().__init__(population, taste, topics)
        self.n_shards = max(1, int(population.config.engine_shards))
        self.workers = workers

    def shard_bounds(self, n_rows: int) -> list[int]:
        """Contiguous account-range boundaries (len ``n_shards + 1``)."""
        return [
            n_rows * shard // self.n_shards
            for shard in range(self.n_shards + 1)
        ]

    def _emit_organic_posts(
        self, t0: float, t_end: float, hour: int, stats: HourStats
    ) -> list[Tweet]:
        pop = self.population
        # Parent-stream preamble: identical draws to the unsharded
        # engine (sessions, Poisson counts), so replies/spam/
        # suspension downstream see the same parent stream whatever
        # the worker count.
        on = self._update_sessions()
        scale = on.astype(np.float64) / pop.config.session_on_fraction
        scale[pop.always_on] = 1.0
        rates = pop.post_rate_per_day * scale / 24.0
        counts = self.rng.poisson(rates)
        posting = np.nonzero(counts)[0]
        if len(posting):
            suspended = pop.suspended_flags()
            posting = posting[~suspended[posting]]
        topic_weights = self.topic_process.weights_at(hour)
        topic_probs = topic_weights / topic_weights.sum()
        topic_cdf = topic_probs.cumsum()
        topic_cdf /= topic_cdf[-1]
        topic_cdf = tuple(topic_cdf.tolist())

        order = pop.order
        interests_of = pop.interests
        topic_affinity = pop.topic_affinity
        bounds = self.shard_bounds(len(order))
        posting_rows = posting.tolist()
        counts_of = counts
        seed = pop.config.seed
        topics = self.topic_process.topics
        tasks: list[ShardTask] = []
        pos = 0
        for shard in range(self.n_shards):
            hi = bounds[shard + 1]
            members: list[
                tuple[int, int, tuple[HashtagCategory, ...], float]
            ] = []
            while pos < len(posting_rows) and posting_rows[pos] < hi:
                row = posting_rows[pos]
                members.append(
                    (
                        row,
                        int(counts_of[row]),
                        interests_of.get(order[row], ()),
                        topic_affinity.item(row),
                    )
                )
                pos += 1
            tasks.append(
                ShardTask(
                    seed=seed,
                    hour=hour,
                    shard=shard,
                    t0=t0,
                    t_end=t_end,
                    topics=topics,
                    topic_cdf=topic_cdf,
                    posting=tuple(members),
                )
            )

        shard_protos = parallel_map(
            emit_shard, tasks, workers=self.workers, label="engine.shards"
        )

        # Deterministic merge: ascending shard order, task order within
        # a shard.  The parent replays the world-mutating tail of
        # ``_make_organic_post`` here (trending records, finalization,
        # recent-post tracking), all on the parent stream.
        tweets: list[Tweet] = []
        accounts = pop.accounts
        for protos in shard_protos:
            for row, created_at, text, kind, hashtags, topic in protos:
                if topic is not None:
                    self.trending.record(
                        topic, int(created_at // SECONDS_PER_HOUR)
                    )
                tweet = self._finalize_tweet(
                    accounts[order[row]],
                    created_at,
                    text,
                    kind=kind,
                    spammer=False,
                    hashtags=hashtags,
                    topic=topic,
                )
                tweets.append(tweet)
                self._recent_posts.append(tweet)
                stats.organic_posts += 1
        return tweets


def build_engine(
    population: Population,
    taste=None,
    topics: tuple[str, ...] = DEFAULT_TOPICS,
    workers: int | None = None,
) -> TwitterEngine:
    """The engine a world's config asks for.

    ``engine_shards > 0`` selects :class:`ShardedTwitterEngine`;
    otherwise the legacy single-stream :class:`TwitterEngine` (the
    byte-stable reference every parity suite anchors on).
    """
    if population.config.engine_shards > 0:
        return ShardedTwitterEngine(
            population, taste, topics, workers=workers
        )
    return TwitterEngine(population, taste, topics)
