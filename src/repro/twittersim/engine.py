"""Event-driven platform engine.

The engine advances the world one hour at a time.  Per hour it:

1. delivers organic replies scheduled by earlier posts;
2. emits organic posts (Poisson per-account, rate = statuses/day / 24),
   with hashtags drawn from the author's interests and trending topics
   from the platform topic process.  Post counts are drawn here; each
   post's own variables are drawn by account-range shards from their
   own substreams (:mod:`repro.twittersim.sharded`), fanned out over
   ``repro.parallel`` and merged in shard order;
3. schedules organic replies to fresh posts (reply mass grows with the
   author's follower count; delays are log-normal, median ~20 min);
4. emits spam mentions: campaign members, lone spammers, and
   compromised relays pick victims among recently active accounts with
   probability proportional to the :class:`SpammerTasteModel` score —
   the hidden preference the pseudo-honeypot pipeline must rediscover;
5. runs the platform suspension process (spammers are suspended at a
   constant hazard; campaigns respawn suspended members);
6. feeds every tweet, time-ordered, to registered subscribers (the
   streaming API) and keeps rolling indexes for the REST API.

The hour loop draws from the population's seeded generator (the
parent stream), except for each shard's per-post draws, which come
from a substream keyed by the world seed, the hour and the shard.  The
same config gives the same world at any worker count.
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..obs import get_event_stream, get_registry, resources
from ..parallel import parallel_map
from . import behavior
from .campaigns import SpammerTasteModel
from .clock import SECONDS_PER_HOUR, SimClock
from .entities import AccountState, Mention, Tweet, TweetKind
from .hashtags import HashtagCategory, category_of
from .ids import SnowflakeGenerator
from .population import AccountKind, Population
from .sharded import ShardTask, emit_shard
from .text import TextGenerator
from .trending import DEFAULT_TOPICS, TopicProcess, TrendingTracker

TweetCallback = Callable[[Tweet], None]

log = logging.getLogger("repro.twittersim.engine")


@dataclass(order=True)
class _PendingReply:
    """A scheduled organic reply, ordered by delivery time."""

    deliver_at: float
    replier_id: int = field(compare=False)
    target: Tweet = field(compare=False)


@dataclass
class HourStats:
    """Aggregate counters for one simulated hour."""

    hour: int
    organic_posts: int = 0
    organic_replies: int = 0
    spam_mentions: int = 0
    suspensions: int = 0

    @property
    def total_tweets(self) -> int:
        return self.organic_posts + self.organic_replies + self.spam_mentions


class TwitterEngine:
    """The synthetic platform: population + activity + moderation.

    Args:
        population: the world; ``config.engine_shards`` sets how many
            account-range shards draw the organic posts.
        workers: pool size for the shard fan-out; ``None`` defers to
            the ambient :func:`repro.parallel.resolve_workers` rule and
            0 forces in-process execution.  Identical output at every
            worker count.
    """

    #: How many hours a post stays eligible as a spam-victim anchor.
    RECENT_POST_HOURS = 2

    #: Candidate sample size per spam victim selection.
    VICTIM_CANDIDATES = 48

    #: Rolling recent-tweet index horizon for the REST search endpoint.
    SEARCH_INDEX_HOURS = 24

    #: Hard cap on the recent-tweet index size.
    SEARCH_INDEX_CAP = 120_000

    def __init__(
        self, population: Population, workers: int | None = None
    ) -> None:
        self.population = population
        self.n_shards = population.config.engine_shards
        self.workers = workers
        self.clock = SimClock()
        self.taste = SpammerTasteModel()
        self.rng = population.rng
        self.snowflake = SnowflakeGenerator()
        self.text: TextGenerator = population.text
        self.topic_process = TopicProcess(DEFAULT_TOPICS, self.rng)
        self.trending = TrendingTracker()
        self._subscribers: list[TweetCallback] = []
        #: Installed chaos-harness hook (see install_fault_injector).
        self.fault_injector = None
        self._pending_replies: list[_PendingReply] = []
        self._recent_posts: deque[Tweet] = deque()
        self._search_index: deque[Tweet] = deque(maxlen=self.SEARCH_INDEX_CAP)
        self._timelines: dict[int, deque[Tweet]] = {}
        self.hour_stats: list[HourStats] = []
        # Trending classification sets, refreshed each hour.
        self._trending_up: set[str] = set()
        self._trending_down: set[str] = set()
        self._popular: set[str] = set()
        # Compromised relays are fixed at build time (no later path
        # flips an account to COMPROMISED), so resolve them once in
        # ground-truth insertion order instead of scanning the whole
        # account_kind dict every hour.
        # repro-lint: disable=RPL501 -- init-time scan, runs once per world
        self._compromised_uids = [
            uid
            for uid, kind in population.truth.account_kind.items()
            if kind is AccountKind.COMPROMISED
        ]
        # Per-hour cache of taste profile scores: profiles drift slowly,
        # so one evaluation per (account, hour) suffices for victim
        # sampling, cutting the hot path by ~50x.
        self._score_cache: dict[int, float] = {}
        self._score_cache_hour = -1
        # Burst-session state: users alternate active sessions and
        # dormancy (Section III-D portability rationale).  Initialized
        # at the stationary on-fraction.
        config = population.config
        self._session_on = (
            self.rng.random(len(population.order))
            < config.session_on_fraction
        )
        # Hot-path instruments, resolved once (registry.reset() keeps
        # instrument identity, so these stay live across test resets).
        registry = get_registry()
        self._m_posts = registry.counter("engine.organic_posts")
        self._m_replies = registry.counter("engine.organic_replies")
        self._m_spam = registry.counter("engine.spam_mentions")
        self._m_suspensions = registry.counter("engine.suspensions")
        self._m_hours = registry.counter("engine.hours")
        self._m_spam_rate = registry.gauge("engine.spam_rate")
        self._m_hour_seconds = registry.histogram("engine.hour_seconds")
        self._m_hour_tweets = registry.histogram("engine.hour_tweets")
        self._events = get_event_stream()

    # ------------------------------------------------------------------
    # Subscription and read-side indexes
    # ------------------------------------------------------------------

    def subscribe(self, callback: TweetCallback) -> None:
        """Register a firehose subscriber (used by the streaming API)."""
        self._subscribers.append(callback)

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this world.

        Newly opened filtered streams and the gated REST endpoints
        consult the injector, and :meth:`run_hour` calls its
        ``begin_hour``/``end_hour`` hooks.  The injector draws from its
        own generator, so installing one with an empty plan leaves the
        run byte-identical to an uninstrumented one.
        """
        self.fault_injector = injector

    def unsubscribe(self, callback: TweetCallback) -> None:
        """Remove a firehose subscriber."""
        self._subscribers.remove(callback)

    def recent_tweets(self) -> Iterable[Tweet]:
        """Recent tweets retained for the REST search endpoint."""
        return iter(self._search_index)

    def user_timeline(self, user_id: int) -> list[Tweet]:
        """The last few tweets authored by a user (newest last)."""
        return list(self._timelines.get(user_id, ()))

    def trending_status_of(self, topic: str | None) -> str:
        """Classify a topic as trending_up/trending_down/popular/none."""
        if topic is None:
            return "none"
        if topic in self._trending_up:
            return "trending_up"
        if topic in self._trending_down:
            return "trending_down"
        if topic in self._popular:
            return "popular"
        return "none"

    def trending_sets(self) -> dict[str, set[str]]:
        """Current trending classification (copied)."""
        return {
            "trending_up": set(self._trending_up),
            "trending_down": set(self._trending_down),
            "popular": set(self._popular),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_hours(self, hours: int) -> list[HourStats]:
        """Simulate ``hours`` consecutive hours; return their stats."""
        return [self.run_hour() for __ in range(hours)]

    def run_hour(self) -> HourStats:
        """Simulate one hour of platform activity."""
        wall_start = time.perf_counter()
        hour = self.clock.hour
        t0 = self.clock.now
        t_end = t0 + SECONDS_PER_HOUR
        stats = HourStats(hour=hour)
        if self.fault_injector is not None:
            self.fault_injector.begin_hour(self)
        self._refresh_trending(hour)

        emitted: list[Tweet] = []
        emitted.extend(self._deliver_due_replies(t_end, stats))
        posts = self._emit_organic_posts(t0, t_end, hour, stats)
        emitted.extend(posts)
        self._schedule_replies(posts)
        # Replies scheduled for this very hour should still land in it.
        emitted.extend(self._deliver_due_replies(t_end, stats))
        emitted.extend(self._emit_spam(t0, t_end, stats))
        self._grow_profile_counters()
        stats.suspensions = self._run_suspension()

        emitted.sort(key=lambda tw: tw.created_at)
        for tweet in emitted:
            self._index_tweet(tweet)
            for callback in self._subscribers:
                callback(tweet)

        if self.fault_injector is not None:
            self.fault_injector.end_hour(self)
        self._expire_recent_posts(t_end)
        self.clock.advance_to(t_end)
        self.hour_stats.append(stats)
        self._record_hour_metrics(stats, time.perf_counter() - wall_start)
        return stats

    def _record_hour_metrics(self, stats: HourStats, elapsed: float) -> None:
        """Publish one hour's :class:`HourStats` to the registry."""
        self._m_hours.inc()
        self._m_posts.inc(stats.organic_posts)
        self._m_replies.inc(stats.organic_replies)
        self._m_spam.inc(stats.spam_mentions)
        self._m_suspensions.inc(stats.suspensions)
        self._m_spam_rate.set(
            stats.spam_mentions / stats.total_tweets
            if stats.total_tweets
            else 0.0
        )
        self._m_hour_seconds.observe(elapsed)
        self._m_hour_tweets.observe(stats.total_tweets)
        self._events.emit(
            "engine.hour_completed",
            hour=stats.hour,
            tweets=stats.total_tweets,
            organic_posts=stats.organic_posts,
            organic_replies=stats.organic_replies,
            spam_mentions=stats.spam_mentions,
            suspensions=stats.suspensions,
            wall_s=round(elapsed, 6),
            # Events never enter byte-stable report artifacts, so a
            # live RSS reading here is free of determinism concerns.
            rss_kb=resources.sample().max_rss_kb,
        )
        log.debug(
            "hour %d: %d tweets (%d posts, %d replies, %d spam), "
            "%d suspensions, %.3fs",
            stats.hour,
            stats.total_tweets,
            stats.organic_posts,
            stats.organic_replies,
            stats.spam_mentions,
            stats.suspensions,
            elapsed,
        )

    # ------------------------------------------------------------------
    # Hour phases
    # ------------------------------------------------------------------

    def _refresh_trending(self, hour: int) -> None:
        if hour == 0:
            return
        self._trending_up = set(self.trending.top_trending_up(hour - 1))
        self._trending_down = set(self.trending.top_trending_down(hour - 1))
        popular = set(self.trending.top_popular(hour - 1))
        # Popular is the residual class: stable high volume that is not
        # currently surging or collapsing.
        self._popular = popular - self._trending_up - self._trending_down

    def _update_sessions(self) -> np.ndarray:
        """Advance the per-user burst-session Markov chain one hour.

        P(on->off) = 1/session_mean_hours; P(off->on) chosen so the
        stationary on-fraction equals the configured value.  Effective
        posting rate while on is scaled by 1/on_fraction, preserving
        each user's long-run average rate.
        """
        pop = self.population
        config = pop.config
        n = len(pop.order)
        if len(self._session_on) < n:
            grown = np.zeros(n, dtype=bool)
            grown[: len(self._session_on)] = self._session_on
            grown[len(self._session_on):] = (
                self.rng.random(n - len(self._session_on))
                < config.session_on_fraction
            )
            self._session_on = grown
        p_off = 1.0 / config.session_mean_hours
        fraction = config.session_on_fraction
        p_on = p_off * fraction / max(1.0 - fraction, 1e-9)
        draws = self.rng.random(n)
        self._session_on = np.where(
            self._session_on, draws >= p_off, draws < p_on
        )
        return self._session_on | pop.always_on

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
        # Parent-stream preamble (sessions, Poisson counts): drawn
        # before the fan-out, so replies/spam/suspension downstream see
        # the same parent stream whatever the worker count.
        on = self._update_sessions()
        scale = on.astype(np.float64) / pop.config.session_on_fraction
        # always-on accounts post at their nominal rate, not scaled up.
        scale[pop.always_on] = 1.0
        rates = pop.post_rate_per_day * scale / 24.0
        counts = self.rng.poisson(rates)
        posting = np.nonzero(counts)[0]
        if len(posting):
            # Suspended accounts never post.
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
                        int(counts[row]),
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
        # a shard.  The world-mutating tail (trending records,
        # finalization, recent-post tracking) runs here, on the parent
        # stream.
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

    def _schedule_replies(self, posts: list[Tweet]) -> None:
        rng = self.rng
        pop = self.population
        config = pop.config
        normal_pool = pop.order[: config.n_normal_users]
        for post in posts:
            followers = post.user.followers_count
            expected = config.reply_rate * (followers / (followers + 2000.0))
            n_replies = int(rng.poisson(expected))
            for __ in range(n_replies):
                replier_id = normal_pool[
                    int(rng.integers(0, len(normal_pool)))
                ]
                if replier_id == post.user.user_id:
                    continue
                delay = behavior.organic_reply_delay(rng)
                heapq.heappush(
                    self._pending_replies,
                    _PendingReply(post.created_at + delay, replier_id, post),
                )

    def _deliver_due_replies(
        self, t_end: float, stats: HourStats
    ) -> list[Tweet]:
        pop = self.population
        tweets: list[Tweet] = []
        while self._pending_replies and (
            self._pending_replies[0].deliver_at < t_end
        ):
            pending = heapq.heappop(self._pending_replies)
            replier = pop.accounts.get(pending.replier_id)
            if replier is None or replier.suspended:
                continue
            target = pending.target
            text = (
                self.text.benign_text(n_words=6)
                + f" @{target.user.screen_name}"
            )
            tweet = self._finalize_tweet(
                replier,
                pending.deliver_at,
                text,
                kind=TweetKind.TWEET,
                spammer=False,
                mentions=(
                    Mention(target.user.user_id, target.user.screen_name),
                ),
                in_reply_to=target,
            )
            tweets.append(tweet)
            stats.organic_replies += 1
        return tweets

    # -- spam --------------------------------------------------------------

    def _emit_spam(
        self, t0: float, t_end: float, stats: HourStats
    ) -> list[Tweet]:
        pop = self.population
        rng = self.rng
        tweets: list[Tweet] = []
        candidates = self._victim_candidates()
        if not candidates:
            return tweets
        # Victim-selection distribution over ALL recent posters, built
        # once per hour: exact taste-proportional sampling (a small
        # random subsample would flatten the concentration the paper's
        # skewed attribute results imply).
        weights = self._victim_weights(candidates)
        total_weight = float(weights.sum())
        if total_weight <= 0:
            return tweets
        cumulative = np.cumsum(weights) / total_weight

        for campaign in pop.campaigns:
            for member_id in campaign.member_ids:
                member = pop.accounts[member_id]
                if member.suspended:
                    continue
                n_actions = int(rng.poisson(campaign.actions_per_hour))
                for __ in range(n_actions):
                    text_body = self.text.spam_text(
                        campaign.keyword_class, campaign.pick_template(rng)
                    )
                    tweet = self._spam_mention(
                        member,
                        text_body,
                        candidates,
                        cumulative,
                        t0,
                        t_end,
                        campaign.reaction_median_s,
                        stealthy=campaign.stealthy,
                    )
                    if tweet is not None:
                        tweets.append(tweet)
                        stats.spam_mentions += 1

        for lone_id, (keyword_class, template_id) in (
            pop.lone_spammer_templates.items()
        ):
            lone = pop.accounts[lone_id]
            if lone.suspended:
                continue
            n_actions = int(rng.poisson(pop.config.lone_actions_per_hour))
            for __ in range(n_actions):
                text_body = self.text.spam_text(keyword_class, template_id)
                tweet = self._spam_mention(
                    lone, text_body, candidates, cumulative, t0, t_end, 60.0
                )
                if tweet is not None:
                    tweets.append(tweet)
                    stats.spam_mentions += 1

        for uid in self._compromised_uids:
            relay = pop.accounts[uid]
            if relay.suspended or rng.random() > 0.02:
                continue
            campaign_id = pop.truth.account_campaign.get(uid)
            if campaign_id is None or campaign_id >= len(pop.campaigns):
                continue
            campaign = pop.campaigns[campaign_id]
            text_body = self.text.spam_text(
                campaign.keyword_class, campaign.pick_template(rng)
            )
            tweet = self._spam_mention(
                relay, text_body, candidates, cumulative, t0, t_end, 300.0
            )
            if tweet is not None:
                tweets.append(tweet)
                stats.spam_mentions += 1

        return tweets

    def _victim_candidates(self) -> list[Tweet]:
        """Latest recent post per distinct author.

        Spammers pick a *victim* and react to their newest post, so an
        account posting 50 times an hour is not 50 times more likely a
        target than one posting once — deduplication keeps victim
        selection driven by the taste model, not by raw post volume.
        """
        latest: dict[int, Tweet] = {}
        for post in self._recent_posts:
            latest[post.user.user_id] = post
        return list(latest.values())

    def _spam_mention(
        self,
        sender: AccountState,
        text_body: str,
        candidates: list[Tweet],
        cumulative: np.ndarray,
        t0: float,
        t_end: float,
        reaction_median_s: float,
        stealthy: bool = False,
    ) -> Tweet | None:
        rng = self.rng
        if not candidates:
            return None
        pick = int(cumulative.searchsorted(rng.random(), side="right"))
        victim_post = candidates[min(pick, len(candidates) - 1)]
        victim = victim_post.user
        if victim.user_id == sender.user_id:
            return None
        delay = behavior.spam_reaction_delay(rng, reaction_median_s)
        created_at = victim_post.created_at + delay
        created_at = min(max(created_at, t0), t_end - 1e-3)
        if created_at <= victim_post.created_at:
            created_at = victim_post.created_at + 1.0
        text = f"@{victim.screen_name} {text_body}"
        return self._finalize_tweet(
            sender,
            created_at,
            text,
            kind=behavior.draw_kind(rng, spammer=True),
            spammer=True,
            stealthy=stealthy,
            mentions=(Mention(victim.user_id, victim.screen_name),),
            in_reply_to=victim_post,
        )

    def _victim_weights(self, candidates: list[Tweet]) -> np.ndarray:
        """Taste weights for all victim candidates, column-wise.

        The uncached profile base scores are computed in one
        :meth:`SpammerTasteModel.profile_score_batch` call over the
        candidate rows; the per-post context multipliers stay scalar.
        Suspended and unknown authors weigh 0.
        """
        pop = self.population
        if self._score_cache_hour != self.clock.hour:
            self._score_cache.clear()
            self._score_cache_hour = self.clock.hour
        cache = self._score_cache
        index_of = pop.index_of
        arrays = pop.cols._arrays
        suspended = arrays["suspended"]
        rows = [index_of.get(p.user.user_id, -1) for p in candidates]
        need: list[tuple[int, int]] = []
        for post, row in zip(candidates, rows):
            uid = post.user.user_id
            if row >= 0 and not suspended[row] and uid not in cache:
                need.append((uid, row))
        if need:
            picked = np.array([row for __, row in need], dtype=np.intp)
            bases = self.taste.profile_score_batch(
                self.clock.now,
                arrays["created_at"][picked],
                arrays["friends_count"][picked],
                arrays["followers_count"][picked],
                arrays["listed_count"][picked],
                arrays["favourites_count"][picked],
                arrays["statuses_count"][picked],
            )
            for (uid, __), base in zip(need, bases.tolist()):
                cache[uid] = base
        concentration = self.taste.weights.concentration
        weights = np.empty(len(candidates), dtype=np.float64)
        for i, post in enumerate(candidates):
            row = rows[i]
            if row < 0 or suspended[row]:
                weights[i] = 0.0
                continue
            category: HashtagCategory | None = None
            if post.hashtags:
                category = category_of(post.hashtags[0])
            # Profile taste concentrates (** concentration); posting
            # context scales linearly.  Cubing the context too would let
            # a mediocre account with one trending hashtag out-attract
            # the accounts whose *profiles* match spammer tastes,
            # inverting Table V.
            weights[i] = (
                cache[post.user.user_id] ** concentration
            ) * self.taste.context_multiplier(
                category, self.trending_status_of(post.topic)
            )
        return weights

    # -- shared tweet assembly ----------------------------------------------

    def _finalize_tweet(
        self,
        sender: AccountState,
        created_at: float,
        text: str,
        kind: TweetKind,
        spammer: bool,
        stealthy: bool = False,
        hashtags: tuple[str, ...] = (),
        mentions: tuple[Mention, ...] = (),
        topic: str | None = None,
        in_reply_to: Tweet | None = None,
    ) -> Tweet:
        urls = (
            tuple(token for token in text.split() if token.startswith("http"))
            if "http" in text
            else ()
        )
        sender.statuses_count += 1
        sender.last_post_at = created_at
        tweet = Tweet(
            tweet_id=self.snowflake.next_id(created_at),
            created_at=created_at,
            user=sender.snapshot(),
            text=text,
            kind=kind,
            source=behavior.draw_source(self.rng, spammer and not stealthy),
            hashtags=hashtags,
            mentions=mentions,
            urls=urls,
            topic=topic,
            in_reply_to_tweet_id=(
                in_reply_to.tweet_id if in_reply_to else None
            ),
            in_reply_to_created_at=(
                in_reply_to.created_at if in_reply_to else None
            ),
        )
        if spammer:
            self.population.truth.spam_tweet_ids.add(tweet.tweet_id)
        for mention in mentions:
            mentioned = self.population.accounts.get(mention.user_id)
            if mentioned is not None:
                mentioned.last_mentioned_at = created_at
        return tweet

    # -- maintenance ---------------------------------------------------------

    def _grow_profile_counters(self) -> None:
        """Organic accounts slowly gain favourites (Poisson per hour)."""
        pop = self.population
        counts = self.rng.poisson(pop.fav_rate_per_day / 24.0)
        grew = np.nonzero(counts)[0]
        pop.cols.favourites_count[grew] += counts[grew]

    def _run_suspension(self) -> int:
        """Per-account suspension hazard, vectorized by segments.

        The scalar loop drew one uniform per live account in ``order``
        sequence; a campaign member's suspension respawns a replacement,
        which inserts extra draws mid-stream (the new member's profile).
        Batching the whole population would therefore diverge the RNG
        stream the moment a respawn fires, so draws are *segmented*:
        maximal runs of positions that cannot trigger extra draws
        (everything except campaign members) get one vector draw over
        their live accounts, while campaign members draw scalar in
        place.  The result is bit-identical to the scalar loop at any
        world size.
        """
        pop = self.population
        config = pop.config
        rng = self.rng
        n0 = len(pop.order)
        # Snapshot is safe for positions < n0: processing a position
        # never changes another position's flags, and respawns only
        # append past n0.
        live = ~pop.suspended_flags()[:n0]
        rates = np.where(
            pop.spam_hazard[:n0],
            config.spam_suspension_rate,
            config.normal_suspension_rate,
        )
        suspended = 0

        def run_segment(start: int, end: int) -> int:
            hits = 0
            positions = np.nonzero(live[start:end])[0]
            if not len(positions):
                return 0
            positions += start
            draws = rng.random(len(positions))
            for pos in positions[draws < rates[positions]]:
                pop.accounts[pop.order[int(pos)]].suspended = True
                hits += 1
            return hits

        def check_scalar(pos: int) -> int:
            uid = pop.order[pos]
            account = pop.accounts[uid]
            if account.suspended:
                return 0
            kind = pop.truth.account_kind[uid]
            rate = (
                config.spam_suspension_rate
                if kind.is_spammer and kind is not AccountKind.COMPROMISED
                else config.normal_suspension_rate
            )
            if rng.random() >= rate:
                return 0
            account.suspended = True
            campaign_id = pop.truth.account_campaign.get(uid)
            if (
                kind is AccountKind.CAMPAIGN_SPAMMER
                and campaign_id is not None
            ):
                campaign = pop.campaigns[campaign_id]
                campaign.member_ids.remove(uid)
                pop.spawn_campaign_member(campaign, self.clock.now)
            return 1

        respawn_capable = np.nonzero(pop.campaign_member_flags[:n0])[0]
        start = 0
        for sp in respawn_capable:
            sp = int(sp)
            if sp > start:
                suspended += run_segment(start, sp)
            suspended += check_scalar(sp)
            start = sp + 1
        if start < n0:
            suspended += run_segment(start, n0)
        # Members respawned above appended themselves to ``order`` and
        # face the hazard within the same hour, exactly as the scalar
        # loop visited them while iterating the growing list.
        pos = n0
        while pos < len(pop.order):
            suspended += check_scalar(pos)
            pos += 1
        return suspended

    def _index_tweet(self, tweet: Tweet) -> None:
        self._search_index.append(tweet)
        timeline = self._timelines.get(tweet.user.user_id)
        if timeline is None:
            timeline = self._timelines[tweet.user.user_id] = deque(maxlen=5)
        timeline.append(tweet)

    def _expire_recent_posts(self, now: float) -> None:
        horizon = now - self.RECENT_POST_HOURS * SECONDS_PER_HOUR
        while self._recent_posts and (
            self._recent_posts[0].created_at < horizon
        ):
            self._recent_posts.popleft()
        search_horizon = now - self.SEARCH_INDEX_HOURS * SECONDS_PER_HOUR
        while self._search_index and (
            self._search_index[0].created_at < search_horizon
        ):
            self._search_index.popleft()
