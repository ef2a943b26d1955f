"""Attribute-based pseudo-honeypot node selection (Sections III-B/C).

The selector screens live accounts against the Table I/II criteria and
returns the hour's parasitic bodies.  Everything it reads comes through
the public REST surface: a candidate sample, batch profile lookups, a
recent-tweet sample (indexed locally into hashtag/topic -> author maps),
and the trending classification.  Per Section III-D, only *Active*
accounts are eligible (see :mod:`repro.core.portability`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from ..twittersim.api.rest import RestClient
from ..twittersim.columnar import AccountColumns
from ..twittersim.entities import Tweet
from ..twittersim.hashtags import HASHTAG_POOLS
from .attributes import (
    AttributeCategory,
    AttributeSpec,
    HASHTAG_ATTRIBUTE_KEYS,
    PROFILE_ATTRIBUTES,
    TRENDING_ATTRIBUTE_KEYS,
    attribute_values,
    category_of_key,
    hashtag_category_of_key,
)
from .portability import ActivityPolicy


@dataclass(frozen=True)
class HoneypotNode:
    """One selected parasitic body for the current hour."""

    user_id: int
    screen_name: str
    attribute_key: str
    sample_label: str
    category: AttributeCategory

    @property
    def track_term(self) -> str:
        """The streaming-API filter term for this node."""
        return f"@{self.screen_name}"


@dataclass(frozen=True)
class ProfileTarget:
    """Select ``count`` accounts whose ``spec`` value ≈ ``value``."""

    spec: AttributeSpec
    value: float
    count: int = 10

    @property
    def sample_label(self) -> str:
        return self.spec.sample_label(self.value)


@dataclass(frozen=True)
class CategoryTarget:
    """Select ``count`` accounts under a hashtag/trending attribute key."""

    key: str
    count: int = 100


@dataclass(frozen=True)
class SelectionPlan:
    """The full shopping list of one selection round."""

    profile_targets: tuple[ProfileTarget, ...] = ()
    category_targets: tuple[CategoryTarget, ...] = ()

    @property
    def total_requested(self) -> int:
        return sum(t.count for t in self.profile_targets) + sum(
            t.count for t in self.category_targets
        )

    @classmethod
    def full_paper_plan(cls, per_value: int = 10) -> "SelectionPlan":
        """The paper's 2,400-node plan (Section V-A).

        11 profile attributes x 10 sample values x ``per_value``
        accounts, plus 9 hashtag and 4 trending attributes at
        ``10 * per_value`` accounts each.
        """
        profile = tuple(
            ProfileTarget(spec, value, per_value)
            for spec in PROFILE_ATTRIBUTES
            for value in spec.sample_values
        )
        category = tuple(
            CategoryTarget(key, 10 * per_value)
            for key in HASHTAG_ATTRIBUTE_KEYS + TRENDING_ATTRIBUTE_KEYS
        )
        return cls(profile, category)

    @classmethod
    def random_plan(
        cls, n_targets: int, per_value: int, seed: int = 0
    ) -> "SelectionPlan":
        """Randomly chosen attributes (ground-truth collection, §V-C)."""
        rng = np.random.default_rng(seed)
        all_profile = [
            (spec, value)
            for spec in PROFILE_ATTRIBUTES
            for value in spec.sample_values
        ]
        n_category = len(HASHTAG_ATTRIBUTE_KEYS) + len(TRENDING_ATTRIBUTE_KEYS)
        picks = rng.choice(
            len(all_profile) + n_category, size=n_targets, replace=False
        )
        category_keys = HASHTAG_ATTRIBUTE_KEYS + TRENDING_ATTRIBUTE_KEYS
        profile_targets = []
        category_targets = []
        for pick in picks:
            if pick < len(all_profile):
                spec, value = all_profile[int(pick)]
                profile_targets.append(ProfileTarget(spec, value, per_value))
            else:
                key = category_keys[int(pick) - len(all_profile)]
                category_targets.append(CategoryTarget(key, per_value))
        return cls(tuple(profile_targets), tuple(category_targets))


@dataclass
class SelectionReport:
    """Bookkeeping of one selection round."""

    requested: int = 0
    selected: int = 0
    shortfalls: dict[str, int] = field(default_factory=dict)

    def record(self, label: str, requested: int, got: int) -> None:
        self.requested += requested
        self.selected += got
        if got < requested:
            self.shortfalls[label] = requested - got


class _CandidateColumns:
    """Candidate set as account-store rows instead of snapshots.

    The profile-selection loop only ever needs three things from a
    candidate: its attribute-value columns (gathered straight off the
    account store), its user id, and — for the handful of winners — a
    screen name.  Keeping candidates as row indices skips ~pool-size
    ``UserProfile`` constructions per round; the gathered columns are
    the same arrays a snapshot would copy its fields from.
    """

    __slots__ = ("cols", "rows", "uids", "_base")

    def __init__(self, cols: AccountColumns, rows: list[int]) -> None:
        self.cols = cols
        self.rows = rows
        idx = np.array(rows, dtype=np.intp)
        self.uids: list[int] = cols._arrays["user_id"][idx].tolist()
        self._base: dict | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def base_arrays(self) -> dict:
        """Gathered counter columns, keyed as
        :func:`~repro.core.attributes.attribute_values` reads them."""
        if self._base is None:
            arrays = self.cols._arrays
            idx = np.array(self.rows, dtype=np.intp)
            self._base = {
                "created": arrays["created_at"][idx],
                "friends": arrays["friends_count"][idx],
                "followers": arrays["followers_count"][idx],
                "statuses": arrays["statuses_count"][idx],
                "listed": arrays["listed_count"][idx],
                "favourites": arrays["favourites_count"][idx],
            }
        return self._base

    def screen_name(self, i: int) -> str:
        return self.cols.screen_name[self.rows[i]]


class _RecentIndex:
    """Incrementally maintained index over the recent-tweet window.

    The sample stream is append-only and the indexed window is its
    suffix, so consecutive selection rounds see windows that differ
    only by a batch of new tweets at the tail and a batch of expired
    tweets at the head.  Instead of re-scanning all ``recent_limit``
    tweets every round, this structure ingests the new suffix and
    retires the expired prefix — the per-round cost tracks the tweet
    *rate*, not the window size.

    Every derived mapping matches a from-scratch rebuild exactly:

    * ``hashtag_authors`` / ``topic_authors`` keep author ids in
      window order (deques; expiry pops from the front, which is
      always the oldest occurrence).
    * ``author_last_post`` / ``author_name`` hold the newest
      in-window tweet's values; expiry only ever removes *older*
      tweets, so the stored value stays correct until the author's
      last tweet leaves the window, at which point the entry is
      dropped entirely.
    * ``author_used_hashtag`` / ``author_used_topic`` are backed by
      per-author occurrence counts so membership flips off exactly
      when the last qualifying tweet expires.
    * ``ordered_authors()`` reproduces the first-appearance order a
      sequential rebuild would produce as dict insertion order, by
      sorting authors on their earliest in-window sequence number.
    """

    __slots__ = (
        "window",
        "_next_seq",
        "hashtag_authors",
        "topic_authors",
        "hashtag_usage",
        "author_used_hashtag",
        "author_used_topic",
        "author_last_post",
        "author_name",
        "_author_seqs",
        "_author_hashtag_count",
        "_author_topic_count",
    )

    def __init__(self) -> None:
        self.window: list[Tweet] = []
        self._next_seq = 0
        self.hashtag_authors: defaultdict[str, deque[int]] = defaultdict(
            deque
        )
        self.topic_authors: defaultdict[str, deque[int]] = defaultdict(deque)
        self.hashtag_usage: Counter = Counter()
        self.author_used_hashtag: set[int] = set()
        self.author_used_topic: set[int] = set()
        self.author_last_post: dict[int, float] = {}
        self.author_name: dict[int, str] = {}
        self._author_seqs: dict[int, deque[int]] = {}
        self._author_hashtag_count: dict[int, int] = {}
        self._author_topic_count: dict[int, int] = {}

    # -- maintenance -------------------------------------------------------

    def _add(self, tweet: Tweet) -> None:
        uid = tweet.user.user_id
        self.author_last_post[uid] = tweet.created_at
        self.author_name[uid] = tweet.user.screen_name
        seqs = self._author_seqs.get(uid)
        if seqs is None:
            self._author_seqs[uid] = seqs = deque()
        seqs.append(self._next_seq)
        self._next_seq += 1
        for tag in tweet.hashtags:
            self.hashtag_authors[tag].append(uid)
            self.hashtag_usage[tag] += 1
            self._author_hashtag_count[uid] = (
                self._author_hashtag_count.get(uid, 0) + 1
            )
            self.author_used_hashtag.add(uid)
        if tweet.topic is not None:
            self.topic_authors[tweet.topic].append(uid)
            self._author_topic_count[uid] = (
                self._author_topic_count.get(uid, 0) + 1
            )
            self.author_used_topic.add(uid)

    def _expire(self, tweet: Tweet) -> None:
        uid = tweet.user.user_id
        seqs = self._author_seqs[uid]
        seqs.popleft()
        if not seqs:
            del self._author_seqs[uid]
            del self.author_last_post[uid]
            del self.author_name[uid]
        for tag in tweet.hashtags:
            authors = self.hashtag_authors[tag]
            authors.popleft()
            if not authors:
                del self.hashtag_authors[tag]
            remaining = self.hashtag_usage[tag] - 1
            if remaining:
                self.hashtag_usage[tag] = remaining
            else:
                del self.hashtag_usage[tag]
            count = self._author_hashtag_count[uid] - 1
            if count:
                self._author_hashtag_count[uid] = count
            else:
                del self._author_hashtag_count[uid]
                self.author_used_hashtag.discard(uid)
        if tweet.topic is not None:
            authors = self.topic_authors[tweet.topic]
            authors.popleft()
            if not authors:
                del self.topic_authors[tweet.topic]
            count = self._author_topic_count[uid] - 1
            if count:
                self._author_topic_count[uid] = count
            else:
                del self._author_topic_count[uid]
                self.author_used_topic.discard(uid)

    def advance(self, recent: list[Tweet]) -> bool:
        """Move the index to the new window; False if it can't diff.

        The diff relies on tweet ids increasing along the stream; when
        the shape doesn't match (stream reset, out-of-order ids), the
        caller should rebuild from scratch.
        """
        prev = self.window
        if not prev:
            if self._next_seq:
                return False
            for tweet in recent:
                self._add(tweet)
            self.window = list(recent)
            return True
        prev_last_id = prev[-1].tweet_id
        split = len(recent)
        while split > 0 and recent[split - 1].tweet_id > prev_last_id:
            split -= 1
        overlap = split
        expired = len(prev) - overlap
        if expired < 0:
            return False
        if overlap > 0 and (
            prev[expired].tweet_id != recent[0].tweet_id
            or prev[-1].tweet_id != recent[overlap - 1].tweet_id
        ):
            return False
        for tweet in prev[:expired]:
            self._expire(tweet)
        for tweet in recent[overlap:]:
            self._add(tweet)
        self.window = list(recent)
        return True

    # -- reads -------------------------------------------------------------

    def ordered_authors(self) -> list[int]:
        """Author ids in first-appearance (window) order."""
        n = len(self._author_seqs)
        if not n:
            return []
        uids = np.fromiter(self._author_seqs.keys(), dtype=np.int64, count=n)
        firsts = np.fromiter(
            (seqs[0] for seqs in self._author_seqs.values()),
            dtype=np.int64,
            count=n,
        )
        return uids[np.argsort(firsts, kind="stable")].tolist()

    def as_recent_index(self) -> dict:
        """The mapping bundle ``select()`` rounds consume."""
        return {
            "hashtag_authors": self.hashtag_authors,
            "topic_authors": self.topic_authors,
            "hashtag_usage": self.hashtag_usage,
            "author_used_hashtag": self.author_used_hashtag,
            "author_used_topic": self.author_used_topic,
            "author_last_post": self.author_last_post,
            "author_name": self.author_name,
            "ordered_authors": self.ordered_authors(),
        }


class AttributeSelector:
    """Screens accounts and assembles pseudo-honeypot node sets.

    Args:
        rest: REST client of the platform.
        candidate_pool: profile-candidate sample size per round.
        tolerance: multiplicative matching window around a sample value
            (a candidate matches value v when v/tolerance <= x <= v*tolerance).
        activity: Active/Dormant policy; only Active accounts are
            selected (pass None to disable the portability filter).
        recent_limit: size of the recent-tweet sample indexed per round.
        seed: tie-breaking randomness.
    """

    def __init__(
        self,
        rest: RestClient,
        candidate_pool: int = 6_000,
        tolerance: float = 1.6,
        activity: ActivityPolicy | None = None,
        recent_limit: int = 40_000,
        seed: int = 0,
    ) -> None:
        if tolerance <= 1.0:
            raise ValueError("tolerance must be > 1")
        self.rest = rest
        self.candidate_pool = candidate_pool
        self.tolerance = tolerance
        self.activity = activity
        self.recent_limit = recent_limit
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.last_report: SelectionReport | None = None
        self._recent_index = _RecentIndex()

    # ------------------------------------------------------------------

    def select(self, plan: SelectionPlan, now: float) -> list[HoneypotNode]:
        """Run one selection round and return the hour's node set.

        Accounts are used at most once across the whole round, so the
        returned nodes are distinct parasitic bodies.
        """
        report = SelectionReport()
        used: set[int] = set()
        nodes: list[HoneypotNode] = []

        recent_index = self._index_recent_sample()
        candidates = self._profile_candidates(now, recent_index)

        # Many targets share one spec (the paper plan has 10 sample
        # values per attribute), so candidate attribute values are
        # evaluated once per spec per round, not once per target.
        value_cache: dict[str, np.ndarray] = {}
        for target in plan.profile_targets:
            got = self._select_profile(
                target, now, candidates, used, nodes, value_cache
            )
            report.record(target.sample_label, target.count, got)

        for target in plan.category_targets:
            got = self._select_category(
                target, now, recent_index, used, nodes
            )
            report.record(target.key, target.count, got)

        self.last_report = report
        return nodes

    # ------------------------------------------------------------------

    def _index_recent_sample(self) -> dict:
        """One bulk read of the sample stream, indexed incrementally.

        Consecutive rounds see overlapping windows of the append-only
        stream, so the cached :class:`_RecentIndex` advances by the
        window diff; a full rebuild happens only when the stream shape
        changes underneath it (e.g. a fresh platform instance).
        """
        recent = self.rest.recent_sample(self.recent_limit)
        if not self._recent_index.advance(recent):
            self._recent_index = _RecentIndex()
            self._recent_index.advance(recent)
        return self._recent_index.as_recent_index()

    def _profile_candidates(
        self, now: float, recent_index: dict
    ) -> _CandidateColumns:
        """Sample, look up, and activity-filter profile candidates.

        The candidate set stays as account-store row indices end to
        end: batch lookups return rows, and attribute screening
        gathers columns at those rows.
        """
        ids = self.rest.sample_user_ids(self.candidate_pool)
        batch = RestClient.LOOKUP_BATCH
        rows = self.rest.lookup_user_rows(ids[:batch])
        for start in range(batch, len(ids), batch):
            rows.extend(
                self.rest.lookup_user_rows(ids[start : start + batch])
            )
        candidates = _CandidateColumns(self.rest.account_columns, rows)
        if self.activity is None:
            return candidates
        last_post = recent_index["author_last_post"]
        is_active_from_history = self.activity.is_active_from_history
        is_active = self.activity.is_active
        kept = [
            row
            for row, uid in zip(candidates.rows, candidates.uids)
            if is_active_from_history(last_post.get(uid), now)
            or is_active(self.rest, uid, now)
        ]
        if len(kept) == len(candidates.rows):
            return candidates
        return _CandidateColumns(candidates.cols, kept)

    def _select_profile(
        self,
        target: ProfileTarget,
        now: float,
        candidates: _CandidateColumns,
        used: set[int],
        nodes: list[HoneypotNode],
        value_cache: dict[str, np.ndarray] | None = None,
    ) -> int:
        count = target.count
        matches: list[tuple[float, int, int]] = []
        log_tol = math.log(self.tolerance)
        if value_cache is None:
            value_cache = {}
        values = value_cache.get(target.spec.key)
        if values is None:
            values = attribute_values(
                target.spec.key, candidates.base_arrays(), now
            )
            value_cache[target.spec.key] = values
        # Vector prefilter with slack, then an exact scalar confirm:
        # np.log is not bitwise-equal to math.log (last-ulp drift), so
        # the match predicate itself must stay scalar, but candidates
        # whose approximate distance misses by > 1e-6 (nine orders
        # above the drift plus the log-difference cancellation) can
        # never pass it.  log(values) is target-independent, so it is
        # computed once per attribute key and compared against
        # log(target) by subtraction — each target's prefilter then
        # costs two cheap array ops instead of a fresh transcendental
        # pass.
        logs_key = target.spec.key + "\x00log"
        logs = value_cache.get(logs_key)
        if logs is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(values)
            value_cache[logs_key] = logs
        if target.value <= 0:
            # log-distance to a non-positive target is undefined —
            # nothing can match (the ratio path yielded NaN here).
            return 0
        with np.errstate(invalid="ignore"):
            approx = np.abs(logs - math.log(target.value))
        near = np.nonzero((values > 0) & (approx <= log_tol + 1e-6))[0]
        near_approx = approx[near]
        order = np.argsort(near_approx, kind="stable")
        # The confirm loop runs over plain Python floats/ints: the
        # unboxed values are cached per attribute key, so repeated
        # targets pay only the loop itself.
        vals_key = target.spec.key + "\x00vals"
        vals = value_cache.get(vals_key)
        if vals is None:
            vals = value_cache[vals_key] = values.tolist()
        uids = candidates.uids
        target_value = target.value
        # Confirm in ascending approximate distance.  Once ``count``
        # matches are confirmed, none of them lies farther than
        # ``bound`` minus the slack, and a candidate whose approximate
        # distance exceeds ``bound`` lies strictly farther than all of
        # them, as does every candidate after it: the walk stops there.
        # (A ``count`` of 0 never sets it, and keeps no match.)
        bound = math.inf
        for ii, near_distance in zip(
            near[order].tolist(), near_approx[order].tolist()
        ):
            if near_distance > bound:
                break
            uid = uids[ii]
            if uid in used:
                continue
            distance = abs(math.log(vals[ii] / target_value))
            if distance <= log_tol:
                matches.append((distance, uid, ii))
                if len(matches) == count:
                    bound = max(entry[0] for entry in matches) + 1e-6
        matches.sort(key=lambda entry: (entry[0], entry[1]))
        got = 0
        for __, uid, ii in matches[:count]:
            nodes.append(
                HoneypotNode(
                    user_id=uid,
                    screen_name=candidates.screen_name(ii),
                    attribute_key=target.spec.key,
                    sample_label=target.sample_label,
                    category=AttributeCategory.PROFILE,
                )
            )
            used.add(uid)
            got += 1
        return got

    def _select_category(
        self,
        target: CategoryTarget,
        now: float,
        recent_index: dict,
        used: set[int],
        nodes: list[HoneypotNode],
    ) -> int:
        key = target.key
        category = category_of_key(key)
        if category is AttributeCategory.HASHTAG:
            author_pool = self._hashtag_author_pool(key, recent_index)
        else:
            author_pool = self._trending_author_pool(key, recent_index)
        author_name = recent_index["author_name"]
        got = 0
        for uid in author_pool:
            if got >= target.count:
                break
            if uid in used or uid not in author_name:
                continue
            nodes.append(
                HoneypotNode(
                    user_id=uid,
                    screen_name=author_name[uid],
                    attribute_key=key,
                    sample_label=key,
                    category=category,
                )
            )
            used.add(uid)
            got += 1
        return got

    def _hashtag_author_pool(self, key: str, recent_index: dict) -> list[int]:
        hashtag_authors = recent_index["hashtag_authors"]
        usage = recent_index["hashtag_usage"]
        if key == "no_hashtag":
            pool = [
                uid
                for uid in recent_index["ordered_authors"]
                if uid not in recent_index["author_used_hashtag"]
            ]
            self._rng.shuffle(pool)
            return pool
        hashtag_category = hashtag_category_of_key(key)
        tags = sorted(
            HASHTAG_POOLS[hashtag_category],
            key=lambda tag: (-usage[tag], tag),
        )[:10]
        # Round-robin the top-10 hashtags: ~count/10 authors per tag.
        pool: list[int] = []
        queues = [list(dict.fromkeys(hashtag_authors[tag])) for tag in tags]
        while any(queues):
            for queue in queues:
                if queue:
                    pool.append(queue.pop(0))
        return list(dict.fromkeys(pool))

    def _trending_author_pool(self, key: str, recent_index: dict) -> list[int]:
        topic_authors = recent_index["topic_authors"]
        if key == "no_trending":
            pool = [
                uid
                for uid in recent_index["ordered_authors"]
                if uid not in recent_index["author_used_topic"]
            ]
            self._rng.shuffle(pool)
            return pool
        trending = self.rest.trending_sets()
        topics = {
            "trending_up": trending["trending_up"],
            "trending_down": trending["trending_down"],
            "popular_tweets": trending["popular"],
        }[key]
        pool: list[int] = []
        queues = [
            list(dict.fromkeys(topic_authors[topic]))
            for topic in sorted(topics)
        ]
        while any(queues):
            for queue in queues:
                if queue:
                    pool.append(queue.pop(0))
        return list(dict.fromkeys(pool))
