"""RESTful API: user lookup, timelines, search, profile images.

Mirrors the read-only REST endpoints the paper's pipeline needs.
Every read returns public data only; suspension status surfaces
exactly as on the real platform — a lookup of a suspended account
fails with :class:`UserSuspendedError`, which is the signal the
ground-truth labeler's "suspended account" method uses.  A read is
rate-limited only by an injected ``rest_rate_limit`` fault
(:mod:`repro.faults`), which raises
:class:`~repro.twittersim.errors.RateLimitError` for its budget.
"""

from __future__ import annotations

import numpy as np

from ..columnar import AccountColumns
from ..engine import TwitterEngine
from ..entities import Tweet, UserProfile
from ..errors import UserNotFoundError, UserSuspendedError


class RestClient:
    """Read-only REST client over the synthetic platform.

    Each read resolves a user id to its row of the population's
    :class:`~repro.twittersim.columnar.AccountColumns` through
    ``index_of`` and reads the columns there.

    Args:
        engine: the platform engine to read from.
    """

    #: Endpoint names, as each call hands them to the fault injector.
    USERS_LOOKUP = "users/lookup"
    USERS_SHOW = "users/show"
    SEARCH_TWEETS = "search/tweets"
    USER_TIMELINE = "statuses/user_timeline"
    USERS_SAMPLE = "users/sample"

    #: Max ids per ``lookup_users`` call (Twitter allows 100).
    LOOKUP_BATCH = 100

    def __init__(self, engine: TwitterEngine) -> None:
        self._engine = engine
        self._rng = np.random.default_rng(
            engine.population.config.seed + 0x5EED
        )

    def _gate(self, endpoint: str) -> None:
        """Per-call gate: any injected fault, a rate limit among them."""
        injector = self._engine.fault_injector
        if injector is not None:
            injector.check_rest_call(endpoint, self._engine.clock.now)

    def _row(self, user_id: int) -> int:
        """The account's row in the store.

        Raises:
            UserNotFoundError: unknown id.
        """
        row = self._engine.population.index_of.get(user_id)
        if row is None:
            raise UserNotFoundError(f"no user with id {user_id}")
        return row

    def _live_row(self, user_id: int) -> int:
        """The row of an account that is not suspended.

        Raises:
            UserNotFoundError: unknown id.
            UserSuspendedError: the account is suspended.
        """
        row = self._row(user_id)
        if self.account_columns.column("suspended")[row]:
            raise UserSuspendedError(f"user {user_id} is suspended")
        return row

    # ------------------------------------------------------------------

    def get_user(self, user_id: int) -> UserProfile:
        """Fetch one user's public profile.

        Raises:
            UserNotFoundError: unknown id.
            UserSuspendedError: the account is suspended.
        """
        self._gate(self.USERS_SHOW)
        return self.account_columns.snapshot(self._live_row(user_id))

    def lookup_users(self, user_ids: list[int]) -> list[UserProfile]:
        """Batch profile lookup; suspended/unknown ids are dropped.

        Mirrors Twitter's ``users/lookup``: the response simply omits
        accounts that no longer resolve, which is how bulk suspension
        checks are implemented in practice.

        Raises:
            ValueError: if more than ``LOOKUP_BATCH`` ids are passed.
        """
        rows = self.lookup_user_rows(user_ids)
        return list(map(self.account_columns.snapshot, rows))

    def lookup_user_rows(self, user_ids: list[int]) -> list[int]:
        """``lookup_users`` as account-store row indices, not profiles.

        Resolves ids to rows of the population's
        :class:`~repro.twittersim.columnar.AccountColumns` and screens
        suspension there, in input order, without building profile
        snapshots: callers that only read columns (the selection
        layer's attribute screening) read them straight off
        :attr:`account_columns`.  Gates and filters exactly like
        :meth:`lookup_users`, and always returns a list.

        Raises:
            ValueError: if more than ``LOOKUP_BATCH`` ids are passed.
        """
        if len(user_ids) > self.LOOKUP_BATCH:
            raise ValueError(
                f"lookup_users accepts at most {self.LOOKUP_BATCH} ids"
            )
        self._gate(self.USERS_LOOKUP)
        population = self._engine.population
        index_of = population.index_of
        suspended = population.cols.column("suspended")
        return [
            row
            for row in (index_of.get(uid) for uid in user_ids)
            if row is not None and not suspended.item(row)
        ]

    @property
    def account_columns(self) -> AccountColumns:
        """The population's account store; rows index its columns."""
        return self._engine.population.cols

    def is_suspended(self, user_id: int) -> bool:
        """True if a known account is currently suspended.

        Raises:
            UserNotFoundError: unknown id.
        """
        return self.account_columns.column("suspended").item(
            self._row(user_id)
        )

    def sample_user_ids(self, n: int) -> list[int]:
        """A uniform random sample of live account ids.

        This models candidate discovery from the public sample stream:
        the pseudo-honeypot selection layer screens these candidates
        against its attribute criteria.
        """
        self._gate(self.USERS_SAMPLE)
        live = self._engine.population.live_ids()
        if n >= len(live):
            return list(live)
        picks = self._rng.choice(len(live), size=n, replace=False)
        return [live[int(i)] for i in picks]

    def user_timeline(self, user_id: int) -> list[Tweet]:
        """The account's most recent tweets (newest last).

        Raises:
            UserNotFoundError: unknown id.
            UserSuspendedError: the account is suspended.
        """
        self._gate(self.USER_TIMELINE)
        self._live_row(user_id)
        return self._engine.user_timeline(user_id)

    def search_recent(
        self,
        hashtag: str | None = None,
        topic: str | None = None,
        limit: int = 500,
    ) -> list[Tweet]:
        """Search the recent-tweet index by hashtag or topic.

        Returns the newest matching tweets first, up to ``limit``.
        """
        self._gate(self.SEARCH_TWEETS)
        matches: list[Tweet] = []
        for tweet in reversed(list(self._engine.recent_tweets())):
            if hashtag is not None and hashtag not in tweet.hashtags:
                continue
            if topic is not None and tweet.topic != topic:
                continue
            matches.append(tweet)
            if len(matches) >= limit:
                break
        return matches

    def recent_sample(self, limit: int = 20_000) -> list[Tweet]:
        """The newest ``limit`` tweets from the public sample stream.

        One bulk read the selection layer indexes locally (hashtag ->
        authors, topic -> authors), instead of issuing one search per
        hashtag — the same pattern a real deployment uses to stay
        inside search rate limits.
        """
        self._gate(self.SEARCH_TWEETS)
        index = list(self._engine.recent_tweets())
        return index[-limit:]

    def search_crossing(
        self,
        screen_names: list[str],
        since: float | None = None,
        until: float | None = None,
        limit: int = 10_000,
    ) -> list[Tweet]:
        """Recent tweets crossing any of the given accounts.

        A *crossing* tweet is authored by one of the accounts or
        @-mentions one — exactly the filtered stream's match predicate
        — so a monitoring client can backfill a stream gap with one
        ``search/tweets`` sweep over ``[since, until)``.  Bounded by
        the platform's recent-tweet retention; results are oldest
        first, capped at ``limit``.
        """
        self._gate(self.SEARCH_TWEETS)
        names = set(screen_names)
        matches: list[Tweet] = []
        for tweet in self._engine.recent_tweets():
            if since is not None and tweet.created_at < since:
                continue
            if until is not None and tweet.created_at >= until:
                continue
            if tweet.user.screen_name in names or any(
                mention.screen_name in names
                for mention in tweet.mentions
            ):
                matches.append(tweet)
                if len(matches) >= limit:
                    break
        return matches

    def get_profile_image(self, image_id: int) -> np.ndarray:
        """Fetch profile-image pixels (public avatar download).

        Raises:
            KeyError: unknown image id.
        """
        return self._engine.population.images.get(image_id)

    def trending_sets(self) -> dict[str, set[str]]:
        """Current trending-up / trending-down / popular topic sets.

        Substitutes the hashtag-analytics service [9] the paper reads
        trend labels from.
        """
        return self._engine.trending_sets()
