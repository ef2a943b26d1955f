"""Ground-truth labeling pipeline (Section IV-B, Table III).

Order of stages, as in the paper:

1. **Suspended accounts** — authors that no longer resolve through the
   REST API are candidate spammers; their tweets candidate spam.
2. **Clustering** — group users by profile-image dHash, screen-name
   Σ-pattern, and description MinHash; group tweets by near-duplicate
   content in daily windows.  Labels propagate: a suspended user in a
   user-group marks the whole group; a spam tweet in a tweet-group
   marks the whole group and its authors.
3. **Rule-based** — the 11 spam conditions, the seed-account (verified)
   non-spam whitelist, and the affiliation-symbol rule label what the
   first two stages missed.
4. **Manual checking** — the (noisy-oracle) human pass audits every
   rough label and a sample of the unlabeled remainder.

The pipeline records which stage produced each label, yielding the
Table III accounting.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..features.content import normalize_text_for_dedup
from ..obs import get_event_stream, get_registry, trace
from ..twittersim.api.rest import RestClient
from ..twittersim.entities import Tweet
from ..twittersim.images import DEFAULT_IMAGE_ID
from .dhash import dhash_many, group_by_dhash
from .manual import ManualChecker
from .minhash import MinHasher, group_by_signature
from .neardup import group_dedup_forms
from .rules import (
    StreamContext,
    TweetText,
    is_rule_spam,
    is_seed_account,
    symbol_affiliation_spam,
)
from .screenname import group_by_pattern
from .suspended import find_suspended

#: Stage names in Table III row order.
METHODS = ("suspended", "clustering", "rule_based", "human")

log = logging.getLogger("repro.labeling.pipeline")


@dataclass
class MethodCounts:
    """One Table-III row: what a stage newly labeled."""

    spams: int = 0
    spammers: int = 0

    def as_row(self, n_tweets: int, n_users: int) -> tuple[int, float, int, float]:
        """(#spams, %tweets, #spammers, %users)."""
        return (
            self.spams,
            100.0 * self.spams / max(n_tweets, 1),
            self.spammers,
            100.0 * self.spammers / max(n_users, 1),
        )


@dataclass
class LabeledDataset:
    """Final ground-truth dataset with per-stage accounting."""

    tweets: list[Tweet]
    tweet_labels: np.ndarray
    user_labels: dict[int, int]
    tweet_method: dict[int, str]
    user_method: dict[int, str]
    method_counts: dict[str, MethodCounts]

    @property
    def n_tweets(self) -> int:
        return len(self.tweets)

    @property
    def n_users(self) -> int:
        return len(self.user_labels)

    @property
    def n_spams(self) -> int:
        return int(self.tweet_labels.sum())

    @property
    def n_spammers(self) -> int:
        return sum(self.user_labels.values())

    def spam_fraction(self) -> float:
        """Fraction of tweets labeled spam."""
        return self.n_spams / max(self.n_tweets, 1)

    def spammer_fraction(self) -> float:
        """Fraction of involved users labeled spammer."""
        return self.n_spammers / max(self.n_users, 1)

    def table_rows(self) -> list[tuple[str, int, float, int, float]]:
        """Table III rows: (method, #spams, %tweets, #spammers, %users)."""
        return [
            (method, *self.method_counts[method].as_row(self.n_tweets, self.n_users))
            for method in METHODS
        ]


class GroundTruthLabeler:
    """Runs the four-stage labeling pipeline over captured tweets.

    Args:
        rest: REST client for suspension checks and avatar downloads.
        checker: the manual-checking oracle.
        unlabeled_audit_rate: fraction of never-labeled tweets the
            human pass samples (auditing all 100% is the paper's
            two-week effort; sampling models a bounded budget).
        minhash_seed: seed for the MinHash hash family.
        workers: process-pool size for the MinHash clustering stages
            (description MinHash, near-duplicate windows); 0 forces
            sequential, ``None`` defers to the ambient
            :func:`repro.parallel.resolve_workers` rule.  Groups are
            identical at every worker count.
    """

    def __init__(
        self,
        rest: RestClient,
        checker: ManualChecker,
        unlabeled_audit_rate: float = 0.1,
        minhash_seed: int = 0,
        enable_suspended: bool = True,
        enable_clustering: bool = True,
        enable_rules: bool = True,
        enable_manual: bool = True,
        workers: int | None = None,
    ) -> None:
        if not 0 <= unlabeled_audit_rate <= 1:
            raise ValueError("unlabeled_audit_rate must be in [0, 1]")
        self.rest = rest
        self.checker = checker
        self.unlabeled_audit_rate = unlabeled_audit_rate
        self.hasher = MinHasher(seed=minhash_seed)
        self.workers = workers
        # Stage toggles for ablation studies: each disables exactly one
        # labeling method, leaving the rest of the pipeline intact.
        self.enable_suspended = enable_suspended
        self.enable_clustering = enable_clustering
        self.enable_rules = enable_rules
        self.enable_manual = enable_manual

    # ------------------------------------------------------------------

    def label(self, tweets: list[Tweet]) -> LabeledDataset:
        """Label a captured tweet set; returns the ground-truth dataset.

        Raises:
            ValueError: on an empty capture.
        """
        if not tweets:
            raise ValueError("cannot label an empty tweet set")
        tweets = sorted(tweets, key=lambda t: t.created_at)
        # Each tweet's dedup form, derived once for the repeat counts,
        # the repetition and bot rules and the near-duplicate groups.
        dedup = [normalize_text_for_dedup(t.text) for t in tweets]
        authors = [t.user.user_id for t in tweets]
        unique_users = list(dict.fromkeys(authors))
        profile_of = {t.user.user_id: t.user for t in tweets}
        tweets_of_user: dict[int, list[int]] = defaultdict(list)
        for i, uid in enumerate(authors):
            tweets_of_user[uid].append(i)
        # Screen-name pattern groups (indices into unique_users) serve
        # both the clustering stage and the affiliation rule.
        name_groups = group_by_pattern(
            [profile_of[uid].screen_name for uid in unique_users]
        )

        spam_user: dict[int, str] = {}
        spam_tweet: dict[int, str] = {}

        def mark_user(uid: int, method: str) -> None:
            if uid not in spam_user:
                spam_user[uid] = method
                for i in tweets_of_user[uid]:
                    if i not in spam_tweet:
                        spam_tweet[i] = method

        registry = get_registry()
        events = get_event_stream()

        def stage_span(span, stage: str, before: tuple[int, int]) -> None:
            """Annotate a finished stage with its newly-labeled deltas."""
            new_spams = len(spam_tweet) - before[0]
            new_spammers = len(spam_user) - before[1]
            span.set(
                new_spams=new_spams,
                new_spammers=new_spammers,
                total_spams=len(spam_tweet),
                total_spammers=len(spam_user),
            )
            registry.counter(f"label.{stage}.spams").inc(max(new_spams, 0))
            registry.counter(f"label.{stage}.spammers").inc(
                max(new_spammers, 0)
            )
            events.emit(
                "label.stage",
                stage=stage,
                new_spams=new_spams,
                new_spammers=new_spammers,
                total_spams=len(spam_tweet),
                total_spammers=len(spam_user),
            )
            log.info(
                "labeling stage %s: %+d spams, %+d spammers",
                stage,
                new_spams,
                new_spammers,
            )

        # -- Stage 1: suspended accounts --------------------------------
        if self.enable_suspended:
            with trace("label.suspended") as span:
                before = (len(spam_tweet), len(spam_user))
                for uid in sorted(find_suspended(self.rest, unique_users)):
                    mark_user(uid, "suspended")
                stage_span(span, "suspended", before)

        # -- Stage 2: clustering -----------------------------------------
        if self.enable_clustering:
            with trace("label.clustering") as span:
                before = (len(spam_tweet), len(spam_user))
                user_groups = self._user_groups(
                    unique_users, profile_of, name_groups
                )
                with trace("label.neardup") as ndspan:
                    tweet_groups = group_dedup_forms(
                        tweets, dedup, self.hasher, workers=self.workers
                    )
                    ndspan.set(groups=len(tweet_groups))
                self._propagate(
                    tweets, unique_users, user_groups, tweet_groups,
                    tweets_of_user, spam_user, spam_tweet, mark_user,
                )
                stage_span(span, "clustering", before)

        # -- Stage 3: rule-based -----------------------------------------
        name_groups_tweets = [
            [i for uid_idx in group for i in tweets_of_user[unique_users[uid_idx]]]
            for group in name_groups
        ]
        symbol_spam = symbol_affiliation_spam(tweets, name_groups_tweets)
        if self.enable_rules:
            with trace("label.rule_based") as span:
                before = (len(spam_tweet), len(spam_user))
                ctx = StreamContext()
                for i, tweet in enumerate(tweets):
                    # Seed accounts are whitelisted non-spam.
                    if (
                        i not in spam_tweet
                        and not is_seed_account(tweet)
                        and (
                            i in symbol_spam
                            or is_rule_spam(TweetText(tweet, dedup[i]), ctx)
                        )
                    ):
                        spam_tweet[i] = "rule_based"
                        if tweet.user.user_id not in spam_user:
                            spam_user[tweet.user.user_id] = "rule_based"
                    ctx.fold(tweet, dedup[i])
                stage_span(span, "rule_based", before)

        # -- Stage 4: manual checking ------------------------------------
        if self.enable_manual:
            with trace("label.manual") as span:
                before = (len(spam_tweet), len(spam_user))
                self._manual_pass(
                    tweets, unique_users, spam_user, spam_tweet
                )
                stage_span(span, "manual", before)

        registry.counter("label.tweets_labeled").inc(len(tweets))
        return self._assemble(
            tweets, unique_users, spam_user, spam_tweet
        )

    # ------------------------------------------------------------------

    def _user_groups(
        self,
        unique_users: list[int],
        profile_of: dict,
        name_groups: list[list[int]],
    ) -> list[list[int]]:
        """All clustering-stage user groups, as lists of user ids.

        ``name_groups`` are the screen-name pattern groups, as indices
        into ``unique_users``.
        """
        groups: list[list[int]] = []
        # Profile-image dHash (default avatars excluded: the shared
        # platform egg is not campaign evidence).
        with trace("label.dhash") as span:
            image_users = [
                uid
                for uid in unique_users
                if profile_of[uid].profile_image_id != DEFAULT_IMAGE_ID
            ]
            images = [
                self.rest.get_profile_image(
                    profile_of[uid].profile_image_id
                )
                for uid in image_users
            ]
            hashes = dhash_many(images)
            for group in group_by_dhash(hashes):
                groups.append([image_users[i] for i in group])
            span.set(hashed=len(image_users), groups=len(groups))
        # Screen-name patterns.
        with trace("label.screenname") as span:
            n_before = len(groups)
            for group in name_groups:
                groups.append([unique_users[i] for i in group])
            span.set(groups=len(groups) - n_before)
        # Description MinHash.
        with trace("label.minhash") as span:
            n_before = len(groups)
            for group in group_by_signature(
                [profile_of[uid].description for uid in unique_users],
                self.hasher,
                workers=self.workers,
            ):
                groups.append([unique_users[i] for i in group])
            span.set(groups=len(groups) - n_before)
        return groups

    def _propagate(
        self,
        tweets: list[Tweet],
        unique_users: list[int],
        user_groups: list[list[int]],
        tweet_groups: list[list[int]],
        tweets_of_user: dict[int, list[int]],
        spam_user: dict[int, str],
        spam_tweet: dict[int, str],
        mark_user,
    ) -> None:
        """Fixpoint label propagation across user and tweet groups.

        Rounds repeat until one changes nothing.  A group marks all its
        members in the round it first finds one marked, so at most one
        round per group changes anything.
        """
        changed = True
        while changed:
            changed = False
            for group in user_groups:
                if any(uid in spam_user for uid in group):
                    for uid in group:
                        if uid not in spam_user:
                            mark_user(uid, "clustering")
                            changed = True
            for group in tweet_groups:
                group_is_spam = any(
                    i in spam_tweet
                    or tweets[i].user.user_id in spam_user
                    for i in group
                )
                if group_is_spam:
                    for i in group:
                        if i not in spam_tweet:
                            spam_tweet[i] = "clustering"
                            changed = True
                        uid = tweets[i].user.user_id
                        if uid not in spam_user:
                            mark_user(uid, "clustering")
                            changed = True

    def _manual_pass(
        self,
        tweets: list[Tweet],
        unique_users: list[int],
        spam_user: dict[int, str],
        spam_tweet: dict[int, str],
    ) -> None:
        """Audit rough labels; sample the unlabeled remainder."""
        # Audit labeled tweets: drop rejected labels.
        for i in list(spam_tweet):
            if not self.checker.check_tweet(tweets[i].tweet_id):
                del spam_tweet[i]
        for uid in list(spam_user):
            if not self.checker.check_user(uid):
                del spam_user[uid]
        # Sample the unlabeled remainder for missed spam.
        rng = np.random.default_rng(self.checker.seed + 1)
        for i, tweet in enumerate(tweets):
            if i in spam_tweet:
                continue
            if rng.random() >= self.unlabeled_audit_rate:
                continue
            if self.checker.check_tweet(tweet.tweet_id):
                spam_tweet[i] = "human"
                if tweet.user.user_id not in spam_user:
                    spam_user[tweet.user.user_id] = "human"

    def _assemble(
        self,
        tweets: list[Tweet],
        unique_users: list[int],
        spam_user: dict[int, str],
        spam_tweet: dict[int, str],
    ) -> LabeledDataset:
        labels = np.zeros(len(tweets), dtype=np.int64)
        tweet_method: dict[int, str] = {}
        counts = {method: MethodCounts() for method in METHODS}
        for i, method in spam_tweet.items():
            labels[i] = 1
            tweet_method[tweets[i].tweet_id] = method
            counts[method].spams += 1
        user_labels = {uid: 0 for uid in unique_users}
        for uid, method in spam_user.items():
            if uid in user_labels:
                user_labels[uid] = 1
                counts[method].spammers += 1
        return LabeledDataset(
            tweets=tweets,
            tweet_labels=labels,
            user_labels=user_labels,
            tweet_method=tweet_method,
            user_method=dict(spam_user),
            method_counts=counts,
        )
