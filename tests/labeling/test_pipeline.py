"""Tests for the four-stage ground-truth labeling pipeline."""

import numpy as np
import pytest

from repro.labeling.manual import ManualChecker
from repro.labeling.pipeline import METHODS, GroundTruthLabeler
from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.api.rest import RestClient
from repro.twittersim.entities import Tweet, UserProfile


@pytest.fixture(scope="module")
def labeled_world():
    """A tiny world run long enough to have suspensions + captures."""
    config = SimulationConfig.small(seed=61, spam_suspension_rate=0.05)
    population = build_population(config)
    engine = TwitterEngine(population)
    firehose = []
    engine.subscribe(firehose.append)
    engine.run_hours(10)
    rest = RestClient(engine)
    checker = ManualChecker(population.truth, error_rate=0.0, seed=0)
    labeler = GroundTruthLabeler(rest, checker, unlabeled_audit_rate=0.3)
    dataset = labeler.label(firehose)
    return population, dataset


class TestPipeline:
    def test_rejects_empty_input(self, fresh_world):
        population, engine, rest = fresh_world(seed=60)
        checker = ManualChecker(population.truth)
        with pytest.raises(ValueError):
            GroundTruthLabeler(rest, checker).label([])

    def test_labels_cover_all_tweets(self, labeled_world):
        __, dataset = labeled_world
        assert len(dataset.tweet_labels) == dataset.n_tweets
        assert set(np.unique(dataset.tweet_labels)) <= {0, 1}

    def test_finds_spam_and_spammers(self, labeled_world):
        __, dataset = labeled_world
        assert dataset.n_spams > 0
        assert dataset.n_spammers > 0
        assert 0 < dataset.spam_fraction() < 0.6

    def test_method_counts_sum_to_totals(self, labeled_world):
        __, dataset = labeled_world
        assert (
            sum(c.spams for c in dataset.method_counts.values())
            == dataset.n_spams
        )
        assert (
            sum(c.spammers for c in dataset.method_counts.values())
            == dataset.n_spammers
        )

    def test_table_rows_in_method_order(self, labeled_world):
        __, dataset = labeled_world
        rows = dataset.table_rows()
        assert [row[0] for row in rows] == list(METHODS)
        for __, n_spams, pct_tweets, n_spammers, pct_users in rows:
            assert 0 <= pct_tweets <= 100
            assert 0 <= pct_users <= 100

    def test_label_precision_with_perfect_oracle(self, labeled_world):
        """With a zero-error manual pass, labels are near ground truth."""
        population, dataset = labeled_world
        truth = population.truth
        true_positive = false_positive = 0
        for i, tweet in enumerate(dataset.tweets):
            if dataset.tweet_labels[i]:
                if truth.is_spam_tweet(tweet.tweet_id):
                    true_positive += 1
                else:
                    false_positive += 1
        precision = true_positive / max(true_positive + false_positive, 1)
        assert precision > 0.9

    def test_label_recall_reasonable(self, labeled_world):
        population, dataset = labeled_world
        truth = population.truth
        total_spam = sum(
            truth.is_spam_tweet(t.tweet_id) for t in dataset.tweets
        )
        found = dataset.n_spams
        assert found >= 0.5 * total_spam

    def test_spammer_labels_subset_of_users(self, labeled_world):
        __, dataset = labeled_world
        authors = {t.user.user_id for t in dataset.tweets}
        assert set(dataset.user_labels) == authors

    def test_suspended_method_contributes(self, labeled_world):
        """At a 5%/hour suspension hazard over 10h, stage 1 must fire."""
        __, dataset = labeled_world
        assert dataset.method_counts["suspended"].spammers > 0

    def test_clustering_method_contributes(self, labeled_world):
        __, dataset = labeled_world
        assert dataset.method_counts["clustering"].spams > 0


class TestPropagation:
    """Clustering labels spread until a round changes nothing."""

    LINKS = 10

    def test_long_chain_reaches_its_far_end(self):
        """User ``LINKS`` is spam; links alternate user and tweet groups.

        Link ``k`` joins users ``LINKS - k + 1`` and ``LINKS - k``: odd
        links as a user group, even links through their one tweet each
        (tweet ``i`` is user ``i``'s).  Each list holds later links
        first, so a round crosses one link of each kind and the chain
        needs 5 changing rounds.
        """
        n_users = self.LINKS + 1
        tweets = [
            Tweet(
                tweet_id=100 + uid,
                created_at=float(uid),
                user=UserProfile(
                    user_id=uid,
                    screen_name=f"user{uid}",
                    name="U",
                    created_at=0.0,
                    description="",
                    friends_count=1,
                    followers_count=1,
                    statuses_count=1,
                    listed_count=0,
                    favourites_count=0,
                ),
                text="",
            )
            for uid in range(n_users)
        ]
        tweets_of_user = {uid: [uid] for uid in range(n_users)}
        user_groups = [
            [self.LINKS - k + 1, self.LINKS - k]
            for k in range(self.LINKS - 1, 0, -2)
        ]
        tweet_groups = [
            [self.LINKS - k + 1, self.LINKS - k]
            for k in range(self.LINKS, 0, -2)
        ]
        spam_user: dict[int, str] = {}
        spam_tweet: dict[int, str] = {}

        def mark_user(uid: int, method: str) -> None:
            if uid not in spam_user:
                spam_user[uid] = method
                for i in tweets_of_user[uid]:
                    spam_tweet.setdefault(i, method)

        mark_user(self.LINKS, "suspended")
        GroundTruthLabeler(None, None)._propagate(
            tweets,
            list(range(n_users)),
            user_groups,
            tweet_groups,
            tweets_of_user,
            spam_user,
            spam_tweet,
            mark_user,
        )
        expected = {uid: "clustering" for uid in range(self.LINKS)}
        expected[self.LINKS] = "suspended"
        assert spam_user == expected
        assert spam_tweet == expected
