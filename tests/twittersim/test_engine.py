"""Tests for the platform engine."""

import numpy as np
import pytest

from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.clock import SECONDS_PER_HOUR
from repro.twittersim.entities import TweetSource
from repro.twittersim.population import AccountKind


@pytest.fixture(scope="module")
def ran_engine():
    """A tiny engine that has run 6 hours, with its firehose captured."""
    population = build_population(SimulationConfig.small(seed=21))
    engine = TwitterEngine(population)
    firehose = []
    engine.subscribe(firehose.append)
    stats = engine.run_hours(6)
    return population, engine, firehose, stats


class TestHourLoop:
    def test_clock_advances_by_hours(self, ran_engine):
        __, engine, __, __ = ran_engine
        assert engine.clock.hour == 6
        assert engine.clock.now == 6 * SECONDS_PER_HOUR

    def test_stats_recorded_per_hour(self, ran_engine):
        __, __, __, stats = ran_engine
        assert [s.hour for s in stats] == list(range(6))

    def test_tweets_are_emitted(self, ran_engine):
        __, __, firehose, stats = ran_engine
        assert len(firehose) == sum(s.total_tweets for s in stats)
        assert len(firehose) > 100

    def test_firehose_in_timestamp_order_per_hour(self, ran_engine):
        __, __, firehose, __ = ran_engine
        by_hour = {}
        for tweet in firehose:
            by_hour.setdefault(
                int(tweet.created_at // SECONDS_PER_HOUR), []
            ).append(tweet.created_at)
        for timestamps in by_hour.values():
            assert timestamps == sorted(timestamps)

    def test_tweet_ids_unique(self, ran_engine):
        __, __, firehose, __ = ran_engine
        ids = [t.tweet_id for t in firehose]
        assert len(set(ids)) == len(ids)

    def test_timestamps_within_hour_bounds(self, ran_engine):
        __, __, firehose, __ = ran_engine
        for tweet in firehose:
            assert 0 <= tweet.created_at <= 6 * SECONDS_PER_HOUR


class TestSpamBehavior:
    def test_spam_tweets_marked_in_truth(self, ran_engine):
        population, __, firehose, stats = ran_engine
        n_spam = sum(
            population.truth.is_spam_tweet(t.tweet_id) for t in firehose
        )
        assert n_spam == sum(s.spam_mentions for s in stats)
        assert n_spam > 0

    def test_spam_mentions_have_victims(self, ran_engine):
        population, __, firehose, __ = ran_engine
        for tweet in firehose:
            if population.truth.is_spam_tweet(tweet.tweet_id):
                assert tweet.mentions

    def test_spam_senders_are_spammers(self, ran_engine):
        population, __, firehose, __ = ran_engine
        for tweet in firehose:
            if population.truth.is_spam_tweet(tweet.tweet_id):
                assert population.truth.is_spammer(tweet.user.user_id)

    def test_spam_reacts_faster_than_organic(self, ran_engine):
        population, __, firehose, __ = ran_engine
        spam_delays, organic_delays = [], []
        for tweet in firehose:
            delay = tweet.mention_time()
            if delay is None:
                continue
            if population.truth.is_spam_tweet(tweet.tweet_id):
                spam_delays.append(delay)
            else:
                organic_delays.append(delay)
        assert spam_delays and organic_delays
        assert np.median(spam_delays) < np.median(organic_delays)

    def test_spam_skews_third_party_sources(self, ran_engine):
        population, __, firehose, __ = ran_engine
        spam = [
            t
            for t in firehose
            if population.truth.is_spam_tweet(t.tweet_id)
        ]
        third = sum(t.source is TweetSource.THIRD_PARTY for t in spam)
        assert third / len(spam) > 0.5

    def test_targeting_prefers_high_taste_accounts(self):
        """Spam concentrates on accounts the taste model scores high."""
        population = build_population(SimulationConfig.small(seed=33))
        engine = TwitterEngine(population)
        victims = []
        def capture(tweet):
            if population.truth.is_spam_tweet(tweet.tweet_id) and tweet.mentions:
                victims.append(tweet.mentions[0].user_id)
        engine.subscribe(capture)
        engine.run_hours(8)
        assert len(victims) > 20
        normal = [
            uid
            for uid in population.order
            if population.truth.account_kind[uid] is AccountKind.NORMAL
        ]
        rows = [population.index_of[uid] for uid in normal]
        bases = engine.taste.profile_score_batch(
            engine.clock.now,
            *(
                population.cols.column(name)[rows]
                for name in (
                    "created_at",
                    "friends_count",
                    "followers_count",
                    "listed_count",
                    "favourites_count",
                    "statuses_count",
                )
            ),
        )
        scores = dict(zip(normal, bases.tolist()))
        victim_scores = [scores[v] for v in victims if v in scores]
        population_mean = np.mean(list(scores.values()))
        assert np.mean(victim_scores) > 1.3 * population_mean


class TestModeration:
    def test_suspension_happens_eventually(self):
        population = build_population(
            SimulationConfig.small(seed=3, spam_suspension_rate=0.2)
        )
        engine = TwitterEngine(population)
        engine.run_hours(4)
        suspended = [
            uid
            for uid in population.order
            if population.accounts[uid].suspended
        ]
        assert suspended
        # Overwhelmingly spammers (normal rate is ~1e-5).
        spammer_share = np.mean(
            [population.truth.is_spammer(uid) for uid in suspended]
        )
        assert spammer_share > 0.9

    def test_suspended_campaign_members_are_replaced(self):
        config = SimulationConfig.small(seed=3, spam_suspension_rate=0.3)
        population = build_population(config)
        sizes_before = [len(c.member_ids) for c in population.campaigns]
        engine = TwitterEngine(population)
        engine.run_hours(3)
        sizes_after = [len(c.member_ids) for c in population.campaigns]
        assert sizes_after == sizes_before  # replaced one-for-one
        assert len(population.accounts) > sum(sizes_before)

    def test_suspended_accounts_stop_tweeting(self):
        population = build_population(
            SimulationConfig.small(seed=3, spam_suspension_rate=0.5)
        )
        engine = TwitterEngine(population)
        engine.run_hours(2)
        suspended = {
            uid
            for uid in population.order
            if population.accounts[uid].suspended
        }
        assert suspended
        firehose = []
        engine.subscribe(firehose.append)
        engine.run_hour()
        still_suspended = suspended & {
            uid
            for uid in suspended
            if population.accounts[uid].suspended
        }
        authors = {t.user.user_id for t in firehose}
        assert not (authors & still_suspended)


class TestReadSideIndexes:
    def test_user_timeline_tracks_recent_tweets(self, ran_engine):
        __, engine, firehose, __ = ran_engine
        author = firehose[-1].user.user_id
        timeline = engine.user_timeline(author)
        assert timeline
        assert timeline[-1].user.user_id == author

    def test_recent_tweets_bounded_by_horizon(self, ran_engine):
        __, engine, __, __ = ran_engine
        horizon = (
            engine.clock.now
            - engine.SEARCH_INDEX_HOURS * SECONDS_PER_HOUR
        )
        for tweet in engine.recent_tweets():
            assert tweet.created_at >= horizon

    def test_trending_sets_disjoint(self, ran_engine):
        __, engine, __, __ = ran_engine
        sets = engine.trending_sets()
        assert not (sets["trending_up"] & sets["popular"])
        assert not (sets["trending_down"] & sets["popular"])


class TestDeterminism:
    def test_same_seed_same_stream(self):
        def run(seed):
            population = build_population(SimulationConfig.small(seed=seed))
            engine = TwitterEngine(population)
            tweets = []
            engine.subscribe(tweets.append)
            engine.run_hours(2)
            return [(t.tweet_id, t.text) for t in tweets]

        assert run(5) == run(5)
        assert run(5) != run(6)
