"""Tests for spammer drift and burst-session activity."""

import numpy as np
import pytest

from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.drift import apply_spammer_drift, drifted_taste_weights


class TestSpammerDrift:
    def test_drift_rotates_campaign_content(self):
        population = build_population(SimulationConfig.small(seed=5))
        before = {
            c.campaign_id: (c.keyword_class, c.template_ids)
            for c in population.campaigns
        }
        n = apply_spammer_drift(population)
        assert n == len(population.campaigns)
        for campaign in population.campaigns:
            old_class, old_templates = before[campaign.campaign_id]
            assert campaign.keyword_class != old_class
            assert campaign.template_ids != old_templates
            assert campaign.stealthy

    def test_drift_slows_reactions(self):
        population = build_population(SimulationConfig.small(seed=5))
        medians = [c.reaction_median_s for c in population.campaigns]
        apply_spammer_drift(population, reaction_slowdown=6.0)
        for campaign, old in zip(population.campaigns, medians):
            assert campaign.reaction_median_s == pytest.approx(6.0 * old)

    def test_drift_rotates_lone_spammers(self):
        population = build_population(SimulationConfig.small(seed=5))
        before = dict(population.lone_spammer_templates)
        apply_spammer_drift(population)
        for uid, (cls, __) in population.lone_spammer_templates.items():
            assert cls != before[uid][0]

    def test_drifted_taste_pivots_away_from_lists(self):
        drifted = drifted_taste_weights()
        assert drifted.followers > drifted.lists_per_day

    def test_stealthy_spam_uses_mainstream_sources(self):
        from repro.twittersim.entities import TweetSource

        population = build_population(SimulationConfig.small(seed=9))
        apply_spammer_drift(population)
        engine = TwitterEngine(population)
        spam_sources = []
        def watch(tweet):
            if population.truth.is_spam_tweet(tweet.tweet_id):
                spam_sources.append(tweet.source)
        engine.subscribe(watch)
        engine.run_hours(6)
        assert spam_sources
        third = sum(
            s is TweetSource.THIRD_PARTY for s in spam_sources
        ) / len(spam_sources)
        assert third < 0.4  # automation signature suppressed


class TestBurstSessions:
    def test_sessions_create_dormant_stretches(self):
        config = SimulationConfig.small(
            seed=11, session_on_fraction=0.3, session_mean_hours=4
        )
        population = build_population(config)
        engine = TwitterEngine(population)
        # Track hourly posting of the highest-rate user.
        cols = population.cols
        idx = int(np.argmax(cols.column("post_rate_per_day")))
        hourly = []
        for __ in range(14):
            # Fetched every hour: a respawn may grow the store.
            before = cols.column("statuses_count")[idx]
            engine.run_hour()
            hourly.append(cols.column("statuses_count")[idx] - before)
        assert any(h == 0 for h in hourly), "never dormant"
        assert any(h > 0 for h in hourly), "never active"

    def test_long_run_average_rate_preserved(self):
        config = SimulationConfig.small(seed=12)
        population = build_population(config)
        engine = TwitterEngine(population)
        stats = engine.run_hours(20)
        organic = sum(s.organic_posts for s in stats) / 20
        expected = population.cols.column("post_rate_per_day")[
            : config.n_normal_users
        ].sum() / 24
        assert organic == pytest.approx(expected, rel=0.25)

    def test_always_on_accounts_never_scale(self):
        config = SimulationConfig.small(seed=13)
        population = build_population(config)
        from repro.twittersim.entities import AccountState

        uid = population.next_user_id()
        account = AccountState(
            user_id=uid,
            screen_name="operator_bot",
            name="Operator",
            created_at=0.0,
            description="",
            friends_count=1,
            followers_count=1,
            statuses_count=0,
            listed_count=0,
            favourites_count=0,
        )
        population.register_operator_account(account, post_rate_per_day=48.0)
        engine = TwitterEngine(population)
        engine.run_hours(10)
        # ~2 posts/hour for 10 hours; dormancy exemption keeps it steady.
        row = population.index_of[uid]
        assert population.cols.column("statuses_count")[row] >= 8

    def test_session_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(session_on_fraction=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(session_mean_hours=0.5)
