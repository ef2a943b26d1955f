"""Tests for the traditional-honeypot baseline."""

import pytest

from repro.baselines.honeypot import (
    HoneypotProfile,
    TraditionalHoneypot,
    spammers_captured,
)
from repro.twittersim import SimulationConfig, TwitterEngine, build_population


@pytest.fixture
def world():
    config = SimulationConfig.small(seed=101)
    population = build_population(config)
    return population, TwitterEngine(population)


class TestTraditionalHoneypot:
    def test_deploy_creates_fresh_accounts(self, world):
        population, engine = world
        honeypot = TraditionalHoneypot(engine, n_honeypots=5)
        nodes = honeypot.deploy()
        assert len(nodes) == 5
        for node in nodes:
            row = population.index_of[node.user_id]
            account = population.cols.snapshot(row)
            assert account.listed_count == 0  # cannot be manufactured
            assert account.created_at >= 0.0  # registered during the sim

    def test_setup_time_paid_before_monitoring(self, world):
        __, engine = world
        honeypot = TraditionalHoneypot(
            engine, n_honeypots=20, setup_hours_per_10_accounts=1.0
        )
        assert honeypot.setup_hours == 2
        honeypot.deploy()
        assert engine.clock.hour == 2  # the world moved on

    def test_honeypot_accounts_post(self, world):
        population, engine = world
        profile = HoneypotProfile.advanced()
        honeypot = TraditionalHoneypot(engine, 5, profile=profile)
        nodes = honeypot.deploy()
        honeypot.run_hours(6)
        statuses = population.cols.column("statuses_count")
        posted = sum(
            statuses[population.index_of[n.user_id]] for n in nodes
        )
        assert posted > 0

    def test_captures_crossing_traffic_only(self, world):
        population, engine = world
        honeypot = TraditionalHoneypot(
            engine, 5, profile=HoneypotProfile.advanced()
        )
        nodes = honeypot.deploy()
        honeypot.run_hours(5)
        node_ids = {n.user_id for n in nodes}
        for capture in honeypot.captured:
            crossing = capture.sender_id in node_ids or any(
                m.user_id in node_ids for m in capture.tweet.mentions
            )
            assert crossing

    def test_spammers_captured_uses_oracle(self, world):
        population, engine = world
        honeypot = TraditionalHoneypot(
            engine, 8, profile=HoneypotProfile.advanced()
        )
        honeypot.deploy()
        honeypot.run_hours(8)
        truth = population.truth
        caught = spammers_captured(honeypot, truth.is_spammer)
        assert caught <= honeypot.unique_contacts()
        for uid in caught:
            assert truth.is_spammer(uid)

    def test_run_before_deploy_raises(self, world):
        __, engine = world
        with pytest.raises(RuntimeError):
            TraditionalHoneypot(engine, 3).run_hours(1)

    def test_double_deploy_raises(self, world):
        __, engine = world
        honeypot = TraditionalHoneypot(engine, 3)
        honeypot.deploy()
        with pytest.raises(RuntimeError):
            honeypot.deploy()

    def test_rejects_zero_honeypots(self, world):
        __, engine = world
        with pytest.raises(ValueError):
            TraditionalHoneypot(engine, 0)

    def test_advanced_profile_more_attractive_than_basic(self):
        basic = HoneypotProfile.basic()
        advanced = HoneypotProfile.advanced()
        assert advanced.post_rate_per_day > basic.post_rate_per_day
        assert advanced.followers_count > basic.followers_count
        assert advanced.interests
