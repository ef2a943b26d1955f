"""Tests for population generation and ground truth."""

import pytest

from repro.twittersim import SimulationConfig, build_population
from repro.twittersim.entities import AccountState
from repro.twittersim.hashtags import HashtagCategory
from repro.twittersim.population import AccountKind


@pytest.fixture(scope="module")
def population():
    return build_population(SimulationConfig.small(seed=5))


class TestConfigValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_normal_users=5)

    def test_rejects_inverted_campaign_sizes(self):
        with pytest.raises(ValueError):
            SimulationConfig(campaign_size_min=10, campaign_size_max=5)

    def test_rejects_bad_compromised_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(compromised_fraction=1.5)

    def test_rejects_bad_post_rates(self):
        with pytest.raises(ValueError):
            SimulationConfig(post_rate_min=0)

    @pytest.mark.parametrize("shards", [0, -1, True, 2.5])
    def test_rejects_engine_shards_that_are_not_positive_ints(self, shards):
        with pytest.raises(ValueError, match="engine_shards"):
            SimulationConfig(engine_shards=shards)

    # Only the refusal is tested: an hour at a spam rate of 1 or more
    # never ends, since every respawned member is suspended in turn.
    @pytest.mark.parametrize("rate", [1.0, 1.5, float("nan"), -0.01])
    def test_rejects_spam_suspension_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="spam_suspension_rate"):
            SimulationConfig(spam_suspension_rate=rate)

    @pytest.mark.parametrize("rate", [1.5, float("nan"), -0.01])
    def test_rejects_normal_suspension_rate_outside_unit_interval(
        self, rate
    ):
        with pytest.raises(ValueError, match="normal_suspension_rate"):
            SimulationConfig(normal_suspension_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.999])
    def test_accepts_spam_suspension_rate_in_unit_interval(self, rate):
        config = SimulationConfig(spam_suspension_rate=rate)
        assert config.spam_suspension_rate == rate

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
    def test_accepts_normal_suspension_rate_in_closed_unit_interval(
        self, rate
    ):
        config = SimulationConfig(normal_suspension_rate=rate)
        assert config.normal_suspension_rate == rate


class TestPopulationStructure:
    def test_total_account_count(self, population):
        config = population.config
        campaign_members = sum(
            len(c.member_ids) for c in population.campaigns
        )
        expected = (
            config.n_normal_users + campaign_members + config.n_lone_spammers
        )
        assert len(population.index_of) == expected
        assert population.cols.n == expected

    def test_every_account_has_kind(self, population):
        for uid in population.order:
            assert uid in population.truth.account_kind

    def test_index_is_consistent(self, population):
        for uid in population.order:
            assert population.order[population.index_of[uid]] == uid

    def test_rate_arrays_aligned(self, population):
        cols = population.cols
        assert len(cols.column("post_rate_per_day")) == len(population.order)
        assert len(cols.column("topic_affinity")) == len(population.order)

    def test_spam_accounts_have_zero_organic_rate(self, population):
        for uid in population.spammer_ids():
            kind = population.truth.account_kind[uid]
            if kind is AccountKind.COMPROMISED:
                continue  # compromised accounts keep organic behavior
            idx = population.index_of[uid]
            assert population.cols.column("post_rate_per_day")[idx] == 0.0

    def test_some_compromised_accounts_exist(self, population):
        kinds = population.truth.account_kind.values()
        assert any(k is AccountKind.COMPROMISED for k in kinds)

    def test_no_hashtag_users_exist(self, population):
        config = population.config
        normal = population.order[: config.n_normal_users]
        without = sum(1 for uid in normal if not population.interests[uid])
        fraction = without / len(normal)
        assert 0.1 < fraction < 0.5


class TestAttributeCoverage:
    """Every Table II sampling bin must have candidate accounts."""

    @pytest.mark.parametrize(
        "getter,values,tolerance",
        [
            (lambda a: a.friends_count, (10, 100, 1000), 2.0),
            (lambda a: a.followers_count, (10, 100, 1000), 2.0),
            (lambda a: a.listed_count, (10, 100), 2.0),
        ],
    )
    def test_profile_bins_populated(self, getter, values, tolerance):
        population = build_population(
            SimulationConfig(seed=1, n_normal_users=4000)
        )
        normal = population.order[:4000]
        cols = population.cols
        profiles = {
            uid: cols.snapshot(population.index_of[uid]) for uid in normal
        }
        for value in values:
            matches = [
                uid
                for uid in normal
                if value / tolerance
                <= max(getter(profiles[uid]), 0.5)
                <= value * tolerance
            ]
            assert len(matches) >= 5, f"bin {value} has {len(matches)}"


class TestCampaigns:
    def test_campaign_members_share_name_prefix(self, population):
        for campaign in population.campaigns:
            for uid in campaign.member_ids:
                row = population.index_of[uid]
                name = population.cols.column("screen_name")[row]
                assert name.startswith(campaign.name_prefix)

    def test_campaign_members_marked_as_spammers(self, population):
        for campaign in population.campaigns:
            for uid in campaign.member_ids:
                assert population.truth.is_spammer(uid)
                assert population.truth.account_campaign[uid] == (
                    campaign.campaign_id
                )

    def test_spawn_member_extends_arrays(self, population):
        campaign = population.campaigns[0]
        before = len(population.order)
        new_uid = population.spawn_campaign_member(campaign, now=100.0)
        assert len(population.order) == before + 1
        assert new_uid in campaign.member_ids
        rates = population.cols.column("post_rate_per_day")
        assert len(rates) == len(population.order)


def _operator_account(user_id: int) -> AccountState:
    return AccountState(
        user_id=user_id,
        screen_name="hp_test",
        name="HP",
        created_at=0.0,
        description="",
        friends_count=10,
        followers_count=5,
        statuses_count=0,
        listed_count=0,
        favourites_count=0,
    )


class TestOperatorAccounts:
    def test_register_operator_account(self):
        population = build_population(SimulationConfig.small(seed=2))
        uid = population.next_user_id()
        population.register_operator_account(
            _operator_account(uid),
            post_rate_per_day=6.0,
            interests=(HashtagCategory.SOCIAL,),
            topic_affinity=0.2,
        )
        idx = population.index_of[uid]
        assert population.cols.column("post_rate_per_day")[idx] == 6.0
        assert population.truth.account_kind[uid] is AccountKind.NORMAL

    def test_duplicate_id_rejected(self):
        population = build_population(SimulationConfig.small(seed=2))
        existing = population.order[0]
        account = _operator_account(existing)
        with pytest.raises(ValueError, match="already exists"):
            population.register_operator_account(account)

    def test_unallocated_id_rejected(self):
        # The id spawn_campaign_member takes next: registering it would
        # give two accounts one id and flip the operator's ground truth
        # to CAMPAIGN_SPAMMER.
        population = build_population(SimulationConfig.small(seed=3))
        upcoming = len(population.order)
        with pytest.raises(ValueError, match="next_user_id"):
            population.register_operator_account(_operator_account(upcoming))
        spawned = population.spawn_campaign_member(
            population.campaigns[0], now=0.0
        )
        assert spawned == upcoming
        assert len(population.order) == len(set(population.order))

    def test_negative_id_rejected(self):
        population = build_population(SimulationConfig.small(seed=3))
        with pytest.raises(ValueError, match="next_user_id"):
            population.register_operator_account(_operator_account(-1))

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_bad_post_rate_rejected(self, rate):
        population = build_population(SimulationConfig.small(seed=3))
        account = _operator_account(population.next_user_id())
        with pytest.raises(ValueError, match="post_rate_per_day"):
            population.register_operator_account(
                account, post_rate_per_day=rate
            )

    @pytest.mark.parametrize("affinity", [-0.1, 1.5, float("nan")])
    def test_bad_topic_affinity_rejected(self, affinity):
        population = build_population(SimulationConfig.small(seed=3))
        account = _operator_account(population.next_user_id())
        with pytest.raises(ValueError, match="topic_affinity"):
            population.register_operator_account(
                account, topic_affinity=affinity
            )

    def test_rejected_call_changes_nothing(self):
        population = build_population(SimulationConfig.small(seed=3))
        uid = population.next_user_id()
        account = _operator_account(uid)
        # A taken handle makes the name claim draw from the population
        # RNG, so a check placed after the claim would move the stream.
        taken = population.cols.column("screen_name")[0]
        account.screen_name = taken
        order = list(population.order)
        names = set(population.names._used)
        rng_state = population.rng.bit_generator.state
        with pytest.raises(ValueError):
            population.register_operator_account(
                account, post_rate_per_day=float("nan")
            )
        assert population.order == order
        assert population.names._used == names
        assert population.rng.bit_generator.state == rng_state
        assert account.screen_name == taken
        assert uid not in population.index_of


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = build_population(SimulationConfig.small(seed=9))
        b = build_population(SimulationConfig.small(seed=9))
        assert a.order == b.order
        for uid in a.order[:50]:
            row = a.index_of[uid]
            assert b.index_of[uid] == row
            assert a.cols.snapshot(row) == b.cols.snapshot(row)

    def test_different_seed_different_population(self):
        a = build_population(SimulationConfig.small(seed=9))
        b = build_population(SimulationConfig.small(seed=10))
        names_a = a.cols.column("screen_name")[:20]
        names_b = b.cols.column("screen_name")[:20]
        assert names_a != names_b
