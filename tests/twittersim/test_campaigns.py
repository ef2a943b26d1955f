"""Tests for the spam-campaign model and spammer taste."""

import numpy as np
import pytest

from repro.twittersim.campaigns import (
    HASHTAG_TASTE,
    TRENDING_TASTE,
    SpammerTasteModel,
    make_campaign,
)
from repro.twittersim.clock import days
from repro.twittersim.entities import AccountState
from repro.twittersim.hashtags import HashtagCategory


def make_account(**overrides) -> AccountState:
    base = dict(
        user_id=1,
        screen_name="user",
        name="User",
        created_at=-days(900),
        description="",
        friends_count=200,
        followers_count=200,
        statuses_count=1000,
        listed_count=5,
        favourites_count=100,
    )
    base.update(overrides)
    return AccountState(**base)


def profile_scores(
    model: SpammerTasteModel, *accounts: AccountState, now: float = 0.0
) -> list[float]:
    """``profile_score_batch`` over the accounts' profile columns."""

    def column(name: str) -> np.ndarray:
        return np.array([getattr(account, name) for account in accounts])

    return model.profile_score_batch(
        now,
        column("created_at"),
        column("friends_count"),
        column("followers_count"),
        column("listed_count"),
        column("favourites_count"),
        column("statuses_count"),
    ).tolist()


class TestTasteModel:
    def setup_method(self):
        self.model = SpammerTasteModel()

    def test_more_lists_per_day_more_attractive(self):
        low, high = profile_scores(
            self.model,
            make_account(listed_count=10),
            make_account(listed_count=900),
        )
        assert high > low

    def test_more_followers_more_attractive(self):
        low, high = profile_scores(
            self.model,
            make_account(followers_count=50),
            make_account(followers_count=10_000),
        )
        assert high > low

    def test_low_friend_follower_ratio_more_attractive(self):
        # Same total, inverted ratio: 1:10 beats 10:1 (Table VI rank 10).
        celebrity, follower_farm = profile_scores(
            self.model,
            make_account(friends_count=100, followers_count=1000),
            make_account(friends_count=1000, followers_count=100),
        )
        assert celebrity > follower_farm

    def test_age_peaks_near_1000_days(self):
        def account_aged(age_days: float) -> AccountState:
            # Hold per-day activity rates fixed so only age varies.
            return make_account(
                created_at=-days(age_days),
                listed_count=int(0.01 * age_days),
                statuses_count=int(2 * age_days),
                favourites_count=int(1 * age_days),
            )

        young, peak, old = profile_scores(
            self.model, *(account_aged(age) for age in (10, 1000, 3000))
        )
        assert peak > young
        assert peak > old

    def test_hashtag_context_follows_taste_table(self):
        social = self.model.context_multiplier(HashtagCategory.SOCIAL, "none")
        astrology = self.model.context_multiplier(
            HashtagCategory.ASTROLOGY, "none"
        )
        none = self.model.context_multiplier(None, "none")
        assert social > astrology >= none

    def test_trending_context_ordering(self):
        up = self.model.context_multiplier(None, "trending_up")
        popular = self.model.context_multiplier(None, "popular")
        down = self.model.context_multiplier(None, "trending_down")
        none = self.model.context_multiplier(None, "none")
        assert up > popular > down > none

    def test_score_multiplies_profile_and_context(self):
        # The context scales a victim's (concentrated) profile score by
        # the product of its hashtag and trending factors.
        context = self.model.context_multiplier(
            HashtagCategory.SOCIAL, "trending_up"
        )
        assert context == pytest.approx(
            HASHTAG_TASTE[HashtagCategory.SOCIAL]
            * TRENDING_TASTE["trending_up"]
        )

    def test_victim_weight_concentrates_profile_not_context(self):
        # The engine weighs a victim by profile score ** concentration
        # times the (linear) context multiplier.
        strong, weak = profile_scores(
            self.model,
            make_account(listed_count=1500, followers_count=20_000),
            make_account(listed_count=0, followers_count=10),
        )
        concentration = self.model.weights.concentration
        ratio_weights = strong**concentration / weak**concentration
        assert ratio_weights > strong / weak  # sharper than linear

    def test_scores_positive_and_finite(self):
        rng = np.random.default_rng(0)
        accounts = [
            make_account(
                friends_count=int(rng.integers(0, 50_000)),
                followers_count=int(rng.integers(0, 50_000)),
                listed_count=int(rng.integers(0, 3000)),
                favourites_count=int(rng.integers(0, 300_000)),
                statuses_count=int(rng.integers(0, 300_000)),
                created_at=-days(float(rng.uniform(1, 3200))),
            )
            for __ in range(100)
        ]
        scores = np.array(profile_scores(self.model, *accounts))
        assert np.isfinite(scores).all() and (scores > 0).all()


class TestMakeCampaign:
    def test_campaign_fields_valid(self):
        rng = np.random.default_rng(3)
        campaign = make_campaign(7, rng, base_image_id=12, description_words=("a", "b"))
        assert campaign.campaign_id == 7
        assert campaign.keyword_class in ("money", "adult", "promo", "deception")
        assert 4 <= campaign.name_digits <= 6
        assert len(campaign.template_ids) >= 2
        assert campaign.actions_per_hour > 0

    def test_pick_template_stays_in_pool(self):
        rng = np.random.default_rng(3)
        campaign = make_campaign(1, rng, 0, ("x",))
        for __ in range(20):
            assert campaign.pick_template(rng) in campaign.template_ids
