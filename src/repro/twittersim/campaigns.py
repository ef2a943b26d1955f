"""Spam campaigns and the spammer taste model.

The paper's central empirical finding (Tables V/VI, Figures 3-5) is that
spammers preferentially target accounts with particular attributes —
high list activity, large audiences, heavy favoriting, trending-up
topics, social/general hashtags.  The simulator encodes that preference
as an explicit *taste model*: a scoring function over victim profiles
that drives spammers' victim selection.  The pseudo-honeypot pipeline
never sees this model; it must rediscover the preference ordering from
captured data, which is exactly the paper's reverse-engineering loop.

A campaign is a coordinated set of fake accounts sharing registration
artifacts (naming pattern, base profile image, bio template) and
content templates — the redundancy the clustering-based labeler of
Section IV-B exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entities import AccountState
from .hashtags import HashtagCategory


def _saturate(x: float) -> float:
    """Smooth saturation x/(1+x): monotone, bounded, unitless."""
    return x / (1.0 + x)


@dataclass(frozen=True)
class TasteWeights:
    """Weights of the spammer taste model over victim profile attributes.

    Scale parameters are the attribute values at which the saturating
    response reaches one half; they are aligned with the top sample
    values of Table II so that the largest sample bins are the most
    attractive, reproducing the monotone trends of Figure 3 and the
    PGE ranking of Table VI (list activity first, audience size next,
    favorites/statuses after, friend:follower ratio last).
    """

    lists_per_day: float = 4.2
    followers: float = 1.7
    total_friends_followers: float = 1.9
    listed_count: float = 1.5
    friends: float = 1.4
    favourites: float = 1.1
    statuses: float = 0.6
    inverse_ratio: float = 0.55
    #: Sharpness of victim selection: sampling weight = score ** concentration.
    #: Values > 1 concentrate spam on the most attractive accounts, which is
    #: what the paper's heavily skewed Table V implies (one attribute's nodes
    #: garner 80% of all spammers).
    concentration: float = 4.0
    lists_per_day_scale: float = 1.1
    followers_scale: float = 6000.0
    total_scale: float = 18000.0
    listed_scale: float = 300.0
    friends_scale: float = 6000.0
    favourites_scale: float = 120000.0
    statuses_scale: float = 120000.0
    inverse_ratio_scale: float = 6.0


#: Multiplier applied when a victim's recent post used a hashtag of the
#: given category.  Ordering mirrors Figure 4: social and general capture
#: the most spammers; tech/business have the highest spammer *ratios*.
HASHTAG_TASTE: dict[HashtagCategory, float] = {
    HashtagCategory.SOCIAL: 1.55,
    HashtagCategory.GENERAL: 1.45,
    HashtagCategory.TECH: 1.40,
    HashtagCategory.BUSINESS: 1.30,
    HashtagCategory.ENTERTAINMENT: 1.22,
    HashtagCategory.EDUCATION: 1.12,
    HashtagCategory.ENVIRONMENT: 1.06,
    HashtagCategory.ASTROLOGY: 1.00,
}

#: Multiplier for the trending status of a victim's recent topic.
#: Ordering mirrors Figure 5: trending-up > popular > trending-down >
#: no trending topic.
TRENDING_TASTE: dict[str, float] = {
    "trending_up": 2.4,
    "popular": 2.0,
    "trending_down": 1.7,
    "none": 1.0,
}

#: Account age (days) at which spammer interest peaks (Figure 3(e)).
AGE_PEAK_DAYS = 1000.0


class SpammerTasteModel:
    """Scores how attractive a victim account is to spammers.

    The total score multiplies a profile-based base score, an age bell
    curve centered near 1,000 days, and context multipliers for the
    hashtag category and trending status of the victim's recent post.
    """

    def __init__(self, weights: TasteWeights | None = None) -> None:
        self.weights = weights or TasteWeights()

    def profile_score(self, account: AccountState, now: float) -> float:
        """Base attractiveness from profile attributes alone."""
        w = self.weights
        age = max((now - account.created_at) / 86400.0, 1.0)
        lists_per_day = account.listed_count / age
        total = account.friends_count + account.followers_count
        ratio = account.friends_count / max(account.followers_count, 1)
        inverse_ratio = 1.0 / max(ratio, 1e-3)
        score = (
            w.lists_per_day * _saturate(lists_per_day / w.lists_per_day_scale)
            + w.followers * _saturate(account.followers_count / w.followers_scale)
            + w.total_friends_followers * _saturate(total / w.total_scale)
            + w.listed_count * _saturate(account.listed_count / w.listed_scale)
            + w.friends * _saturate(account.friends_count / w.friends_scale)
            + w.favourites * _saturate(account.favourites_count / w.favourites_scale)
            + w.statuses * _saturate(account.statuses_count / w.statuses_scale)
            + w.inverse_ratio * _saturate(inverse_ratio / w.inverse_ratio_scale)
        )
        # Age response: rises toward ~1,000 days then declines (Fig 3e).
        # The multiplier stays in a moderate band (0.55-1.45): strong
        # enough that the age peak is visible over counter accumulation,
        # weak enough not to dominate the attribute preferences.
        age_factor = math.exp(-(math.log(age / AGE_PEAK_DAYS) ** 2) / 2.0)
        return score * (0.55 + 0.9 * age_factor)

    def profile_score_batch(
        self,
        now: float,
        created_at: np.ndarray,
        friends: np.ndarray,
        followers: np.ndarray,
        listed: np.ndarray,
        favourites: np.ndarray,
        statuses: np.ndarray,
    ) -> np.ndarray:
        """Column-wise :meth:`profile_score` over account batches.

        The attribute terms are rational arithmetic (+, -, *, /), which
        IEEE-754 evaluates identically element-wise and scalar, so the
        vector path is bitwise-equal to the scalar one.  The age bell
        curve is transcendental — ``np.log``/``np.exp`` drift from
        ``math.log``/``math.exp`` in the last ulp — so it stays a
        scalar loop over the (much shorter) batch.
        """
        w = self.weights
        age = np.maximum((now - created_at) / 86400.0, 1.0)
        lists_per_day = listed / age
        total = friends + followers
        ratio = friends / np.maximum(followers, 1)
        inverse_ratio = 1.0 / np.maximum(ratio, 1e-3)
        score = (
            w.lists_per_day * _saturate(lists_per_day / w.lists_per_day_scale)
            + w.followers * _saturate(followers / w.followers_scale)
            + w.total_friends_followers * _saturate(total / w.total_scale)
            + w.listed_count * _saturate(listed / w.listed_scale)
            + w.friends * _saturate(friends / w.friends_scale)
            + w.favourites * _saturate(favourites / w.favourites_scale)
            + w.statuses * _saturate(statuses / w.statuses_scale)
            + w.inverse_ratio * _saturate(inverse_ratio / w.inverse_ratio_scale)
        )
        out = np.empty(len(score), dtype=np.float64)
        age_list = age.tolist()
        score_list = score.tolist()
        for i, (age_i, score_i) in enumerate(zip(age_list, score_list)):
            age_factor = math.exp(
                -(math.log(age_i / AGE_PEAK_DAYS) ** 2) / 2.0
            )
            out[i] = score_i * (0.55 + 0.9 * age_factor)
        return out

    def context_multiplier(
        self,
        hashtag_category: HashtagCategory | None,
        trending_status: str,
    ) -> float:
        """Multiplier from the victim's recent posting context."""
        hashtag_factor = (
            HASHTAG_TASTE[hashtag_category] if hashtag_category else 1.0
        )
        trending_factor = TRENDING_TASTE.get(trending_status, 1.0)
        return hashtag_factor * trending_factor

    def score(
        self,
        account: AccountState,
        now: float,
        hashtag_category: HashtagCategory | None = None,
        trending_status: str = "none",
    ) -> float:
        """Full attractiveness score of a victim in context."""
        return self.profile_score(account, now) * self.context_multiplier(
            hashtag_category, trending_status
        )

    def sampling_weight(
        self,
        account: AccountState,
        now: float,
        hashtag_category: HashtagCategory | None = None,
        trending_status: str = "none",
    ) -> float:
        """Victim-selection weight.

        Profile taste is raised to the concentration exponent (spammers
        strongly prefer the best-matching profiles); the posting-context
        multiplier enters linearly.
        """
        return (
            self.profile_score(account, now) ** self.weights.concentration
        ) * self.context_multiplier(hashtag_category, trending_status)


@dataclass
class Campaign:
    """A coordinated spam campaign.

    Attributes:
        campaign_id: stable integer id.
        keyword_class: content class ('money', 'adult', 'promo',
            'deception') used by its tweet templates.
        name_prefix: shared screen-name prefix (automatic registration).
        name_digits: number of digits appended to the prefix.
        base_image_id: id of the shared profile artwork in the image
            store; member avatars are perturbed copies.
        description_words: shared bio template words.
        template_ids: ids of its repetitive tweet templates.
        actions_per_hour: mean spam mentions per live member per hour.
        reaction_median_s: median delay between a victim's post and the
            spam mention reacting to it (spammers react fast, §IV-A).
        member_ids: user ids of current members.
    """

    campaign_id: int
    keyword_class: str
    name_prefix: str
    name_digits: int
    base_image_id: int
    description_words: tuple[str, ...]
    template_ids: tuple[int, ...]
    actions_per_hour: float
    reaction_median_s: float
    member_ids: list[int] = field(default_factory=list)
    #: Post-drift stealth: mainstream client sources instead of
    #: automation tooling (see :mod:`repro.twittersim.drift`).
    stealthy: bool = False

    def pick_template(self, rng: np.random.Generator) -> int:
        """Choose one of the campaign's repetitive templates."""
        return int(self.template_ids[rng.integers(0, len(self.template_ids))])


def make_campaign(
    campaign_id: int,
    rng: np.random.Generator,
    base_image_id: int,
    description_words: tuple[str, ...],
    actions_min: float = 0.03,
    actions_max: float = 0.12,
) -> Campaign:
    """Draw a campaign's shared artifacts and behavioral parameters."""
    keyword_class = str(
        rng.choice(("money", "adult", "promo", "deception"))
    )
    prefix_pool = (
        "promo", "deal", "win", "cash", "hot", "click", "mega", "bonus",
        "gift", "lucky",
    )
    prefix = str(rng.choice(prefix_pool)) + str(rng.choice(list("abcdefgh")))
    n_templates = int(rng.integers(2, 5))
    template_base = int(rng.integers(0, 1000))
    return Campaign(
        campaign_id=campaign_id,
        keyword_class=keyword_class,
        name_prefix=prefix,
        name_digits=int(rng.integers(4, 7)),
        base_image_id=base_image_id,
        description_words=description_words,
        template_ids=tuple(template_base + i for i in range(n_templates)),
        actions_per_hour=float(rng.uniform(actions_min, actions_max)),
        reaction_median_s=float(rng.uniform(15.0, 90.0)),
    )
