"""Account population: organic users, campaigns, lone spammers.

The generator draws profile attributes from log-uniform distributions
spanning the full sample-value ranges of Table II, so every sampling
bin (friends=10 … friends=10k, account age 10 … 3,000 days, …) is
populated and the attribute-based selection layer always finds
candidates.  Internal consistency is enforced: counters are *rate ×
account age*, so per-day averages (average statuses/lists/favourites
per day) are meaningful and independently distributed from the raw
counters, as the paper's attribute list requires.

Ground truth about who is a spammer lives in :class:`GroundTruth` and
is never exposed through public records.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .campaigns import Campaign, make_campaign
from .clock import days
from .columnar import AccountColumns
from .config import SimulationConfig
from .entities import AccountState
from .hashtags import HashtagCategory
from .images import DEFAULT_IMAGE_ID, ImageStore
from .text import (
    BENIGN_WORDS,
    TextGenerator,
    campaign_screen_name,
    normal_screen_name,
)


class AccountKind(enum.Enum):
    """Hidden ground-truth role of an account."""

    NORMAL = "normal"
    CAMPAIGN_SPAMMER = "campaign_spammer"
    LONE_SPAMMER = "lone_spammer"
    COMPROMISED = "compromised"

    @property
    def is_spammer(self) -> bool:
        """Campaign members, lone wolves, and compromised relays spam."""
        return self is not AccountKind.NORMAL


@dataclass
class GroundTruth:
    """Oracle knowledge used only by evaluation and the labeling oracle."""

    account_kind: dict[int, AccountKind] = field(default_factory=dict)
    account_campaign: dict[int, int] = field(default_factory=dict)
    spam_tweet_ids: set[int] = field(default_factory=set)

    def is_spammer(self, user_id: int) -> bool:
        """True if the account's hidden role emits spam."""
        kind = self.account_kind.get(user_id)
        return kind is not None and kind.is_spammer

    def is_spam_tweet(self, tweet_id: int) -> bool:
        """True if the tweet was generated through a spam path."""
        return tweet_id in self.spam_tweet_ids

    def spammer_ids(self) -> set[int]:
        """All accounts whose hidden role is a spammer role."""
        return {
            uid for uid, kind in self.account_kind.items() if kind.is_spammer
        }


def _log_uniform(
    rng: np.random.Generator, low: float, high: float, size: int
) -> np.ndarray:
    """Samples log-uniformly over [low, high]."""
    return np.exp(rng.uniform(np.log(low), np.log(high), size=size))


class _NameRegistry:
    """Enforces platform-wide screen-name uniqueness (as Twitter does).

    Streaming filters and mention entities address accounts by handle;
    duplicate handles would let one account capture traffic aimed at a
    same-named stranger.
    """

    def __init__(self) -> None:
        self._used: set[str] = set()

    def claim(self, candidate: str, rng: np.random.Generator) -> str:
        name = candidate
        while name in self._used:
            name = f"{candidate}_{rng.integers(0, 10_000_000)}"
        self._used.add(name)
        return name


class Population:
    """The full account population plus supporting stores.

    Every account is one row of ``cols``, an
    :class:`~repro.twittersim.columnar.AccountColumns` store that holds
    its profile, platform state, organic activity rates and hazard
    flags.  ``order[row]`` is the row's user id and ``index_of[uid]``
    its row: ``_register`` appends to the columns, ``order`` and
    ``index_of`` together.  The engine sweeps the columns for its
    vectorized per-hour activity sampling.
    """

    def __init__(
        self,
        config: SimulationConfig,
        cols: AccountColumns,
        order: list[int],
        index_of: dict[int, int],
        interests: dict[int, tuple[HashtagCategory, ...]],
        campaigns: list[Campaign],
        truth: GroundTruth,
        images: ImageStore,
        text: TextGenerator,
        lone_spammer_templates: dict[int, tuple[str, int]],
        rng: np.random.Generator,
        names: "_NameRegistry",
        _next_user_id: int = 0,
    ) -> None:
        self.config = config
        self.cols = cols
        self.order = order
        self.index_of = index_of
        self.interests = interests
        self.campaigns = campaigns
        self.truth = truth
        self.images = images
        self.text = text
        self.lone_spammer_templates = lone_spammer_templates
        self.rng = rng
        self.names = names
        self._next_user_id = _next_user_id

    # -- queries ----------------------------------------------------------

    def live_ids(self) -> list[int]:
        """Ids of accounts that are not suspended."""
        order = self.order
        suspended = self.cols.column("suspended")
        return [order[i] for i in np.nonzero(~suspended)[0]]

    def normal_ids(self) -> list[int]:
        """Ids of accounts whose ground-truth role is NORMAL."""
        return [
            uid
            for uid in self.order
            if self.truth.account_kind[uid] is AccountKind.NORMAL
        ]

    def spammer_ids(self) -> list[int]:
        """Ids of accounts with a spamming ground-truth role."""
        return [
            uid
            for uid in self.order
            if self.truth.account_kind[uid].is_spammer
        ]

    # -- growth -----------------------------------------------------------

    def spawn_campaign_member(self, campaign: Campaign, now: float) -> int:
        """Register a fresh campaign account (used for respawn)."""
        rng = self.rng
        user_id = self._next_user_id
        self._next_user_id += 1
        age_days = float(_log_uniform(rng, 2.0, 120.0, 1)[0])
        image_id = self.images.new_campaign_variant(campaign.base_image_id)
        account = AccountState(
            user_id=user_id,
            screen_name=self.names.claim(
                campaign_screen_name(
                    campaign.name_prefix, campaign.name_digits, rng
                ),
                rng,
            ),
            name=campaign.name_prefix.capitalize(),
            created_at=now - days(age_days),
            description=self.text.campaign_description(
                campaign.description_words
            ),
            friends_count=int(_log_uniform(rng, 50, 3000, 1)[0]),
            followers_count=int(_log_uniform(rng, 1, 200, 1)[0]),
            statuses_count=int(_log_uniform(rng, 10, 2000, 1)[0]),
            listed_count=0,
            favourites_count=int(_log_uniform(rng, 1, 100, 1)[0]),
            default_profile_image=bool(rng.random() < 0.25),
            profile_image_id=image_id,
        )
        if account.default_profile_image:
            account.profile_image_id = DEFAULT_IMAGE_ID
        self._register(account, AccountKind.CAMPAIGN_SPAMMER)
        self.truth.account_campaign[user_id] = campaign.campaign_id
        campaign.member_ids.append(user_id)
        return user_id

    def register_operator_account(
        self,
        account: AccountState,
        post_rate_per_day: float = 0.0,
        interests: tuple[HashtagCategory, ...] = (),
        topic_affinity: float = 0.0,
    ) -> int:
        """Register an operator-created account (honeypot baselines).

        The account behaves organically: the engine posts for it at
        ``post_rate_per_day`` with the given hashtag interests and
        trending-topic affinity.  Its ground-truth role is NORMAL (the
        operator is not a spammer).

        The user id must come from :meth:`next_user_id`: an id not yet
        allocated would collide with the next spawned account.

        Raises:
            ValueError: if the user id is taken or was never allocated,
                if ``post_rate_per_day`` is negative or not finite, or
                if ``topic_affinity`` lies outside [0, 1].  A rejected
                call changes nothing, the population RNG included.
        """
        user_id = account.user_id
        if not 0 <= user_id < self._next_user_id:
            raise ValueError(
                f"user id {user_id} was not allocated by next_user_id()"
            )
        if user_id in self.index_of:
            raise ValueError(f"user id {user_id} already exists")
        if not (math.isfinite(post_rate_per_day) and post_rate_per_day >= 0):
            raise ValueError(
                f"post_rate_per_day must be finite and >= 0, "
                f"got {post_rate_per_day}"
            )
        if not 0 <= topic_affinity <= 1:
            raise ValueError(
                f"topic_affinity must be in [0, 1], got {topic_affinity}"
            )
        account.screen_name = self.names.claim(account.screen_name, self.rng)
        row = self._register(account, AccountKind.NORMAL)
        cols = self.cols
        cols.column("post_rate_per_day")[row] = post_rate_per_day
        cols.column("topic_affinity")[row] = topic_affinity
        cols.column("always_on")[row] = True
        self.interests[account.user_id] = interests
        return account.user_id

    def next_user_id(self) -> int:
        """Allocate a fresh user id."""
        user_id = self._next_user_id
        self._next_user_id += 1
        return user_id

    def _register(self, account: AccountState, kind: AccountKind) -> int:
        """Append one account's row; returns the row.

        Its activity columns keep their fills: spam accounts post
        through their campaign logic, not the organic rates.
        """
        cols = self.cols
        row = cols.append_state(account)
        self.index_of[account.user_id] = row
        self.order.append(account.user_id)
        self.truth.account_kind[account.user_id] = kind
        cols.column("spam_hazard")[row] = kind in (
            AccountKind.CAMPAIGN_SPAMMER,
            AccountKind.LONE_SPAMMER,
        )
        cols.column("campaign_member")[row] = (
            kind is AccountKind.CAMPAIGN_SPAMMER
        )
        self.interests[account.user_id] = ()
        return row


def build_population(config: SimulationConfig) -> Population:
    """Construct the full synthetic population for a configuration."""
    rng = np.random.default_rng(config.seed)
    images = ImageStore(rng)
    text = TextGenerator(rng)
    truth = GroundTruth()
    names = _NameRegistry()

    n = config.n_normal_users
    age_days = _log_uniform(
        rng, config.min_account_age_days, config.max_account_age_days, n
    )
    post_rate = _log_uniform(rng, config.post_rate_min, config.post_rate_max, n)
    fav_rate = _log_uniform(rng, 0.02, 100.0, n)
    # List activity is heavy-tailed and *rare* at the top: most users are
    # listed almost never, a small popular minority joins lists daily.
    # (If high list-rates were common, the attribute would lose all
    # discriminative power for spammer tastes, contra Table VI.)
    heavy = rng.random(n) < 0.08
    list_rate = np.where(
        heavy,
        _log_uniform(rng, 0.2, 2.5, n),
        _log_uniform(rng, 0.001, 0.2, n),
    )
    # Heavily-listed accounts are the platform's active, visible ones:
    # being added to lists is a consequence of posting prolifically.
    # The correlation matters downstream — it keeps high-list-activity
    # accounts present in the recently-posted victim pool, as they are
    # on the real platform.
    post_rate = np.where(
        heavy, _log_uniform(rng, 3.0, config.post_rate_max, n), post_rate
    )
    # Audience sizes are log-normal: medians of a few hundred with a
    # thin (~1-2%) tail past 10k, approximating real follower-count
    # distributions far better than a flat log-uniform would.
    friends = np.clip(
        rng.lognormal(mean=np.log(250.0), sigma=1.6, size=n), 1, 80_000
    ).astype(int)
    followers = np.clip(
        rng.lognormal(mean=np.log(200.0), sigma=1.8, size=n), 1, 120_000
    ).astype(int)

    statuses = np.minimum(post_rate * age_days, 300_000).astype(int)
    favourites = np.minimum(fav_rate * age_days, 300_000).astype(int)
    listed = np.minimum(list_rate * age_days, 3000).astype(int)

    # Organic accounts take user ids 0..n-1, which are also their rows
    # and positions.  The numeric columns are whole arrays; the loop
    # keeps the per-account draw order (verified, default image,
    # handle, display name, bio, avatar, interests).
    interests: dict[int, tuple[HashtagCategory, ...]] = {}
    categories = list(HashtagCategory)
    screen_names: list[str] = []
    display_names: list[str] = []
    descriptions: list[str] = []
    verified: list[bool] = []
    default_image: list[bool] = []
    image_ids: list[int] = []

    for i in range(n):
        verified.append(bool(rng.random() < 0.005 and followers[i] > 3000))
        is_default = bool(rng.random() < 0.06)
        default_image.append(is_default)
        screen_names.append(names.claim(normal_screen_name(rng), rng))
        display_names.append(normal_screen_name(rng).replace("_", " ").title())
        descriptions.append(text.benign_description())
        image_ids.append(
            DEFAULT_IMAGE_ID if is_default else images.new_random_image()
        )
        truth.account_kind[i] = AccountKind.NORMAL
        if rng.random() < config.no_hashtag_fraction:
            interests[i] = ()
        else:
            k = int(rng.integers(1, 3))
            picks = rng.choice(len(categories), size=k, replace=False)
            interests[i] = tuple(categories[j] for j in picks)

    cols = AccountColumns(capacity=n)
    cols.extend(
        user_id=np.arange(n),
        screen_name=screen_names,
        name=display_names,
        created_at=-days(age_days),
        description=descriptions,
        friends_count=friends,
        followers_count=followers,
        statuses_count=statuses,
        listed_count=listed,
        favourites_count=favourites,
        verified=verified,
        default_profile_image=default_image,
        profile_image_id=image_ids,
        post_rate_per_day=post_rate,
        fav_rate_per_day=fav_rate,
    )
    cols.column("topic_affinity")[:] = np.clip(
        rng.beta(2, 2, size=n) * 2 * config.topic_affinity_mean, 0, 0.95
    )

    population = Population(
        config=config,
        cols=cols,
        order=list(range(n)),
        index_of=dict(zip(range(n), range(n))),
        interests=interests,
        campaigns=[],
        truth=truth,
        images=images,
        text=text,
        lone_spammer_templates={},
        rng=rng,
        names=names,
        _next_user_id=n,
    )

    # Mark a slice of normal users as compromised relays.
    n_compromised = int(round(config.compromised_fraction * n))
    if n_compromised:
        compromised = rng.choice(n, size=n_compromised, replace=False)
        for uid in compromised:
            truth.account_kind[int(uid)] = AccountKind.COMPROMISED

    # Coordinated campaigns.
    for cid in range(config.n_campaigns):
        base_image = images.new_campaign_base()
        bio_words = tuple(
            BENIGN_WORDS[int(i)]
            for i in rng.integers(0, len(BENIGN_WORDS), size=6)
        )
        campaign = make_campaign(
            cid,
            rng,
            base_image,
            bio_words,
            actions_min=config.spam_actions_min,
            actions_max=config.spam_actions_max,
        )
        population.campaigns.append(campaign)
        size = int(
            rng.integers(config.campaign_size_min, config.campaign_size_max + 1)
        )
        for __ in range(size):
            population.spawn_campaign_member(campaign, now=0.0)

    # Compromised relays borrow a campaign's content.
    if population.campaigns:
        for uid, kind in truth.account_kind.items():
            if kind is AccountKind.COMPROMISED:
                campaign = population.campaigns[
                    int(rng.integers(0, len(population.campaigns)))
                ]
                truth.account_campaign[uid] = campaign.campaign_id

    # Lone spammers: organic-looking profiles, personal spam templates.
    for __ in range(config.n_lone_spammers):
        user_id = population._next_user_id
        population._next_user_id += 1
        lone_age = float(_log_uniform(rng, 3.0, 400.0, 1)[0])
        account = AccountState(
            user_id=user_id,
            screen_name=population.names.claim(normal_screen_name(rng), rng),
            name=normal_screen_name(rng).title(),
            created_at=-days(lone_age),
            description=text.benign_description(),
            friends_count=int(_log_uniform(rng, 20, 5000, 1)[0]),
            followers_count=int(_log_uniform(rng, 1, 500, 1)[0]),
            statuses_count=int(_log_uniform(rng, 10, 5000, 1)[0]),
            listed_count=0,
            favourites_count=int(_log_uniform(rng, 1, 500, 1)[0]),
            default_profile_image=bool(rng.random() < 0.3),
            profile_image_id=images.new_random_image(),
        )
        if account.default_profile_image:
            account.profile_image_id = DEFAULT_IMAGE_ID
        population._register(account, AccountKind.LONE_SPAMMER)
        keyword_classes = ("money", "adult", "promo", "deception")
        keyword_class = keyword_classes[
            int(rng.integers(0, len(keyword_classes)))
        ]
        population.lone_spammer_templates[user_id] = (
            keyword_class,
            int(rng.integers(0, 1000)),
        )

    return population
