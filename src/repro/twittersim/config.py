"""Simulation configuration.

One dataclass gathers every knob of the synthetic platform so that
experiments, tests, and benchmarks can construct reproducible worlds of
any size.  Defaults give a medium world suitable for benchmark runs;
tests use much smaller ones via :meth:`SimulationConfig.small`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of the synthetic Twitter world.

    Attributes:
        seed: master RNG seed; every run with the same config is
            bit-for-bit reproducible.
        n_normal_users: number of organic accounts in the population.
        n_campaigns: number of coordinated spam campaigns.
        campaign_size_min / campaign_size_max: members per campaign.
        n_lone_spammers: uncoordinated spammers (no shared artifacts).
        compromised_fraction: fraction of normal accounts that are
            compromised and occasionally relay campaign spam.
        post_rate_min / post_rate_max: bounds of the log-uniform
            per-user posting rate (statuses per day).
        reply_rate: scale of organic replies per post follower-mass.
        spam_suspension_rate: per-hour probability that one live
            spammer is suspended by the platform; its campaign, if any,
            replaces it with a fresh member.
        normal_suspension_rate: per-hour false-positive suspension
            probability for a normal account (suspended != spammer).
        no_hashtag_fraction: fraction of users that never use hashtags.
        topic_affinity_mean: mean probability that a post engages a
            platform trending topic.
        min_account_age_days / max_account_age_days: account age range.
        engine_shards: account-range shards of the hour loop's organic
            posts (an int >= 1; see :mod:`repro.twittersim.sharded`).
    """

    seed: int = 7
    n_normal_users: int = 12_000
    n_campaigns: int = 40
    campaign_size_min: int = 10
    campaign_size_max: int = 30
    n_lone_spammers: int = 200
    compromised_fraction: float = 0.01
    # Per-spammer action rates are deliberately LOW (a spam mention
    # every ~13 hours on average): the spammer population is large and
    # each member acts rarely, matching the paper's regime where ~90%
    # of captured spammers are seen posting only one spam (Fig. 2).
    spam_actions_min: float = 0.08
    spam_actions_max: float = 0.25
    lone_actions_per_hour: float = 0.12
    post_rate_min: float = 0.05
    post_rate_max: float = 50.0
    reply_rate: float = 1.6
    spam_suspension_rate: float = 0.012
    normal_suspension_rate: float = 0.00001
    no_hashtag_fraction: float = 0.25
    topic_affinity_mean: float = 0.3
    min_account_age_days: float = 5.0
    max_account_age_days: float = 3_200.0
    # Users post in bursts: "on" sessions (averaging
    # session_mean_hours) alternate with dormant stretches, with a
    # long-run on-fraction of session_on_fraction.  Non-stationary
    # activity is what makes the paper's portability property
    # (Section III-D) worth having: a static honeypot goes stale when
    # its parasitic bodies go dormant.
    session_on_fraction: float = 0.35
    session_mean_hours: float = 6.0
    # Split the per-hour organic-post loop into this many account
    # ranges, each drawing from its own (seed, hour, shard) substream.
    # The shard count is part of the world, like the seed; the worker
    # count that runs the shards never changes a byte.
    engine_shards: int = 1

    def __post_init__(self) -> None:
        if self.n_normal_users < 10:
            raise ValueError("n_normal_users must be at least 10")
        if self.campaign_size_min > self.campaign_size_max:
            raise ValueError("campaign_size_min > campaign_size_max")
        if not 0 <= self.compromised_fraction <= 1:
            raise ValueError("compromised_fraction must be in [0, 1]")
        if self.post_rate_min <= 0 or self.post_rate_max < self.post_rate_min:
            raise ValueError("invalid post rate bounds")
        if not 0 < self.session_on_fraction <= 1:
            raise ValueError("session_on_fraction must be in (0, 1]")
        if self.session_mean_hours < 1:
            raise ValueError("session_mean_hours must be >= 1")
        if (
            not isinstance(self.engine_shards, int)
            or isinstance(self.engine_shards, bool)
            or self.engine_shards < 1
        ):
            raise ValueError(
                f"engine_shards must be an int >= 1, got "
                f"{self.engine_shards!r}"
            )

    @classmethod
    def small(cls, seed: int = 7, **overrides: object) -> "SimulationConfig":
        """A tiny world for unit tests (hundreds of accounts)."""
        base = cls(
            seed=seed,
            n_normal_users=600,
            n_campaigns=10,
            campaign_size_min=5,
            campaign_size_max=12,
            n_lone_spammers=25,
            spam_actions_min=0.08,
            spam_actions_max=0.3,
            lone_actions_per_hour=0.15,
        )
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def medium(cls, seed: int = 7, **overrides: object) -> "SimulationConfig":
        """The default benchmark world."""
        return replace(cls(seed=seed), **overrides)  # type: ignore[arg-type]
