"""Traditional social-honeypot baselines (Section V-E, Table VII).

A classic honeypot *creates* accounts instead of harnessing existing
ones.  The structural disadvantages the paper argues for fall out of
the mechanics, not out of hand-tuned penalties:

* a freshly registered account has **age ≈ 0 days** and **zero list
  memberships** — the very attributes spammers' tastes weight most
  (Table VI) cannot be faked;
* friends/followers start near zero and grow only slowly;
* manual registration costs real time (``setup_hours`` per batch),
  during which nothing is monitored;
* the node set is static — no portability.

The *advanced* variant models Yang et al.'s reverse-engineered
honeypots: operators post actively with social/general hashtags and
buy modest follower counts, improving — but not closing — the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..twittersim.api.streaming import StreamingClient
from ..twittersim.engine import TwitterEngine
from ..twittersim.entities import AccountState
from ..twittersim.hashtags import HashtagCategory
from ..twittersim.text import normal_screen_name
from ..core.monitor import CapturedTweet, PseudoHoneypotMonitor
from ..core.selection import HoneypotNode
from ..core.attributes import AttributeCategory


@dataclass(frozen=True)
class HoneypotProfile:
    """Operator-configurable attributes of created honeypot accounts."""

    friends_count: int = 50
    followers_count: int = 10
    post_rate_per_day: float = 4.0
    interests: tuple[HashtagCategory, ...] = ()
    topic_affinity: float = 0.1

    @classmethod
    def basic(cls) -> "HoneypotProfile":
        """Passive honeypots (Stringhini/Lee-style)."""
        return cls()

    @classmethod
    def advanced(cls) -> "HoneypotProfile":
        """Yang-style reverse-engineered honeypots: active, social."""
        return cls(
            friends_count=400,
            followers_count=150,
            post_rate_per_day=18.0,
            interests=(HashtagCategory.SOCIAL, HashtagCategory.GENERAL),
            topic_affinity=0.5,
        )


class TraditionalHoneypot:
    """A manually deployed, static honeypot network.

    Args:
        engine: the platform to deploy on.
        n_honeypots: accounts to create.
        profile: operator-configured account attributes.
        setup_hours_per_10_accounts: manual registration cost; the
            platform runs unmonitored while accounts are being set up.
    """

    def __init__(
        self,
        engine: TwitterEngine,
        n_honeypots: int,
        profile: HoneypotProfile | None = None,
        setup_hours_per_10_accounts: float = 1.0,
    ) -> None:
        if n_honeypots < 1:
            raise ValueError("n_honeypots must be >= 1")
        self.engine = engine
        self.n_honeypots = n_honeypots
        self.profile = profile or HoneypotProfile.basic()
        self.setup_hours = math.ceil(
            setup_hours_per_10_accounts * n_honeypots / 10
        )
        self.monitor = PseudoHoneypotMonitor()
        self.nodes: list[HoneypotNode] = []
        self._stream = None

    def deploy(self) -> list[HoneypotNode]:
        """Create the accounts (paying setup time), start monitoring.

        Raises:
            RuntimeError: if already deployed.
        """
        if self._stream is not None:
            raise RuntimeError("honeypot network already deployed")
        population = self.engine.population
        rng = population.rng
        created: list[HoneypotNode] = []
        for __ in range(self.n_honeypots):
            user_id = population.next_user_id()
            account = AccountState(
                user_id=user_id,
                screen_name=f"hp_{normal_screen_name(rng)}",
                name="Honeypot Operator",
                created_at=self.engine.clock.now,  # freshly registered
                description=population.text.benign_description(),
                friends_count=self.profile.friends_count,
                followers_count=self.profile.followers_count,
                statuses_count=0,
                listed_count=0,  # lists cannot be manufactured
                favourites_count=int(rng.integers(0, 30)),
                profile_image_id=population.images.new_random_image(),
            )
            population.register_operator_account(
                account,
                post_rate_per_day=self.profile.post_rate_per_day,
                interests=self.profile.interests,
                topic_affinity=self.profile.topic_affinity,
            )
            created.append(
                HoneypotNode(
                    user_id=user_id,
                    screen_name=account.screen_name,
                    attribute_key="honeypot",
                    sample_label="honeypot",
                    category=AttributeCategory.PROFILE,
                )
            )
        self.nodes = created
        # Manual setup: the world moves on while accounts are prepared.
        self.engine.run_hours(self.setup_hours)
        self.monitor.set_nodes(self.nodes, self.engine.clock.hour)
        client = StreamingClient(self.engine)
        self._stream = client.filter(
            [node.track_term for node in self.nodes], listener=self.monitor
        )
        return created

    def run_hours(self, hours: int) -> None:
        """Monitor ``hours`` hours (static node set — no switching).

        Raises:
            RuntimeError: if not deployed.
        """
        if self._stream is None:
            raise RuntimeError("deploy() before running")
        for __ in range(hours):
            self.monitor.set_nodes(self.nodes, self.engine.clock.hour)
            self.engine.run_hour()

    def shutdown(self) -> None:
        """Disconnect the stream (idempotent)."""
        if self._stream is not None:
            self._stream.disconnect()
            self._stream = None

    @property
    def captured(self) -> list[CapturedTweet]:
        """Captures so far."""
        return self.monitor.captured

    def unique_contacts(self) -> set[int]:
        """Accounts that contacted the honeypots (mention senders)."""
        honeypot_ids = {node.user_id for node in self.nodes}
        return {
            capture.sender_id
            for capture in self.monitor.captured
            if capture.sender_id not in honeypot_ids
        }


def spammers_captured(
    honeypot: TraditionalHoneypot, spammer_oracle
) -> set[int]:
    """Spammer contacts per an oracle ``spammer_oracle(user_id) -> bool``.

    Honeypot papers count trapped spammers by later verification; the
    oracle stands in for that verification step.
    """
    return {
        uid for uid in honeypot.unique_contacts() if spammer_oracle(uid)
    }
