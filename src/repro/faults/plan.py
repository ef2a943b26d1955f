"""Fault plans: what breaks, when, and how hard.

A :class:`FaultPlan` is the declarative half of the chaos harness: a
seeded, JSON-serializable schedule of :class:`ScheduledFault` entries,
each pinned to one simulated hour.  The :class:`~repro.faults.injector.
FaultInjector` executes the plan against the platform's API layers;
nothing in here touches the simulator, so a plan can be built, stored,
diffed, and replayed independently of any world.

Determinism contract: :meth:`FaultPlan.random_plan` derives every draw
from ``seed`` alone, and the injector's own generator is separate from
the world generator — so the same ``(world seed, plan)`` pair always
produces the same perturbed run, and an empty plan leaves a run
byte-identical to one with no fault machinery installed at all.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class FaultKind(enum.Enum):
    """The failure modes the injector knows how to produce."""

    #: The filtered stream's transport drops mid-hour; the client must
    #: reconnect and backfill the gap (tweepy: ``IncompleteRead``).
    STREAM_DISCONNECT = "stream_disconnect"
    #: The streaming endpoint rejects a filter create/update call.
    FILTER_LIMIT = "filter_limit"
    #: A REST call fails with a rate-limit error (HTTP 429 analogue).
    REST_RATE_LIMIT = "rest_rate_limit"
    #: A REST call times out at the transport layer.
    REST_TIMEOUT = "rest_timeout"
    #: A matched tweet is delivered twice on the stream.
    DUPLICATE_DELIVERY = "duplicate_delivery"
    #: A matched tweet is delivered late, after a newer one.
    OUT_OF_ORDER = "out_of_order"
    #: Parasitic (honeypot-node) accounts get suspended this hour.
    NODE_SUSPENSION = "node_suspension"


#: Per-hour base probability of each kind in :meth:`FaultPlan.
#: random_plan` at ``intensity=1.0``.
BASE_PROBABILITIES: dict[FaultKind, float] = {
    FaultKind.STREAM_DISCONNECT: 0.25,
    FaultKind.FILTER_LIMIT: 0.25,
    FaultKind.REST_RATE_LIMIT: 0.15,
    FaultKind.REST_TIMEOUT: 0.20,
    FaultKind.DUPLICATE_DELIVERY: 0.30,
    FaultKind.OUT_OF_ORDER: 0.25,
    FaultKind.NODE_SUSPENSION: 0.15,
}

#: Kinds whose ``count`` field meters a per-hour failure budget.
COUNTED_KINDS = frozenset(
    {
        FaultKind.FILTER_LIMIT,
        FaultKind.REST_RATE_LIMIT,
        FaultKind.REST_TIMEOUT,
        FaultKind.NODE_SUSPENSION,
    }
)

#: Kinds whose ``rate`` field is a per-matched-tweet probability.
RATED_KINDS = frozenset(
    {FaultKind.DUPLICATE_DELIVERY, FaultKind.OUT_OF_ORDER}
)


@dataclass(frozen=True, slots=True)
class ScheduledFault:
    """One fault occurrence, pinned to a simulated hour.

    Attributes:
        hour: engine hour the fault is active in.
        kind: which failure mode.
        at_fraction: for :attr:`FaultKind.STREAM_DISCONNECT`, where in
            the hour the transport drops (0 = hour start, 1 = end).
        count: for counted kinds, how many calls fail (or how many
            node accounts are suspended) this hour.
        rate: for rated kinds, per-matched-tweet probability.
    """

    hour: int
    kind: FaultKind
    at_fraction: float = 0.5
    count: int = 1
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.hour < 0:
            raise ValueError("hour must be >= 0")
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ValueError("at_fraction must be in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def to_dict(self) -> dict[str, object]:
        return {
            "hour": self.hour,
            "kind": self.kind.value,
            "at_fraction": self.at_fraction,
            "count": self.count,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ScheduledFault":
        """Load one entry of a stored plan.

        Raises:
            ValueError: on an unknown key (a misspelt field would
                otherwise run at its default), or on an ``hour`` or
                ``count`` that is a bool or a fractional number.
        """
        unknown = set(data) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown fault field(s): {sorted(unknown)}")
        return cls(
            hour=_whole(data["hour"], "hour"),
            kind=FaultKind(data["kind"]),
            at_fraction=float(data.get("at_fraction", 0.5)),
            count=_whole(data.get("count", 1), "count"),
            rate=float(data.get("rate", 0.0)),
        )


def _whole(value: object, name: str) -> int:
    """``value`` as an int, refusing what ``int()`` would truncate."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"fault {name} must be a whole number: {value!r}")
    return int(value)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, ordered by (hour, kind)."""

    faults: tuple[ScheduledFault, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def for_hour(
        self, hour: int, kind: FaultKind | None = None
    ) -> tuple[ScheduledFault, ...]:
        """Faults active in ``hour``, optionally of one kind."""
        return tuple(
            fault
            for fault in self.faults
            if fault.hour == hour
            and (kind is None or fault.kind is kind)
        )

    def budget(self, hour: int, kind: FaultKind) -> int:
        """Total ``count`` budget of one kind for one hour."""
        return sum(fault.count for fault in self.for_hour(hour, kind))

    def rate(self, hour: int, kind: FaultKind) -> float:
        """Max ``rate`` of one rated kind for one hour."""
        return max(
            (fault.rate for fault in self.for_hour(hour, kind)),
            default=0.0,
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: installing it changes nothing at all."""
        return cls(faults=())

    @classmethod
    def random_plan(
        cls,
        seed: int,
        start_hour: int = 0,
        n_hours: int = 24,
        intensity: float = 1.0,
        kinds: tuple[FaultKind, ...] | None = None,
    ) -> "FaultPlan":
        """A seeded random schedule over ``n_hours`` hours.

        Args:
            seed: derives every draw; same seed, same plan.
            start_hour: first scheduled hour (warm-up hours are
                usually left fault-free).
            n_hours: hours covered by the schedule.
            intensity: scales each kind's base probability
                (:data:`BASE_PROBABILITIES`, capped at 0.95); 0 yields
                the empty plan.
            kinds: restrict to a subset of fault kinds.

        Raises:
            ValueError: on a negative ``n_hours``, or an ``intensity``
                that is negative or NaN (no draw compares below NaN,
                so every kind would fire in every hour).
        """
        if n_hours < 0:
            raise ValueError("n_hours must be >= 0")
        if not intensity >= 0.0:
            raise ValueError(f"intensity must be >= 0, got {intensity!r}")
        rng = np.random.default_rng(seed + 0xC4A05)
        chosen = kinds if kinds is not None else tuple(FaultKind)
        faults: list[ScheduledFault] = []
        for hour in range(start_hour, start_hour + n_hours):
            for kind in chosen:
                probability = min(
                    BASE_PROBABILITIES[kind] * intensity, 0.95
                )
                if float(rng.random()) >= probability:
                    continue
                at_fraction = round(float(rng.uniform(0.1, 0.9)), 3)
                count = (
                    int(rng.integers(1, 4))
                    if kind in COUNTED_KINDS
                    else 1
                )
                rate = (
                    round(float(rng.uniform(0.05, 0.3)), 3)
                    if kind in RATED_KINDS
                    else 0.0
                )
                faults.append(
                    ScheduledFault(
                        hour=hour,
                        kind=kind,
                        at_fraction=at_fraction,
                        count=count,
                        rate=rate,
                    )
                )
        return cls(faults=tuple(faults))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": "repro-fault-plan/1",
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultPlan":
        faults = data.get("faults", [])
        return cls(
            faults=tuple(
                ScheduledFault.from_dict(entry) for entry in faults
            )
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
