"""Golden digests of seeded worlds: engine streams and captures, bitwise.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one
artifact of a small seeded world.  Two case families per seed:

* ``engine_shards1`` / ``engine_shards3`` run five hours of a
  ``TwitterEngine`` whose post loop has one account-range shard (the
  default) or three, and pin the firehose, the hour stats, the final
  profile snapshots, the suspended ids and the ground-truth kinds;
* ``captures`` deploys the paper's full plan through
  ``PseudoHoneypotExperiment`` and pins the capture set and the
  exposure ledger, which runs the selection layer and its REST
  lookups end to end.

Artifacts are listed in the order the pipeline produces them, so the
first mismatching key points at the earliest stage that moved.  These
digests replaced two parity suites: the object and columnar account
stores agreed on them before the object store was deleted, and the
one-shard cases were recorded before the single-stream post loop was
deleted.  An intended change to a seeded stream shows up here as a
reviewed digest update (``scripts/regen_golden.py`` prints fresh
values).  ``REPRO_WORKERS=2`` reruns this module with a process pool,
which fans out the three-shard post loop and must not move a digest
either.
"""

from __future__ import annotations

import pytest

from repro.core import PseudoHoneypotExperiment, SelectionPlan
from repro.obs.ledger import stable_digest
from repro.twittersim import SimulationConfig, TwitterEngine, build_population

HOURS = 5


def _engine_digests(seed: int, shards: int) -> dict[str, str]:
    population = build_population(
        SimulationConfig.small(seed=seed, engine_shards=shards)
    )
    engine = TwitterEngine(population)
    firehose = []
    engine.subscribe(firehose.append)
    stats = engine.run_hours(HOURS)
    cols = population.cols
    order = population.order
    # Row ``i`` of the account store is ``order[i]``.
    profiles = map(cols.snapshot, range(len(order)))
    suspended = cols.column("suspended").tolist()
    return {
        "stream": stable_digest([tweet.to_json() for tweet in firehose]),
        "hour_stats": stable_digest([vars(s) for s in stats]),
        "profiles": stable_digest([p.to_json() for p in profiles]),
        "suspended": stable_digest(
            [uid for uid, flag in zip(order, suspended) if flag]
        ),
        "kinds": stable_digest(
            [
                [uid, kind.value]
                for uid, kind in population.truth.account_kind.items()
            ]
        ),
    }


def _capture_digests(seed: int) -> dict[str, str]:
    experiment = PseudoHoneypotExperiment(
        SimulationConfig.small(seed=seed), candidate_pool=400, workers=0
    )
    experiment.warm_up(2)
    run = experiment.run_plan(SelectionPlan.full_paper_plan(1), hours=3)
    return {
        "captures": stable_digest(
            [
                [
                    c.tweet.tweet_id,
                    c.hour,
                    list(c.attribute_keys),
                    list(c.node_user_ids),
                    c.capture_category.value,
                ]
                for c in run.captures
            ]
        ),
        "exposure": stable_digest(dict(run.exposure.by_attribute)),
    }


def compute(case: str) -> dict[str, str]:
    """Fresh artifact digests of one golden case (``seed<N>/<family>``)."""
    seed_part, family = case.split("/")
    seed = int(seed_part.removeprefix("seed"))
    if family == "engine_shards1":
        return _engine_digests(seed, shards=1)
    if family == "engine_shards3":
        return _engine_digests(seed, shards=3)
    if family == "captures":
        return _capture_digests(seed)
    raise KeyError(case)


GOLDEN: dict[str, dict[str, str]] = {
    "seed33/engine_shards1": {
        "stream": "e99cd7cdab4f",
        "hour_stats": "ae931c44d1d7",
        "profiles": "3ef61864bb24",
        "suspended": "53f870e80912",
        "kinds": "f47186a80e9f",
    },
    "seed33/engine_shards3": {
        "stream": "8b7fc4c146e6",
        "hour_stats": "5c7a894feadb",
        "profiles": "8c6f06cded7b",
        "suspended": "4aca507b40bd",
        "kinds": "c97d22361b6e",
    },
    "seed33/captures": {
        "captures": "7bb338d5aa52",
        "exposure": "0420dbcb31b6",
    },
    "seed7/engine_shards1": {
        "stream": "056d4d721411",
        "hour_stats": "45276a66ac1d",
        "profiles": "2e3c3f279129",
        "suspended": "75bc793a409d",
        "kinds": "2f501a352dc7",
    },
    "seed7/engine_shards3": {
        "stream": "230a6983df40",
        "hour_stats": "02bd7342085d",
        "profiles": "003071b822b3",
        "suspended": "a448b66345b8",
        "kinds": "a9989763c23a",
    },
    "seed7/captures": {
        "captures": "e2fdfe232b00",
        "exposure": "67b574467409",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_world_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
