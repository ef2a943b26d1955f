"""Golden digests of seeded worlds: engine streams and captures, bitwise.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one
artifact of a small seeded world.  Two case families per seed:

* ``engine`` / ``engine_shards3`` run five hours of ``build_engine``
  (unsharded, then three account-range shards) and pin the firehose,
  the hour stats, the final profile snapshots, the suspended ids and
  the ground-truth kinds;
* ``captures`` deploys the paper's full plan through
  ``PseudoHoneypotExperiment`` and pins the capture set and the
  exposure ledger, which runs the selection layer and its REST
  lookups end to end.

Artifacts are listed in the order the pipeline produces them, so the
first mismatching key points at the earliest stage that moved.  The
digests were recorded with the object and the columnar account stores
(both agreed) before the object store was deleted.  An intended change
to a seeded stream shows up here as a reviewed digest update
(``scripts/regen_golden.py`` prints fresh values).  ``REPRO_WORKERS=2``
reruns this module with a process pool under the sharded engine, which
must not move a digest either.
"""

from __future__ import annotations

import pytest

from repro.core import PseudoHoneypotExperiment, SelectionPlan
from repro.obs.ledger import stable_digest
from repro.twittersim import SimulationConfig, build_population
from repro.twittersim.sharded import build_engine

HOURS = 5


def _engine_digests(seed: int, shards: int) -> dict[str, str]:
    population = build_population(
        SimulationConfig.small(seed=seed, engine_shards=shards)
    )
    engine = build_engine(population)
    firehose = []
    engine.subscribe(firehose.append)
    stats = engine.run_hours(HOURS)
    accounts = population.accounts
    order = population.order
    return {
        "stream": stable_digest([tweet.to_json() for tweet in firehose]),
        "hour_stats": stable_digest([vars(s) for s in stats]),
        "profiles": stable_digest(
            [accounts[uid].snapshot().to_json() for uid in order]
        ),
        "suspended": stable_digest(
            [uid for uid in order if accounts[uid].suspended]
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
    if family == "engine":
        return _engine_digests(seed, shards=0)
    if family == "engine_shards3":
        return _engine_digests(seed, shards=3)
    if family == "captures":
        return _capture_digests(seed)
    raise KeyError(case)


GOLDEN: dict[str, dict[str, str]] = {
    "seed33/engine": {
        "stream": "760b263961c0",
        "hour_stats": "26cd65418af5",
        "profiles": "bb2192a71c88",
        "suspended": "7222fbb39444",
        "kinds": "b12e3510580c",
    },
    "seed33/engine_shards3": {
        "stream": "202a50e3723b",
        "hour_stats": "d8a2e46598fc",
        "profiles": "41b95f95c264",
        "suspended": "6bc181e64240",
        "kinds": "25a7fd3f525c",
    },
    "seed33/captures": {
        "captures": "30fbc7d757b1",
        "exposure": "861973bb22ff",
    },
    "seed7/engine": {
        "stream": "7330da9bfe35",
        "hour_stats": "5bb17e3f8956",
        "profiles": "7d25fd0a2910",
        "suspended": "77bcaa3c3c13",
        "kinds": "dc3a170f53b6",
    },
    "seed7/engine_shards3": {
        "stream": "7f7d6f780e69",
        "hour_stats": "00d275696b6b",
        "profiles": "6b634184e19f",
        "suspended": "107b341411b9",
        "kinds": "cb0906bd474c",
    },
    "seed7/captures": {
        "captures": "3cbb3366658e",
        "exposure": "be8bd15b86dc",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_world_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
