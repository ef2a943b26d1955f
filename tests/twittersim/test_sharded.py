"""The engine's shard contract.

Two halves (see :mod:`repro.twittersim.sharded`):

* the **shard count** defines the random stream — worlds that differ
  only in ``engine_shards`` are different (equally valid) worlds,
  exactly like changing the seed;
* the **worker count** never does — ``workers=0``, ``2`` and ``4``
  must produce bit-identical tweet streams and reconciled telemetry.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import get_registry, reset, set_enabled
from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.sharded import ShardTask, emit_shard

HOURS = 4
SEED = 11
N_SHARDS = 4


def _sharded_config() -> SimulationConfig:
    return SimulationConfig.small(seed=SEED, engine_shards=N_SHARDS)


def _run_sharded(workers: int):
    reset()
    set_enabled(True)
    population = build_population(_sharded_config())
    engine = TwitterEngine(population, workers=workers)
    firehose = []
    engine.subscribe(firehose.append)
    stats = engine.run_hours(HOURS)
    counters = dict(get_registry().counter_values("engine."))
    reset()
    return firehose, stats, counters


def _fingerprint(firehose) -> list[str]:
    return [
        json.dumps(tweet.to_json(), sort_keys=True) for tweet in firehose
    ]


@pytest.fixture(scope="module")
def runs():
    return {workers: _run_sharded(workers) for workers in (0, 2, 4)}


class TestBuildEngine:
    @pytest.mark.parametrize("shards", [None, N_SHARDS])
    def test_engine_honours_config_shard_count(self, shards):
        overrides = {} if shards is None else {"engine_shards": shards}
        population = build_population(
            SimulationConfig.small(seed=SEED, **overrides)
        )
        assert TwitterEngine(population).n_shards == (shards or 1)

    def test_shard_bounds_partition_account_range(self):
        population = build_population(_sharded_config())
        engine = TwitterEngine(population)
        bounds = engine.shard_bounds(1001)
        assert bounds[0] == 0
        assert bounds[-1] == 1001
        assert bounds == sorted(bounds)
        assert len(bounds) == N_SHARDS + 1


class TestWorkerCountInvariance:
    def test_streams_bitwise_equal_at_any_worker_count(self, runs):
        base = _fingerprint(runs[0][0])
        assert len(base) > 100
        assert _fingerprint(runs[2][0]) == base
        assert _fingerprint(runs[4][0]) == base

    def test_hour_stats_equal(self, runs):
        base = [vars(s) for s in runs[0][1]]
        assert [vars(s) for s in runs[2][1]] == base
        assert [vars(s) for s in runs[4][1]] == base

    def test_shard_counters_reconcile(self, runs):
        for firehose, stats, counters in runs.values():
            assert counters["engine.shard.tasks"] == N_SHARDS * HOURS
            # Every organic post originated in a shard task.
            assert counters["engine.shard.posts"] == sum(
                s.organic_posts for s in stats
            )


class TestShardCountDefinesStream:
    def test_shard_count_changes_stream(self, runs):
        reset()
        set_enabled(True)
        population = build_population(SimulationConfig.small(seed=SEED))
        engine = TwitterEngine(population)
        one_shard = []
        engine.subscribe(one_shard.append)
        engine.run_hours(HOURS)
        reset()
        assert _fingerprint(one_shard) != _fingerprint(runs[0][0])


class TestEmitShard:
    def test_pure_function_of_payload(self):
        """Same task payload, same proto-posts — replay-safe."""
        task = ShardTask(
            seed=SEED,
            hour=0,
            shard=1,
            t0=0.0,
            t_end=3600.0,
            topics=("news", "sports"),
            topic_cdf=(0.5, 1.0),
            posting=((3, 2, (), 0.4), (9, 1, (), 0.0)),
        )
        assert emit_shard(task) == emit_shard(task)
        assert len(emit_shard(task)) == 3

    def test_substream_does_not_replay_world_seed(self):
        """Shard 0 of hour 0 must not redraw the population's uniforms.

        ``build_population`` draws the world from
        ``default_rng(config.seed)``; a substream keyed
        ``[seed, 0, 0]`` is zero-padded to that same stream.
        """
        task = ShardTask(
            seed=SEED,
            hour=0,
            shard=0,
            t0=0.0,
            t_end=3600.0,
            topics=("news",),
            topic_cdf=(1.0,),
            posting=((0, 1, (), 0.0),),
        )
        [(__, created_at, *___)] = emit_shard(task)
        replayed = 0.0 + 3600.0 * np.random.default_rng(SEED).random()
        assert created_at != replayed
