"""The benchmark's own tests, on a world of a few hundred accounts.

Run from the repository root: ``python -m pytest -q sniffbench/tests``.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.core.selection import AttributeSelector
from repro.twittersim.engine import TwitterEngine
from sniffbench import run
from sniffbench.layers import Recorder, install, layer_metrics
from sniffbench.workloads import MICRO, WORKLOADS, Replay, Stopwatch

SEED = 5

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    """One traced repetition per workload, shared by the tests."""
    return {
        name: run.traced_repetition(WORKLOADS[name](MICRO), SEED)
        for name in WORKLOADS
    }


def timed_layers(recorder: Recorder):
    return recorder.phases["timed"]


def test_live_layer_counts_reconcile(traced):
    recorder, __, outcome = traced["live"]
    layers = timed_layers(recorder)
    engine_tweets = layers["twittersim.engine"].counts["tweets"]
    service = layers["service"].counts
    # outcome.work sums HourStats.total_tweets over the monitored hours.
    assert engine_tweets == outcome.work > 0
    assert layers["twittersim.streaming"].calls == engine_tweets
    assert layers["core.monitor"].counts["captures"] == service["ingested"]
    assert (
        layers["features.extract"].calls
        == layers["ml.infer"].counts["rows"]
        == service["scored"]
        > 0
    )
    assert layers["core.selection"].calls == MICRO.live_hours


def test_replay_bypasses_the_simulator(traced):
    recorder, __, outcome = traced["replay"]
    layers = timed_layers(recorder)
    service = layers["service"].counts
    assert service["scored"] == outcome.work > 0
    assert (
        layers["features.extract"].calls
        == layers["ml.infer"].counts["rows"]
        == service["scored"]
    )
    for layer in ("twittersim.engine", "core.selection", "labeling"):
        assert layers[layer].calls == 0


def test_train_counts_tree_rows(traced):
    recorder, __, outcome = traced["train"]
    layers = timed_layers(recorder)
    fit = layers["ml.fit"].counts
    assert fit["tree_rows"] == 70 * fit["rows"] > 0
    assert layers["labeling"].counts["tweets"] == outcome.attempted
    assert layers["features.extract"].calls == fit["rows"]
    assert layers["ml.infer"].calls == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_the_wall_time(traced, name):
    recorder, timed, __ = traced[name]
    assert abs(recorder.unaccounted_s("timed")) < 1e-6
    assert recorder.unaccounted_s("setup") == pytest.approx(0, abs=1e-6)
    root = timed_layers(recorder)["bench.timed"]
    assert root.busy_s == timed.wall_s > root.self_s >= 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_match(traced, name):
    workload = WORKLOADS[name](MICRO)
    outcome = workload.run(
        workload.setup(SEED), Stopwatch(), reference=True
    )
    assert outcome.problems == []
    assert outcome.digest == traced[name][2].digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repro_workers_cannot_start_a_pool(monkeypatch, name):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("REPRO_WORKERS", "2")
    pools = importlib.import_module("repro.parallel.executor")
    monkeypatch.setattr(pools, "ProcessPoolExecutor", no_pool)
    workload = WORKLOADS[name](MICRO)
    outcome = workload.run(
        workload.setup(SEED), Stopwatch(), reference=False
    )
    assert outcome.problems == []


def test_layer_metrics_are_the_declared_ones(traced):
    recorder, timed, __ = traced["live"]
    metrics = layer_metrics(recorder, timed, timed.wall_s, [1.0, 2.0])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (__, unit) in metrics.items()} == declared
    assert metrics["trace.overhead_share"][0] == 0.0
    assert metrics["labeling.busy_s"][0] == 0.0


def test_wrappers_are_restored_after_an_error():
    originals = (TwitterEngine.run_hour, AttributeSelector.select)
    with pytest.raises(RuntimeError):
        with install(Recorder()):
            assert TwitterEngine.run_hour is not originals[0]
            raise RuntimeError("boom")
    assert (TwitterEngine.run_hour, AttributeSelector.select) == originals


def result_line(capsys, *args: str) -> dict:
    run.main(["--seed", str(SEED), "--seconds", "0.1", *args], MICRO)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_every_declared_metric(capsys, trace):
    result = result_line(capsys, "--workload", "replay", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared


def test_a_failed_check_fails_every_operation(capsys, monkeypatch):
    monkeypatch.setattr(
        Replay,
        "differs_from_classify",
        staticmethod(lambda state, service: ["injected mismatch"]),
    )
    result = result_line(capsys, "--workload", "replay", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_share"]["value"] == 0.0
