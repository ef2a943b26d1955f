"""Canonical benchmark workloads behind ``scripts/bench.py``.

A benchmark run must execute the *same* phase sequence every time or
its ledger timings are not comparable across commits.
This module pins that sequence: warm-up, ground-truth collection,
labeling, detector training, the attribute sweep, and classification —
the paper's pipeline end-to-end — at one of three preset scales:

* ``micro`` — a few seconds; sanity checks and harness tests.
* ``tiny``  — ~tens of seconds; the default CI perf gate.
* ``small`` — minutes; local before/after comparisons.
* ``large`` — the million-account stress run (eight engine shards, a
  few minutes and ~2.5 GB peak RSS); tracks scale regressions, not the
  per-PR gate.

:func:`run_bench_workload` resets the observability layer, runs the
workload fully instrumented, and returns the captured
:class:`~repro.obs.report.RunReport`; ``scripts/bench.py`` distills
that into one run-ledger line with
:meth:`~repro.obs.ledger.RunRecord.from_report`.
"""

from __future__ import annotations

import logging

from dataclasses import asdict

from ..core.experiment import PseudoHoneypotExperiment
from ..obs import RunReport, reset, set_enabled, stable_digest
from ..twittersim.config import SimulationConfig
from .session import SessionScale

log = logging.getLogger("repro.analysis.bench")


def _micro_scale(seed: int) -> SessionScale:
    """Smaller than ``tiny``: exercises every phase in seconds."""
    return SessionScale(
        name="micro",
        sim=SimulationConfig.small(seed=seed),
        warmup_hours=2,
        gt_hours=4,
        gt_targets=5,
        gt_per_value=3,
        main_hours=3,
        main_per_value=1,
        comparison_hours=2,
        advanced_per_value=2,
        candidate_pool=400,
    )


def _large_scale(seed: int) -> SessionScale:
    """The million-account stress workload.

    One simulated hour emits ~75k tweets, so hour counts are kept
    minimal — the point is columnar memory behavior and wall time per
    hour at 1M accounts, not statistical power.  The engine splits its
    post loop into eight account-range shards (``engine_shards=8``, so
    a pool of up to eight workers can run them; every other workload
    keeps the default single shard); ``post_rate_max`` is tightened so
    hourly volume stays tractable at this population size.
    """
    return SessionScale(
        name="large",
        sim=SimulationConfig(
            seed=seed,
            n_normal_users=1_000_000,
            n_campaigns=120,
            campaign_size_min=10,
            campaign_size_max=30,
            n_lone_spammers=2_000,
            post_rate_max=6.0,
            engine_shards=8,
        ),
        warmup_hours=1,
        gt_hours=2,
        gt_targets=5,
        gt_per_value=5,
        main_hours=1,
        main_per_value=2,
        comparison_hours=1,
        advanced_per_value=2,
        candidate_pool=20_000,
    )


def workload_scale(name: str, seed: int = 7) -> SessionScale:
    """The preset :class:`SessionScale` of one benchmark workload.

    Raises:
        KeyError: unknown workload name.
    """
    if name == "micro":
        return _micro_scale(seed)
    if name in ("tiny", "small"):
        return SessionScale.by_name(name, seed=seed)
    if name == "large":
        return _large_scale(seed)
    raise KeyError(
        f"unknown bench workload {name!r} (micro/tiny/small/large)"
    )


#: Names accepted by :func:`workload_scale`, smallest first.
WORKLOAD_NAMES = ("micro", "tiny", "small", "large")


def run_bench_workload(
    scale_name: str = "tiny",
    seed: int = 7,
    workers: int | None = None,
    **meta: object,
) -> RunReport:
    """Run one canonical workload fully instrumented.

    Resets the global observability state, enables recording, drives
    the paper's phase sequence at the preset scale, and returns the
    resulting report (phase tree + metrics).  The caller owns artifact
    writing — nothing is saved here.

    Args:
        workers: process-pool size for the CPU-bound phases; 0 forces
            sequential and ``None`` defers to ``REPRO_WORKERS``.
            Phase outputs (captures, labels, verdicts) are identical
            at every worker count — only the timings move.

    Raises:
        KeyError: unknown workload name.
    """
    scale = workload_scale(scale_name, seed=seed)
    reset()
    set_enabled(True)
    log.info("bench workload %s (seed %d) starting", scale.name, seed)
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=workers
    )
    experiment.warm_up(scale.warmup_hours)
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    dataset = experiment.label_ground_truth(collection)
    detector = experiment.train_detector(collection, dataset)
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    outcome = experiment.classify(detector, sweep)
    report = experiment.export_report(
        scale=scale.name,
        captures=collection.n_captures + sweep.n_captures,
        n_spams=outcome.n_spams,
        # Content-addressed run identity: ledger trend queries group
        # comparable runs by this digest instead of (scale, seed,
        # ...)-tuple heuristics.
        config_digest=stable_digest(asdict(scale.sim)),
        **meta,
    )
    log.info(
        "bench workload %s done: %d+%d captures, %d spams",
        scale.name,
        collection.n_captures,
        sweep.n_captures,
        outcome.n_spams,
    )
    return report
