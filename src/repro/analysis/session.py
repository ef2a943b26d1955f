"""Shared, lazily-computed reproduction session.

Most tables and figures read different views of the *same* expensive
artifacts (the ground-truth run, the trained detector, the 2,400-node
sweep).  ``ReproSession`` computes each phase once and caches it, and
``get_session`` memoizes whole sessions by scale so every benchmark in
a pytest run shares them.

Scales:

* ``tiny``   — seconds; unit tests.
* ``small``  — tens of seconds; integration tests / quick benches.
* ``medium`` — minutes; the default benchmark scale (paper shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..baselines.random_monitor import RandomAccountSelector
from ..core.detector import (
    ClassificationOutcome,
    PseudoHoneypotDetector,
    join_labels,
)
from ..core.experiment import NetworkRun, PseudoHoneypotExperiment
from ..core.network import PseudoHoneypotNetwork
from ..core.pge import PgeEntry, advanced_plan_from_pge, pge_by_sample
from ..core.selection import SelectionPlan
from ..labeling.pipeline import LabeledDataset
from ..twittersim.config import SimulationConfig


@dataclass(frozen=True)
class SessionScale:
    """Size parameters of one reproduction session."""

    name: str
    sim: SimulationConfig
    warmup_hours: int
    gt_hours: int
    gt_targets: int
    gt_per_value: int
    main_hours: int
    main_per_value: int
    comparison_hours: int
    advanced_per_value: int
    candidate_pool: int

    @classmethod
    def tiny(cls, seed: int = 7) -> "SessionScale":
        return cls(
            name="tiny",
            sim=SimulationConfig.small(seed=seed),
            warmup_hours=3,
            gt_hours=8,
            gt_targets=8,
            gt_per_value=5,
            main_hours=6,
            main_per_value=2,
            comparison_hours=6,
            advanced_per_value=4,
            candidate_pool=600,
        )

    @classmethod
    def small(cls, seed: int = 7) -> "SessionScale":
        return cls(
            name="small",
            sim=SimulationConfig(
                seed=seed,
                n_normal_users=4_000,
                n_campaigns=25,
                campaign_size_min=6,
                campaign_size_max=16,
                n_lone_spammers=80,
                spam_actions_min=0.08,
                spam_actions_max=0.25,
            ),
            warmup_hours=7,
            gt_hours=24,
            gt_targets=10,
            gt_per_value=10,
            main_hours=14,
            main_per_value=6,
            comparison_hours=12,
            advanced_per_value=10,
            candidate_pool=2_500,
        )

    @classmethod
    def medium(cls, seed: int = 7) -> "SessionScale":
        return cls(
            name="medium",
            sim=SimulationConfig.medium(seed=seed),
            warmup_hours=8,
            gt_hours=40,
            gt_targets=10,
            gt_per_value=10,
            main_hours=24,
            main_per_value=10,
            comparison_hours=24,
            advanced_per_value=10,
            candidate_pool=6_000,
        )

    @classmethod
    def by_name(cls, name: str, seed: int = 7) -> "SessionScale":
        """Look up a preset scale by name.

        Raises:
            KeyError: unknown scale name.
        """
        presets = {"tiny": cls.tiny, "small": cls.small, "medium": cls.medium}
        if name not in presets:
            raise KeyError(f"unknown scale {name!r}")
        return presets[name](seed=seed)


class ReproSession:
    """All reproduction artifacts of one world, computed lazily."""

    def __init__(self, scale: SessionScale) -> None:
        self.scale = scale

    # -- world + phases ---------------------------------------------------

    @cached_property
    def experiment(self) -> PseudoHoneypotExperiment:
        exp = PseudoHoneypotExperiment(
            self.scale.sim, candidate_pool=self.scale.candidate_pool
        )
        exp.warm_up(self.scale.warmup_hours)
        return exp

    @cached_property
    def ground_truth_run(self) -> NetworkRun:
        return self.experiment.collect_ground_truth(
            hours=self.scale.gt_hours,
            n_targets=self.scale.gt_targets,
            per_value=self.scale.gt_per_value,
        )

    @cached_property
    def ground_truth(self) -> LabeledDataset:
        return self.experiment.label_ground_truth(self.ground_truth_run)

    @cached_property
    def detector(self) -> PseudoHoneypotDetector:
        return self.experiment.train_detector(
            self.ground_truth_run, self.ground_truth
        )

    @cached_property
    def training_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) of the ground truth, for the Table IV comparison."""
        captures, labels = join_labels(
            self.ground_truth_run.captures, self.ground_truth
        )
        X = PseudoHoneypotDetector().extract_features(captures, labels)
        return X, labels

    @cached_property
    def main_run(self) -> NetworkRun:
        return self.experiment.run_full_network(
            hours=self.scale.main_hours,
            per_value=self.scale.main_per_value,
        )

    @cached_property
    def main_outcome(self) -> ClassificationOutcome:
        return self.experiment.classify(self.detector, self.main_run)

    @cached_property
    def pge_entries(self) -> list[PgeEntry]:
        return pge_by_sample(self.main_outcome, self.main_run.exposure)

    @cached_property
    def advanced_plan(self) -> SelectionPlan:
        return advanced_plan_from_pge(
            self.pge_entries,
            top_k=10,
            per_value=self.scale.advanced_per_value,
        )

    @cached_property
    def comparison_runs(self) -> dict[str, NetworkRun]:
        """Advanced pseudo-honeypot vs. non pseudo-honeypot (Figure 6),
        observing the same platform hours."""
        exp = self.experiment
        n_nodes = self.advanced_plan.total_requested
        advanced = PseudoHoneypotNetwork(
            exp.engine, exp.make_selector(seed_offset=61), self.advanced_plan
        )
        advanced.deploy()
        # The paper's non pseudo-honeypot control is plain random
        # accounts with NO screening (Section V-E) — in particular no
        # activity filter, which would smuggle in half the targeting
        # signal (spammers react to accounts that post).
        random_net = PseudoHoneypotNetwork(
            exp.engine,
            RandomAccountSelector(
                exp.rest,
                n_nodes=n_nodes,
                activity=None,
                seed=self.scale.sim.seed + 71,
            ),
            SelectionPlan(),
        )
        random_net.deploy()
        return exp.run_networks(
            {"advanced": advanced, "random": random_net},
            self.scale.comparison_hours,
        )

    @cached_property
    def comparison_outcomes(self) -> dict[str, ClassificationOutcome]:
        return {
            name: self.experiment.classify(self.detector, run)
            for name, run in self.comparison_runs.items()
        }


_SESSIONS: dict[str, ReproSession] = {}


def get_session(scale_name: str = "medium", seed: int = 7) -> ReproSession:
    """Process-wide memoized session per (scale, seed)."""
    key = f"{scale_name}:{seed}"
    if key not in _SESSIONS:
        _SESSIONS[key] = ReproSession(SessionScale.by_name(scale_name, seed))
    return _SESSIONS[key]
