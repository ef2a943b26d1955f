"""End-to-end experiment orchestration (Section V).

``PseudoHoneypotExperiment`` owns one synthetic world and walks the
paper's phases on its clock:

1. ``collect_ground_truth`` — a small random-attribute network gathers
   the training capture (paper: 100 nodes, 300 hours);
2. ``label_ground_truth`` — the four-stage labeling pipeline (Table III);
3. ``train_detector`` — fit the deployed classifier on the labels;
4. ``run_full_network`` — the 2,400-node attribute sweep (Tables V/VI,
   Figures 2-5);
5. ``classify`` — run the detector over any capture set;
6. ``run_plan`` — deploy an arbitrary plan (advanced system, baselines)
   for the Figure 6 / Table VII comparisons.

Every run is reproducible from the experiment seed.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from ..faults import FaultInjector, FaultPlan
from ..labeling.manual import ManualChecker
from ..labeling.pipeline import GroundTruthLabeler, LabeledDataset
from ..ml.base import Classifier
from ..obs import LiveMonitor, RunReport, emit, profile
from ..obs.health import HealthEngine, HealthRule
from ..obs.ledger import RunLedger, RunRecord, stable_digest
from ..parallel import executor
from ..twittersim.api.rest import RestClient
from ..twittersim.config import SimulationConfig
from ..twittersim.engine import TwitterEngine
from ..twittersim.population import build_population
from .detector import ClassificationOutcome, PseudoHoneypotDetector
from .monitor import CapturedTweet
from .network import (
    ExposureLedger,
    PseudoHoneypotNetwork,
    RecoveryLedger,
)
from .portability import ActivityPolicy
from .selection import AttributeSelector, SelectionPlan

log = logging.getLogger("repro.core.experiment")


@dataclass
class NetworkRun:
    """Captures plus exposure accounting of one deployed network."""

    captures: list[CapturedTweet]
    exposure: ExposureLedger
    n_nodes_requested: int
    hours: int
    #: Degraded-mode accounting (reconnects, backfills, losses);
    #: None only for runs predating the resilience layer.
    recovery: RecoveryLedger | None = None

    @property
    def n_captures(self) -> int:
        return len(self.captures)


class PseudoHoneypotExperiment:
    """One synthetic world and the paper's experimental phases on it.

    Args:
        config: world configuration (population, rates, seeds).
        manual_error_rate: human-oracle flip probability for labeling.
        candidate_pool: selector candidate sample per hour.
        workers: process-pool size for the CPU-bound phases (the
            engine's post shards, labeling clustering and detector
            training); ``None`` defers to the ambient
            :func:`repro.parallel.resolve_workers` rule and 0 forces
            sequential.  Outputs are identical at every worker count.
        fault_plan: optional chaos schedule; a
            :class:`repro.faults.FaultInjector` seeded from the
            experiment seed executes it against this world.  An empty
            plan (or None) leaves the run byte-identical to an
            uninstrumented one.
        health: SLO watchdog for the run.  ``True`` attaches a
            :class:`~repro.obs.health.HealthEngine` with the default
            rule pack; a sequence of
            :class:`~repro.obs.health.HealthRule` attaches a custom
            pack; ``False``/``None`` (default) attaches nothing.  The
            engine subscribes to the process-global event stream for
            the experiment's lifetime — call ``self.health.detach()``
            to release it early.  A clean (fault-free) run fires no
            alerts and keeps every report artifact byte-identical,
            attached or not.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        manual_error_rate: float = 0.02,
        candidate_pool: int = 6_000,
        workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        health: "bool | Sequence[HealthRule] | None" = None,
    ) -> None:
        self.config = config or SimulationConfig.medium()
        self.population = build_population(self.config)
        self.engine = TwitterEngine(self.population, workers=workers)
        self.fault_plan = fault_plan
        self.fault_injector: FaultInjector | None = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(
                fault_plan, seed=self.config.seed
            )
            self.engine.install_fault_injector(self.fault_injector)
        self.rest = RestClient(self.engine)
        # A 6-hour Active window: users post in multi-hour bursts, so a
        # recent post predicts the account is still in session — the
        # portability property's whole point (Section III-D).
        self.activity = ActivityPolicy(window_hours=6.0)
        self.candidate_pool = candidate_pool
        self.manual_error_rate = manual_error_rate
        self.workers = workers
        self.health: HealthEngine | None = None
        if health:
            self.health = HealthEngine(
                rules=None if health is True else health
            ).attach()

    def _parallel_scope(self):
        """An ``executor`` scope for this experiment's worker setting.

        With ``workers=None`` the ambient rule (active executor, then
        ``REPRO_WORKERS``) already governs every ``parallel_map``
        below, so no scope is opened; an explicit setting pins one
        shared pool for the phase.
        """
        if self.workers is None:
            return nullcontext()
        return executor(self.workers)

    # ------------------------------------------------------------------

    def make_selector(self, seed_offset: int = 0) -> AttributeSelector:
        """A fresh selector bound to this world."""
        return AttributeSelector(
            self.rest,
            candidate_pool=self.candidate_pool,
            activity=self.activity,
            seed=self.config.seed + seed_offset,
        )

    def warm_up(self, hours: int = 4) -> None:
        """Run unmonitored hours so trending and timelines populate."""
        log.info("phase warm_up: %d unmonitored hours", hours)
        with profile("experiment.warm_up", hours=hours):
            self.engine.run_hours(hours)

    def run_plan(
        self,
        plan: SelectionPlan,
        hours: int,
        switch_every_hours: int = 1,
        seed_offset: int = 0,
    ) -> NetworkRun:
        """Deploy a plan for ``hours`` monitored hours and collect."""
        with profile("experiment.run_plan", hours=hours) as span:
            network = PseudoHoneypotNetwork(
                self.engine,
                self.make_selector(seed_offset),
                plan,
                switch_every_hours=switch_every_hours,
            )
            network.deploy()
            network.run_hours(hours)
            network.shutdown()
            run = NetworkRun(
                captures=network.monitor.captured,
                exposure=network.exposure,
                n_nodes_requested=plan.total_requested,
                hours=hours,
                recovery=network.recovery,
            )
            span.set(
                captures=run.n_captures,
                node_hours=sum(run.exposure.by_attribute.values()),
                nodes_requested=plan.total_requested,
            )
            if network.recovery.degraded:
                # Only stamped on degraded runs, so fault-free report
                # artifacts stay byte-identical.
                span.set(
                    reconnects=network.recovery.reconnects,
                    backfilled=network.recovery.backfilled,
                    lost=network.recovery.lost,
                    deferred_switches=(
                        network.recovery.deferred_switches
                    ),
                )
        return run

    # -- paper phases ----------------------------------------------------

    def collect_ground_truth(
        self, hours: int, n_targets: int = 10, per_value: int = 10
    ) -> NetworkRun:
        """Phase 1: the random-attribute collection network (§V-C).

        Paper configuration: 100 nodes (10 random attributes x 10
        accounts), 300 hours.
        """
        log.info(
            "phase collect_ground_truth: %d hours, %d targets x %d accounts",
            hours,
            n_targets,
            per_value,
        )
        plan = SelectionPlan.random_plan(
            n_targets, per_value, seed=self.config.seed + 17
        )
        with profile("experiment.collect_ground_truth", hours=hours) as span:
            run = self.run_plan(plan, hours, seed_offset=17)
            span.set(
                captures=run.n_captures,
                node_hours=sum(run.exposure.by_attribute.values()),
            )
        return run

    def label_ground_truth(
        self, run: NetworkRun, unlabeled_audit_rate: float = 0.1
    ) -> LabeledDataset:
        """Phase 2: four-stage labeling of a collection run (Table III)."""
        log.info(
            "phase label_ground_truth: %d captured tweets", run.n_captures
        )
        checker = ManualChecker(
            self.population.truth,
            error_rate=self.manual_error_rate,
            seed=self.config.seed,
        )
        labeler = GroundTruthLabeler(
            self.rest,
            checker,
            unlabeled_audit_rate=unlabeled_audit_rate,
            minhash_seed=self.config.seed,
        )
        with profile("experiment.label_ground_truth") as span:
            with self._parallel_scope():
                dataset = labeler.label(
                    [capture.tweet for capture in run.captures]
                )
            span.set(
                n_tweets=dataset.n_tweets,
                n_spams=dataset.n_spams,
                n_users=dataset.n_users,
                n_spammers=dataset.n_spammers,
            )
        return dataset

    def train_detector(
        self,
        run: NetworkRun,
        dataset: LabeledDataset,
        classifier: Classifier | None = None,
    ) -> PseudoHoneypotDetector:
        """Phase 3: fit the detector on the labeled ground truth."""
        log.info(
            "phase train_detector: %d captures, %d labeled spams",
            run.n_captures,
            dataset.n_spams,
        )
        detector = PseudoHoneypotDetector(classifier=classifier)
        with profile("experiment.train_detector") as span:
            with self._parallel_scope():
                detector.fit_from_ground_truth(run.captures, dataset)
            span.set(
                n_training_tweets=dataset.n_tweets,
                n_training_spams=dataset.n_spams,
            )
        return detector

    def run_full_network(
        self, hours: int, per_value: int = 10
    ) -> NetworkRun:
        """Phase 4: the Table-I/II attribute sweep (2,400 nodes at
        ``per_value=10``)."""
        log.info(
            "phase run_full_network: %d hours at per_value=%d",
            hours,
            per_value,
        )
        with profile("experiment.run_full_network", hours=hours) as span:
            run = self.run_plan(
                SelectionPlan.full_paper_plan(per_value),
                hours,
                seed_offset=29,
            )
            span.set(
                captures=run.n_captures,
                node_hours=sum(run.exposure.by_attribute.values()),
            )
        return run

    def classify(
        self, detector: PseudoHoneypotDetector, run: NetworkRun
    ) -> ClassificationOutcome:
        """Phase 5: detector verdicts over a network run's captures."""
        log.info("phase classify: %d captures", run.n_captures)
        with profile("experiment.classify") as span:
            outcome = detector.classify(run.captures)
            span.set(
                captures=run.n_captures,
                n_spams=outcome.n_spams,
                n_spammers=outcome.n_spammers,
            )
            # The final PGE snapshot: now that verdicts exist, publish
            # the true Table-VI ranking over the same event channel the
            # hourly live estimates used.  Same payload as
            # ``pge_by_sample`` bit-for-bit, at any worker count.
            from .pge import pge_by_sample, ranking_payload

            emit(
                "pge.snapshot",
                kind="final",
                hour=self.engine.clock.hour,
                captures=run.n_captures,
                bands=ranking_payload(
                    pge_by_sample(outcome, run.exposure)
                ),
            )
        return outcome

    def run_plans_concurrently(
        self,
        plans: dict[str, SelectionPlan],
        hours: int,
        switch_every_hours: int = 1,
    ) -> dict[str, NetworkRun]:
        """Deploy several plans over the *same* platform hours.

        All networks observe identical traffic, making head-to-head
        comparisons (advanced pseudo-honeypot vs. non pseudo-honeypot,
        Figure 6) free of run-to-run variance in the world itself.
        """
        with profile(
            "experiment.run_plans_concurrently",
            hours=hours,
            n_plans=len(plans),
        ):
            networks = {}
            for offset, (name, plan) in enumerate(plans.items()):
                network = PseudoHoneypotNetwork(
                    self.engine,
                    self.make_selector(seed_offset=41 + offset),
                    plan,
                    switch_every_hours=switch_every_hours,
                )
                network.deploy()
                networks[name] = network
            return self.run_networks(networks, hours)

    def run_networks(
        self,
        networks: dict[str, "PseudoHoneypotNetwork"],
        hours: int,
    ) -> dict[str, NetworkRun]:
        """Drive already-deployed networks through shared hours."""
        log.info(
            "phase run_networks: %s over %d shared hours",
            "/".join(networks) or "-",
            hours,
        )
        with profile("experiment.run_networks", hours=hours) as span:
            for __ in range(hours):
                for network in networks.values():
                    network.prepare_hour()
                self.engine.run_hour()
                for network in networks.values():
                    network.finish_hour()
            runs = {}
            for name, network in networks.items():
                network.shutdown()
                runs[name] = NetworkRun(
                    captures=network.monitor.captured,
                    exposure=network.exposure,
                    n_nodes_requested=network.plan.total_requested,
                    hours=hours,
                    recovery=network.recovery,
                )
            span.set(
                captures=sum(run.n_captures for run in runs.values()),
                node_hours=sum(
                    sum(run.exposure.by_attribute.values())
                    for run in runs.values()
                ),
                captures_by_network={
                    name: run.n_captures for name, run in runs.items()
                },
            )
        return runs

    # -- reporting -------------------------------------------------------

    def live(self, out=None) -> LiveMonitor:
        """A console monitor tailing this process's event stream.

        Use as a context manager around any phase to watch captures
        per node-hour, selector fill rates, and label-stage deltas
        while the run is still in flight:

        .. code-block:: python

            with exp.live():
                exp.run_full_network(hours=24)
        """
        return LiveMonitor(out=out)

    def export_report(
        self,
        path: str | Path | None = None,
        ledger: RunLedger | None = None,
        runid: str | None = None,
        timestamp: str | None = None,
        **meta: object,
    ) -> RunReport:
        """Snapshot the global phase tree + metrics as a `RunReport`.

        The report's ``experiment.*`` span attributes reconcile exactly
        with the phase return values (``NetworkRun.n_captures``,
        ``LabeledDataset`` counts), making it the artifact perf PRs
        diff against.

        Args:
            path: if given, also write the report JSON there.
            ledger: if given, also distill the report into a
                :class:`~repro.obs.ledger.RunRecord` — stamped with
                this experiment's config digest, fault-plan digest,
                and worker setting, plus the health engine's incident
                list and ``totals.alerts_fired`` when ``health`` is
                attached — and append it there.
            runid: ledger record id; defaults to the report's.
            timestamp: caller-injected ``ts`` for the ledger record
                (this module never reads the wall clock).
            **meta: free-form metadata recorded in the report.

        Returns:
            The captured report.
        """
        meta.setdefault("seed", self.config.seed)
        meta.setdefault("engine_hours", self.engine.clock.hour)
        report = RunReport.capture(**meta)
        if path is not None:
            report.save(path)
            log.info("run report exported to %s", path)
        if ledger is not None:
            record_meta: dict[str, object] = {
                "config_digest": stable_digest(asdict(self.config)),
                "workers": self.workers,
            }
            if self.fault_plan is not None:
                record_meta["fault_plan_digest"] = stable_digest(
                    self.fault_plan.to_dict()
                )
            record = RunRecord.from_report(
                report,
                runid=runid or str(report.meta.get("runid", "run")),
                **record_meta,
            )
            if self.health is not None:
                record.incidents = self.health.incidents.to_payload()
                record.totals["alerts_fired"] = (
                    self.health.alerts_fired
                )
            ledger.append(record, timestamp=timestamp)
            log.info("run record appended to %s", ledger.path)
        return report
