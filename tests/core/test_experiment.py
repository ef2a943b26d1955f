"""Tests for experiment orchestration (tiny scale)."""

from repro.core.experiment import PseudoHoneypotExperiment
from repro.core.selection import SelectionPlan
from repro.twittersim import SimulationConfig


class TestExperimentPhases:
    def test_phases_on_shared_session(self, tiny_session):
        run = tiny_session.ground_truth_run
        assert run.n_captures > 0
        assert run.exposure.hours == tiny_session.scale.gt_hours

        dataset = tiny_session.ground_truth
        assert dataset.n_tweets == run.n_captures
        assert dataset.n_spams > 0

        main = tiny_session.main_run
        assert main.n_captures > run.n_captures / 4
        outcome = tiny_session.main_outcome
        assert outcome.n_tweets == main.n_captures

    def test_pge_entries_ranked(self, tiny_session):
        entries = tiny_session.pge_entries
        assert entries
        pges = [e.pge for e in entries]
        assert pges == sorted(pges, reverse=True)

    def test_comparison_runs_share_hours(self, tiny_session):
        runs = tiny_session.comparison_runs
        assert set(runs) == {"advanced", "random"}
        assert (
            runs["advanced"].exposure.hours == runs["random"].exposure.hours
        )

    def test_run_plans_concurrently_isolated_monitors(self):
        exp = PseudoHoneypotExperiment(
            SimulationConfig.small(seed=99), candidate_pool=300
        )
        exp.warm_up(4)
        plan = SelectionPlan.random_plan(4, 3, seed=1)
        runs = exp.run_plans_concurrently(
            {"a": plan, "b": plan}, hours=2
        )
        assert set(runs) == {"a", "b"}
        for run in runs.values():
            assert run.hours == 2
            assert run.exposure.hours == 2


class TestDeterminism:
    def test_same_seed_same_ground_truth_run(self):
        def collect():
            exp = PseudoHoneypotExperiment(
                SimulationConfig.small(seed=123), candidate_pool=300
            )
            exp.warm_up(3)
            run = exp.collect_ground_truth(hours=3, n_targets=5, per_value=3)
            return [c.tweet.tweet_id for c in run.captures]

        assert collect() == collect()
