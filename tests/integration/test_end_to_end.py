"""End-to-end integration tests on the shared tiny session.

These assert the qualitative *shapes* the paper reports, at a scale
small enough for CI: the pipeline runs, the detector separates spam,
PGE refinement prefers attribute-targeted selection, and the advanced
system beats random monitoring.
"""

import numpy as np
import pytest

from repro.core.pge import overall_pge, spam_count_distribution


class TestFullPipeline:
    def test_ground_truth_has_both_classes(self, tiny_session):
        dataset = tiny_session.ground_truth
        assert dataset.n_spams > 5
        assert dataset.n_spams < dataset.n_tweets

    def test_labeling_precision_against_simulator_truth(self, tiny_session):
        dataset = tiny_session.ground_truth
        truth = tiny_session.experiment.population.truth
        labeled_spam = [
            tweet
            for i, tweet in enumerate(dataset.tweets)
            if dataset.tweet_labels[i]
        ]
        correct = sum(
            truth.is_spam_tweet(t.tweet_id) for t in labeled_spam
        )
        assert correct / max(len(labeled_spam), 1) > 0.75

    def test_detector_finds_spam_in_main_run(self, tiny_session):
        outcome = tiny_session.main_outcome
        assert outcome.n_spams > 0
        assert outcome.n_spammers > 0
        assert outcome.n_spams < outcome.n_tweets

    def test_detector_agrees_with_truth(self, tiny_session):
        truth = tiny_session.experiment.population.truth
        outcome = tiny_session.main_outcome
        actual = np.array(
            [truth.is_spam_tweet(c.tweet.tweet_id) for c in outcome.captures]
        )
        agreement = (outcome.is_spam.astype(bool) == actual).mean()
        assert agreement > 0.9

    def test_spam_distribution_is_heavy_tailed(self, tiny_session):
        """Figure 2 shape: most spammers seen with few spams."""
        dist = spam_count_distribution(tiny_session.main_outcome)
        assert dist
        low = sum(frac for count, frac in dist.items() if count <= 2)
        assert low > 0.5
        assert max(dist) < 100  # nobody posts unbounded spam

    def test_pge_exposure_accounting(self, tiny_session):
        entries = tiny_session.pge_entries
        exposure = tiny_session.main_run.exposure
        for entry in entries:
            assert entry.node_hours == exposure.by_sample[entry.label]
            assert entry.pge == pytest.approx(
                entry.spammers / entry.node_hours
            )

    def test_advanced_beats_random(self, tiny_session):
        """Figure 6 shape: the refined system garners more spammers."""
        outcomes = tiny_session.comparison_outcomes
        advanced = outcomes["advanced"].n_spammers
        random = outcomes["random"].n_spammers
        assert advanced > random

    def test_advanced_pge_exceeds_random_pge(self, tiny_session):
        runs = tiny_session.comparison_runs
        outcomes = tiny_session.comparison_outcomes
        pge = {}
        for name in ("advanced", "random"):
            node_hours = sum(runs[name].exposure.by_attribute.values())
            pge[name] = outcomes[name].n_spammers / max(node_hours, 1)
        assert pge["advanced"] > pge["random"]

    def test_captures_cover_both_capture_categories(self, tiny_session):
        from repro.core.monitor import CaptureCategory

        categories = {
            c.capture_category for c in tiny_session.main_run.captures
        }
        assert CaptureCategory.MENTION in categories

    def test_overall_pge_computable(self, tiny_session):
        runs = tiny_session.comparison_runs
        outcomes = tiny_session.comparison_outcomes
        node_hours = sum(
            runs["advanced"].exposure.by_attribute.values()
        )
        hours = runs["advanced"].exposure.hours
        value = overall_pge(
            outcomes["advanced"].n_spammers,
            max(node_hours // max(hours, 1), 1),
            hours,
        )
        assert value >= 0
