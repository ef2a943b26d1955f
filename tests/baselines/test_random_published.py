"""Tests for the random-monitor baseline and published Table VII rows."""

import pytest

from repro.baselines.published import (
    HOURS_PER_MONTH,
    PAPER_ADVANCED_ROW,
    PUBLISHED_HONEYPOTS,
    best_published_pge,
)
from repro.baselines.random_monitor import RandomAccountSelector
from repro.core.portability import ActivityPolicy


class TestRandomAccountSelector:
    def test_selects_requested_count(self, warm_world):
        __, engine, rest = warm_world
        selector = RandomAccountSelector(rest, n_nodes=20, seed=1)
        nodes = selector.select(None, engine.clock.now)
        assert len(nodes) == 20
        assert len({n.user_id for n in nodes}) == 20
        assert all(n.attribute_key == "random" for n in nodes)

    def test_activity_filter_applies(self, warm_world):
        population, engine, rest = warm_world
        selector = RandomAccountSelector(
            rest, n_nodes=10, activity=ActivityPolicy(), seed=1
        )
        nodes = selector.select(None, engine.clock.now)
        last_post_at = population.cols.column("last_post_at")
        for node in nodes:
            last = last_post_at[population.index_of[node.user_id]]
            assert engine.clock.now - last <= 24 * 3600

    def test_different_seeds_differ(self, warm_world):
        __, engine, rest = warm_world
        a = RandomAccountSelector(rest, 15, seed=1).select(
            None, engine.clock.now
        )
        b = RandomAccountSelector(rest, 15, seed=2).select(
            None, engine.clock.now
        )
        assert {n.user_id for n in a} != {n.user_id for n in b}

    def test_rejects_zero_nodes(self, warm_world):
        __, __, rest = warm_world
        with pytest.raises(ValueError):
            RandomAccountSelector(rest, 0)


class TestPublishedRows:
    def test_four_literature_rows(self):
        assert len(PUBLISHED_HONEYPOTS) == 4

    def test_reported_pge_matches_paper_table(self):
        by_name = {row.name: row for row in PUBLISHED_HONEYPOTS}
        assert by_name["Stringhini et al. [27]"].reported_pge == 0.0067
        assert by_name["Lee et al. [17]"].reported_pge == 0.12
        assert by_name["Yang et al. [38]"].reported_pge == 0.0034

    def test_derived_pge_close_to_reported(self):
        for row in PUBLISHED_HONEYPOTS:
            derived = row.derived_pge()
            if derived is None:
                continue
            # The paper's own arithmetic (month = 30 days) should agree
            # with the reported PGE within rounding.
            assert derived == pytest.approx(row.reported_pge, rel=0.35)

    def test_best_published_is_lee(self):
        assert best_published_pge() == 0.12

    def test_paper_advanced_row_consistent(self):
        row = PAPER_ADVANCED_ROW
        assert row.derived_pge() == pytest.approx(1.7336, rel=1e-3)

    def test_paper_19x_claim_holds_on_quoted_numbers(self):
        """The paper's own ≥19x assertion: 1.7336 / 0.087 ≈ 19.9."""
        yang_advanced = next(
            row
            for row in PUBLISHED_HONEYPOTS
            if "advanced" in row.name
        )
        ratio = PAPER_ADVANCED_ROW.reported_pge / yang_advanced.reported_pge
        assert ratio >= 19

    def test_hours_per_month_constant(self):
        assert HOURS_PER_MONTH == 720
