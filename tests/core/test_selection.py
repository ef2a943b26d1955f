"""Tests for attribute-based pseudo-honeypot selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import PROFILE_ATTRIBUTE_BY_KEY
from repro.core.portability import ActivityPolicy
from repro.core.selection import (
    AttributeSelector,
    CategoryTarget,
    ProfileTarget,
    SelectionPlan,
)


@pytest.fixture(scope="module")
def selector_world():
    from tests.conftest import build_world

    population, engine, rest = build_world(seed=71)
    engine.run_hours(8)  # populate trending + timelines
    selector = AttributeSelector(
        rest,
        candidate_pool=500,
        activity=ActivityPolicy(window_hours=24),
        seed=1,
    )
    return population, engine, rest, selector


class TestSelectionPlan:
    def test_full_paper_plan_is_2400_nodes(self):
        plan = SelectionPlan.full_paper_plan(per_value=10)
        assert plan.total_requested == 2400
        assert len(plan.profile_targets) == 110  # 11 attrs x 10 values
        assert len(plan.category_targets) == 13  # 9 hashtag + 4 trending

    def test_random_plan_sizes(self):
        plan = SelectionPlan.random_plan(n_targets=10, per_value=10, seed=0)
        n_targets = len(plan.profile_targets) + len(plan.category_targets)
        assert n_targets == 10

    def test_random_plan_deterministic(self):
        a = SelectionPlan.random_plan(8, 5, seed=3)
        b = SelectionPlan.random_plan(8, 5, seed=3)
        assert a == b


class TestProfileSelection:
    def test_selected_accounts_match_bin(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 100, count=5),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        for node in nodes:
            value = population.accounts[node.user_id].friends_count
            assert 100 / selector.tolerance <= value <= 100 * selector.tolerance
            assert node.attribute_key == "friends_count"
            assert node.sample_label == "friends_count=100"

    def test_closest_matches_preferred(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 100, count=3),)
        )
        nodes = selector.select(plan, engine.clock.now)
        picked = [
            abs(math.log(population.accounts[n.user_id].friends_count / 100))
            for n in nodes
        ]
        assert picked == sorted(picked)

    def test_no_account_selected_twice(self, selector_world):
        __, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(
                ProfileTarget(spec, 100, count=10),
                ProfileTarget(spec, 110, count=10),
            )
        )
        nodes = selector.select(plan, engine.clock.now)
        ids = [n.user_id for n in nodes]
        assert len(set(ids)) == len(ids)

    def test_selected_accounts_are_active(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["account_age_days"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 500, count=10),)
        )
        nodes = selector.select(plan, engine.clock.now)
        for node in nodes:
            last_post = population.accounts[node.user_id].last_post_at
            assert engine.clock.now - last_post <= 24 * 3600

    def test_shortfall_reported(self, selector_world):
        __, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["followers_count"]
        # Nobody in a tiny world has exactly ~1e9 followers.
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 1e9, count=10),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes == []
        assert selector.last_report.shortfalls


class _Candidates:
    """The two reads ``_select_profile`` makes of a candidate set whose
    attribute values it finds in its value cache."""

    def __init__(self, uids: list[int]) -> None:
        self.uids = uids

    def screen_name(self, i: int) -> str:
        return f"user{self.uids[i]}"


def confirm_all_and_sort(values, uids, target_value, count, used, tolerance):
    """The profile match written out: confirm every prefiltered
    candidate, sort all matches by distance then uid, keep ``count``."""
    log_tol = math.log(tolerance)
    with np.errstate(divide="ignore", invalid="ignore"):
        approx = np.abs(np.log(values) - math.log(target_value))
    near = np.nonzero((values > 0) & (approx <= log_tol + 1e-6))[0]
    vals = values.tolist()
    matches = []
    for ii in near.tolist():
        if uids[ii] in used:
            continue
        distance = abs(math.log(vals[ii] / target_value))
        if distance <= log_tol:
            matches.append((distance, uids[ii]))
    matches.sort()
    return [uid for __, uid in matches[:count]]


@st.composite
def candidate_sets(draw):
    """Attribute values with many exact ties (small integers, zero
    included) and some spread, under shuffled distinct uids, a part of
    them already used."""
    values = draw(
        st.lists(
            st.one_of(
                st.integers(0, 40).map(float),
                st.floats(0.01, 400.0),
            ),
            max_size=80,
        )
    )
    uids = draw(
        st.lists(
            st.integers(1, 10**6),
            min_size=len(values),
            max_size=len(values),
            unique=True,
        )
    )
    used = {uid for uid in uids if draw(st.booleans())}
    return np.array(values, dtype=np.float64), uids, used


class TestProfileWalk:
    """``_select_profile`` confirms candidates in ascending approximate
    distance and stops once no later one can make the cut; it must pick
    the nodes, in the order, of confirming and sorting every match."""

    @settings(max_examples=300, deadline=None)
    @given(
        candidate_sets(),
        st.sampled_from([1.0, 3.0, 10.0, 20.0, 37.5, 100.0]),
        st.integers(0, 12),
        st.sampled_from([1.05, 1.6, 3.0]),
    )
    def test_walk_picks_what_a_full_sort_picks(
        self, candidates, target_value, count, tolerance
    ):
        values, uids, used = candidates
        expected = confirm_all_and_sort(
            values, uids, target_value, count, used, tolerance
        )
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        selector = AttributeSelector(None, tolerance=tolerance)
        nodes = []
        taken = set(used)
        got = selector._select_profile(
            ProfileTarget(spec, target_value, count),
            0.0,
            _Candidates(uids),
            taken,
            nodes,
            {spec.key: values},
        )
        assert [node.user_id for node in nodes] == expected
        assert [node.screen_name for node in nodes] == [
            f"user{uid}" for uid in expected
        ]
        assert got == len(expected)
        assert taken == used | set(expected)

    def test_distance_ties_go_to_the_lower_uid(self):
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        values = np.array([9.0, 11.0, 10.0, 10.0, 10.0, 10.0])
        uids = [1, 2, 50, 40, 30, 20]
        nodes = []
        AttributeSelector(None)._select_profile(
            ProfileTarget(spec, 10.0, 3),
            0.0,
            _Candidates(uids),
            {30},
            nodes,
            {spec.key: values},
        )
        assert [node.user_id for node in nodes] == [20, 40, 50]


class TestCategorySelection:
    def test_hashtag_nodes_recently_used_category(self, selector_world):
        population, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("hashtag_social", count=8),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        from repro.twittersim.hashtags import HASHTAG_POOLS, HashtagCategory

        social = set(HASHTAG_POOLS[HashtagCategory.SOCIAL])
        for node in nodes:
            timeline_tags = {
                tag
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id
                for tag in tweet.hashtags
            }
            assert timeline_tags & social

    def test_no_hashtag_nodes_have_no_recent_hashtags(self, selector_world):
        __, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("no_hashtag", count=8),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        for node in nodes:
            tags = [
                tag
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id
                for tag in tweet.hashtags
            ]
            assert tags == []

    def test_trending_nodes_posted_trending_topics(self, selector_world):
        __, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("trending_up", count=5),)
        )
        nodes = selector.select(plan, engine.clock.now)
        trending_up = rest.trending_sets()["trending_up"]
        if not trending_up:
            pytest.skip("no trending-up topics in this tiny world")
        for node in nodes:
            topics = {
                tweet.topic
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id and tweet.topic
            }
            assert topics & trending_up


class TestValidation:
    def test_rejects_bad_tolerance(self, selector_world):
        __, __, rest, __ = selector_world
        with pytest.raises(ValueError):
            AttributeSelector(rest, tolerance=0.9)
