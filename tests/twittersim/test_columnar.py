"""Tests for the columnar account store."""

import numpy as np

from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.columnar import AccountColumns
from repro.twittersim.entities import AccountState


def _account(user_id: int, screen_name: str = "s") -> AccountState:
    return AccountState(
        user_id=user_id,
        screen_name=screen_name,
        name="n",
        created_at=0.0,
        description="d",
        friends_count=1,
        followers_count=2,
        statuses_count=3,
        listed_count=4,
        favourites_count=5,
    )


class TestSnapshot:
    def test_snapshot_freezes_current_counters(self):
        cols = AccountColumns(capacity=1)
        row = cols.append_state(_account(9))
        snapshot = cols.snapshot(row)
        cols.column("statuses_count")[row] = 99
        assert snapshot.statuses_count == 3
        assert cols.snapshot(row).statuses_count == 99

    def test_snapshot_holds_python_scalars(self):
        cols = AccountColumns(capacity=1)
        snapshot = cols.snapshot(cols.append_state(_account(9)))
        assert type(snapshot.user_id) is int
        assert type(snapshot.created_at) is float
        assert type(snapshot.verified) is bool
        assert snapshot.screen_name == "s"


class TestGrowthDuringSuspension:
    """A respawn that grows the store mid-pass loses no suspension.

    Growing the store replaces every column array, so a column fetched
    before the suspension pass would take writes the store no longer
    holds.  The same world grown in advance must come out identical.
    """

    @staticmethod
    def _run(pregrow: bool):
        population = build_population(
            SimulationConfig.small(seed=5, spam_suspension_rate=0.5)
        )
        cols = population.cols
        # Fill the store to capacity with accounts that never post.
        while cols.n < cols._capacity:
            uid = population.next_user_id()
            population.register_operator_account(
                _account(uid, f"inert_{uid}"), post_rate_per_day=0.0
            )
        capacity = cols._capacity
        if pregrow:
            cols._grow_to(4 * capacity)
        engine = TwitterEngine(population)
        firehose = []
        engine.subscribe(firehose.append)
        engine.run_hours(2)
        return population, capacity, [t.to_json() for t in firehose]

    def test_store_grown_mid_pass_matches_pregrown_twin(self):
        grown, capacity, stream = self._run(pregrow=False)
        twin, __, twin_stream = self._run(pregrow=True)
        assert grown.cols._capacity > capacity  # a respawn grew it
        assert twin.cols._capacity == 4 * capacity
        assert grown.cols.column("suspended").any()
        assert np.array_equal(
            grown.cols.column("suspended"), twin.cols.column("suspended")
        )
        assert grown.order == twin.order
        assert stream == twin_stream
