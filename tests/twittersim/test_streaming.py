"""Tests for the filtered streaming API."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.twittersim.api.streaming import (
    MAX_TRACK_TERMS,
    StreamingClient,
    parse_track_term,
)
from repro.twittersim.errors import (
    FilterLimitError,
    InvalidFilterError,
    StreamDisconnectedError,
)


#: Every character ``str.isspace`` accepts (none lies above U+3000),
#: and three that look like spaces but are not.
SPACE_LIKE = [chr(c) for c in range(0x3001) if chr(c).isspace()] + [
    "\u200b",
    "\u180e",
    "\ufeff",
]


class TestParseTrackTerm:
    def test_valid_term(self):
        assert parse_track_term("@alice") == "alice"

    @pytest.mark.parametrize("term", ["alice", "@", "", "@a b"])
    def test_invalid_terms(self, term):
        with pytest.raises(InvalidFilterError):
            parse_track_term(term)

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(SPACE_LIKE), st.characters()
            ),
            min_size=1,
        )
    )
    def test_whitespace_is_what_isspace_says(self, name):
        if any(ch.isspace() for ch in name):
            with pytest.raises(InvalidFilterError, match="whitespace"):
                parse_track_term("@" + name)
        else:
            assert parse_track_term("@" + name) == name


class TestFilteredStream:
    def pick_tracked_user(self, population):
        # A normal user with a decent post rate so matches happen;
        # pinned always-on so burst dormancy can't starve the test.
        # Its profile snapshot carries the id and handle, which never
        # change.
        cols = population.cols
        rates = cols.column("post_rate_per_day")
        best, best_rate = None, -1.0
        for uid in population.order[: population.config.n_normal_users]:
            idx = population.index_of[uid]
            rate = rates[idx]
            if rate > best_rate:
                best, best_rate = uid, rate
        cols.column("always_on")[population.index_of[best]] = True
        return cols.snapshot(population.index_of[best])

    def test_captures_only_crossing_tweets(self, fresh_world):
        population, engine, __ = fresh_world(seed=31)
        tracked = self.pick_tracked_user(population)
        client = StreamingClient(engine)
        stream = client.filter([f"@{tracked.screen_name}"])
        firehose = []
        engine.subscribe(firehose.append)
        engine.run_hours(3)
        matched = stream.listener.tweets
        assert matched, "expected at least one crossing tweet"
        for tweet in matched:
            crossing = tweet.user.user_id == tracked.user_id or (
                tweet.mentions_user(tracked.user_id)
            )
            assert crossing
        # Every crossing tweet in the firehose was matched.
        expected = [
            t
            for t in firehose
            if t.user.user_id == tracked.user_id
            or t.mentions_user(tracked.user_id)
        ]
        assert len(matched) == len(expected)

    def test_update_filter_switches_tracking(self, fresh_world):
        population, engine, __ = fresh_world(seed=32)
        tracked = self.pick_tracked_user(population)
        client = StreamingClient(engine)
        stream = client.filter(["@nobody_at_all"])
        engine.run_hour()
        assert stream.matched_count == 0
        stream.update_filter([f"@{tracked.screen_name}"])
        engine.run_hours(2)
        assert stream.matched_count > 0

    def test_disconnect_stops_matching(self, fresh_world):
        population, engine, __ = fresh_world(seed=33)
        tracked = self.pick_tracked_user(population)
        client = StreamingClient(engine)
        stream = client.filter([f"@{tracked.screen_name}"])
        engine.run_hours(2)
        count = stream.matched_count
        assert count > 0
        stream.disconnect()
        assert not stream.connected
        engine.run_hour()
        assert stream.matched_count == count

    def test_update_after_disconnect_raises(self, fresh_world):
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        stream.disconnect()
        with pytest.raises(StreamDisconnectedError):
            stream.update_filter(["@y"])

    def test_disconnect_is_idempotent(self, fresh_world):
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        stream.disconnect()
        stream.disconnect()

    def test_track_limit_enforced(self, fresh_world):
        __, engine, __ = fresh_world(seed=34)
        client = StreamingClient(engine)
        too_many = [f"@user{i}" for i in range(client.MAX_TRACK_TERMS + 1)]
        with pytest.raises(FilterLimitError):
            client.filter(too_many)

    def test_update_filter_over_limit_raises(self, fresh_world):
        """The limit applies to updates too, not just the initial
        filter (a broken network must not smuggle in an oversized
        track list through the update path)."""
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        too_many = [f"@user{i}" for i in range(MAX_TRACK_TERMS + 1)]
        with pytest.raises(FilterLimitError):
            stream.update_filter(too_many)
        assert stream.tracked_names == frozenset({"x"})

    def test_update_filter_invalid_term_keeps_previous_filter(
        self, fresh_world
    ):
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        with pytest.raises(InvalidFilterError):
            stream.update_filter(["@ok", "not-a-handle"])
        assert stream.tracked_names == frozenset({"x"})

    def test_update_broken_stream_raises(self, fresh_world):
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        stream.mark_broken(at=engine.clock.now)
        with pytest.raises(StreamDisconnectedError):
            stream.update_filter(["@y"])
        assert stream.broken
        assert not stream.closed

    def test_broken_stream_counts_undelivered(self, fresh_world):
        population, engine, __ = fresh_world(seed=36)
        tracked = self.pick_tracked_user(population)
        stream = StreamingClient(engine).filter(
            [f"@{tracked.screen_name}"]
        )
        engine.run_hours(2)
        delivered = stream.matched_count
        assert delivered > 0
        stream.mark_broken(at=engine.clock.now)
        assert not stream.connected
        engine.run_hours(2)
        assert stream.matched_count == delivered
        assert stream.undelivered_matches > 0
        assert stream.disconnected_at is not None

    def test_mark_broken_is_idempotent_and_closed_wins(
        self, fresh_world
    ):
        __, engine, __ = fresh_world(seed=34)
        stream = StreamingClient(engine).filter(["@x"])
        stream.mark_broken(at=1.0)
        stream.mark_broken(at=2.0)  # no-op; first drop time stands
        assert stream.disconnected_at == 1.0
        stream.disconnect()
        assert stream.closed
        assert not stream.broken  # closed supersedes broken
        stream.mark_broken(at=3.0)  # no-op on a closed stream
        assert not stream.broken

    def test_multiple_streams_independent(self, fresh_world):
        population, engine, __ = fresh_world(seed=35)
        tracked = self.pick_tracked_user(population)
        client = StreamingClient(engine)
        a = client.filter([f"@{tracked.screen_name}"])
        b = client.filter(["@nobody_here"])
        engine.run_hours(2)
        assert a.matched_count > 0
        assert b.matched_count == 0
