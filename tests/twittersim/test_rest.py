"""Tests for the REST API."""

import pytest

from repro.twittersim.api.rest import RestClient
from repro.twittersim.errors import UserNotFoundError, UserSuspendedError


class TestUserLookups:
    def test_get_user_returns_snapshot(self, warm_world):
        population, __, rest = warm_world
        uid = population.order[0]
        profile = rest.get_user(uid)
        assert profile.user_id == uid
        names = population.cols.column("screen_name")
        assert profile.screen_name == names[population.index_of[uid]]

    def test_get_unknown_user_raises(self, warm_world):
        __, __, rest = warm_world
        with pytest.raises(UserNotFoundError):
            rest.get_user(10**9)

    def test_suspended_user_raises(self, fresh_world):
        population, engine, rest = fresh_world(seed=41)
        uid = population.order[0]
        population.cols.column("suspended")[population.index_of[uid]] = True
        with pytest.raises(UserSuspendedError):
            rest.get_user(uid)
        assert rest.is_suspended(uid)

    def test_lookup_users_drops_suspended(self, fresh_world):
        population, __, rest = fresh_world(seed=42)
        ids = population.order[:10]
        population.cols.column("suspended")[population.index_of[ids[3]]] = True
        profiles = rest.lookup_users(ids)
        returned = {p.user_id for p in profiles}
        assert ids[3] not in returned
        assert len(returned) == 9

    def test_lookup_batch_limit(self, warm_world):
        __, __, rest = warm_world
        with pytest.raises(ValueError):
            rest.lookup_users(list(range(RestClient.LOOKUP_BATCH + 1)))

    def test_sample_user_ids_live_only(self, fresh_world):
        population, __, rest = fresh_world(seed=43)
        suspended = population.cols.column("suspended")
        index_of = population.index_of
        for uid in population.order[:50]:
            suspended[index_of[uid]] = True
        sample = rest.sample_user_ids(100)
        assert len(sample) == 100
        assert not any(suspended[index_of[uid]] for uid in sample)


class TestTimelinesAndSearch:
    def test_user_timeline_returns_authored(self, warm_world):
        __, engine, rest = warm_world
        recent = list(engine.recent_tweets())
        author = recent[-1].user.user_id
        timeline = rest.user_timeline(author)
        assert timeline
        assert all(t.user.user_id == author for t in timeline)

    def test_search_by_hashtag(self, warm_world):
        __, engine, rest = warm_world
        tagged = [t for t in engine.recent_tweets() if t.hashtags]
        assert tagged
        tag = tagged[0].hashtags[0]
        results = rest.search_recent(hashtag=tag, limit=50)
        assert results
        assert all(tag in t.hashtags for t in results)

    def test_search_by_topic(self, warm_world):
        __, engine, rest = warm_world
        topical = [t for t in engine.recent_tweets() if t.topic]
        assert topical
        topic = topical[0].topic
        results = rest.search_recent(topic=topic, limit=50)
        assert results
        assert all(t.topic == topic for t in results)

    def test_search_newest_first(self, warm_world):
        __, __, rest = warm_world
        results = rest.recent_sample(200)
        assert results == sorted(results, key=lambda t: t.created_at)

    def test_recent_sample_respects_limit(self, warm_world):
        __, __, rest = warm_world
        assert len(rest.recent_sample(10)) == 10


class TestImagesAndTrends:
    def test_get_profile_image(self, warm_world):
        population, __, rest = warm_world
        uid = population.order[0]
        row = population.index_of[uid]
        image_id = population.cols.column("profile_image_id")[row]
        image = rest.get_profile_image(image_id)
        assert image.ndim == 2

    def test_trending_sets_shape(self, warm_world):
        __, __, rest = warm_world
        trends = rest.trending_sets()
        assert set(trends) == {"trending_up", "trending_down", "popular"}

