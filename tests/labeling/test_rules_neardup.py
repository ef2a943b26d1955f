"""Tests for near-duplicate tweet grouping and the 11 rule policies."""

from repro.labeling.minhash import MinHasher
from repro.labeling.neardup import MIN_CONTENT_LENGTH, group_near_duplicates
from repro.labeling.rules import (
    SPAM_RULES,
    StreamContext,
    is_rule_spam,
    is_seed_account,
    matching_rules,
    rule_adult,
    rule_bot_automation,
    rule_deceptive,
    rule_friend_infiltrator,
    rule_malicious_promoter,
    rule_malicious_url,
    rule_meaningless,
    rule_money,
    rule_repetitive,
    symbol_affiliation_spam,
)
from repro.twittersim.clock import SECONDS_PER_DAY, days
from repro.twittersim.entities import (
    Mention,
    Tweet,
    TweetKind,
    TweetSource,
    UserProfile,
)


def profile(uid=1, verified=False) -> UserProfile:
    return UserProfile(
        user_id=uid,
        screen_name=f"user{uid}",
        name="U",
        created_at=-days(50),
        description="",
        friends_count=1,
        followers_count=1,
        statuses_count=1,
        listed_count=0,
        favourites_count=0,
        verified=verified,
    )


def tweet(text, at=0.0, uid=1, source=TweetSource.WEB, mentions=(), reply_at=None):
    return Tweet(
        tweet_id=int(at * 100) + uid * 10_000_000,
        created_at=at,
        user=profile(uid),
        text=text,
        kind=TweetKind.TWEET,
        source=source,
        mentions=mentions,
        urls=tuple(t for t in text.split() if t.startswith("http")),
        in_reply_to_tweet_id=1 if reply_at is not None else None,
        in_reply_to_created_at=reply_at,
    )


class TestNearDuplicates:
    def test_groups_same_slogan_different_urls(self):
        texts = [
            "win free cash now today http://free-cash.example/aaa 11",
            "win free cash now today http://free-cash.example/bbb 27",
            "a totally normal tweet about gardens and weather",
        ]
        tweets = [tweet(t, at=float(i)) for i, t in enumerate(texts)]
        groups = group_near_duplicates(tweets, MinHasher(seed=1))
        assert [0, 1] in [sorted(g) for g in groups]

    def test_short_tweets_skipped(self):
        tweets = [tweet("short one", at=0.0), tweet("short one", at=1.0)]
        assert all(len(t.text) < MIN_CONTENT_LENGTH for t in tweets)
        assert group_near_duplicates(tweets) == []

    def test_window_separates_groups(self):
        text = "identical content across two separate days in this test"
        tweets = [
            tweet(text, at=0.0),
            tweet(text, at=100.0),
            tweet(text, at=2 * SECONDS_PER_DAY),
        ]
        groups = group_near_duplicates(tweets)
        assert [0, 1] in [sorted(g) for g in groups]
        flattened = {i for g in groups for i in g}
        assert 2 not in flattened


class TestRules:
    def setup_method(self):
        self.ctx = StreamContext()

    def test_rule_malicious_url(self):
        assert rule_malicious_url(
            tweet("check http://free-cash.example/x"), self.ctx
        )
        assert not rule_malicious_url(
            tweet("check http://news.example/x"), self.ctx
        )

    def test_rule_repetitive(self):
        spam = "exact same message repeated many times"
        for i in range(3):
            self.ctx.observe(tweet(spam, at=float(i)))
        assert rule_repetitive(tweet(spam, at=9.0), self.ctx)
        assert not rule_repetitive(tweet("fresh message", at=9.0), self.ctx)

    def test_rule_deceptive(self):
        assert rule_deceptive(
            tweet("urgent verify your account password now"), self.ctx
        )
        assert not rule_deceptive(tweet("nice weather today"), self.ctx)

    def test_rule_money(self):
        assert rule_money(tweet("earn free cash instantly"), self.ctx)
        assert not rule_money(tweet("free weekend plans"), self.ctx)

    def test_rule_adult(self):
        assert rule_adult(tweet("hot singles near you"), self.ctx)

    def test_rule_meaningless(self):
        assert rule_meaningless(tweet("🔥🔥🔥 111 222 🔥"), self.ctx)
        assert not rule_meaningless(
            tweet("an actual sentence with real content"), self.ctx
        )

    def test_rule_bot_automation(self):
        template = "promo blast identical text for bots"
        self.ctx.observe(tweet(template, at=0.0))
        self.ctx.observe(tweet(template, at=1.0))
        fast_bot = tweet(
            template,
            at=50.0,
            source=TweetSource.THIRD_PARTY,
            reply_at=10.0,
        )
        assert rule_bot_automation(fast_bot, self.ctx)
        slow_human = tweet(
            template, at=50_000.0, source=TweetSource.WEB, reply_at=10.0
        )
        assert not rule_bot_automation(slow_human, self.ctx)

    def test_rule_malicious_promoter(self):
        assert rule_malicious_promoter(
            tweet("big discount deal http://click4gold.example/x"), self.ctx
        )
        assert not rule_malicious_promoter(
            tweet("big discount deal http://news.example/x"), self.ctx
        )

    def test_rule_friend_infiltrator(self):
        cold = tweet(
            "free bonus cash for you",
            mentions=(Mention(9, "user9"),),
        )
        assert rule_friend_infiltrator(cold, self.ctx)
        # After observed interaction the pair is warm.
        self.ctx.observe(cold)
        warm = tweet(
            "free bonus cash again",
            mentions=(Mention(9, "user9"),),
        )
        assert not rule_friend_infiltrator(warm, self.ctx)

    def test_eleven_rules_exist(self):
        assert len(SPAM_RULES) == 11

    def test_matching_rules_names(self):
        names = matching_rules(
            tweet("earn free cash instantly http://win-big.example/z"),
            self.ctx,
        )
        assert "rule_money" in names
        assert "rule_malicious_url" in names

    def test_benign_tweet_matches_nothing(self):
        benign = tweet("lovely walk in the park this morning")
        assert not is_rule_spam(benign, self.ctx)


class TestSeedsAndSymbols:
    def test_verified_accounts_are_seeds(self):
        verified = Tweet(
            tweet_id=1,
            created_at=0.0,
            user=profile(uid=1, verified=True),
            text="official announcement",
        )
        assert is_seed_account(verified)
        assert not is_seed_account(tweet("hello"))

    def test_symbol_affiliation_rule(self):
        group_tweets = [
            tweet("deal 💰 today", uid=1),
            tweet("deal 💰 tonight", uid=2),
            tweet("deal 💰 tomorrow", uid=3),
            tweet("unrelated clean text", uid=4),
        ]
        flagged = symbol_affiliation_spam(group_tweets, [[0, 1, 2, 3]])
        assert flagged == {0, 1, 2}

    def test_symbol_rule_needs_majority(self):
        group_tweets = [
            tweet("deal 💰 today", uid=1),
            tweet("clean one", uid=2),
            tweet("clean two", uid=3),
        ]
        assert symbol_affiliation_spam(group_tweets, [[0, 1, 2]]) == set()
