"""Golden digests of each ground-truth labeling stage's own output.

``test_scoring_digests.py`` pins Table III, whose per-stage counts are
what a stage adds after the earlier stages have masked it.  These
digests pin every stage unmasked, over the same four worlds (``micro``
and ``tiny``, seeds 7 and 3) and over two capture sets of each: the
ground-truth collection (``gt_*``) and the full-plan sweep
(``sweep_*``).  Per capture set, tweets in time order (the labeler's
order):

* ``rules`` — (tweet id, ``matching_rules``) for every tweet, each
  evaluated before it is observed and every tweet observed, so the
  repetition and bot rules see the whole stream;
* ``neardup`` — the ``group_near_duplicates`` groups, as tweet ids;
* ``minhash`` — the description ``group_by_signature`` groups over
  the distinct authors in first-appearance order, as user ids;
* ``tweet_method`` / ``user_method`` — which stage labeled each tweet
  and user in ``label_ground_truth``.

In these worlds almost every text is distinct, so the repetition and
bot-automation rules (2 and 8) never fire on one pass.
``sweep_rules_x4`` therefore digests ``rules`` over the sweep played
four times in a row: every text then repeats, rule 8 fires from the
second pass and rule 2 in the fourth.

Both MinHash groupings use a hasher seeded with the world seed, as the
labeler's is.  ``REPRO_WORKERS=2`` reruns this module with the
signatures fanned out over a pool, which must not move a digest.
"""

from __future__ import annotations

import pytest

from repro.analysis.bench import workload_scale
from repro.core import PseudoHoneypotExperiment
from repro.labeling.minhash import MinHasher, group_by_signature
from repro.labeling.neardup import group_near_duplicates
from repro.labeling.rules import StreamContext, matching_rules
from repro.obs.ledger import stable_digest


def time_ordered(run) -> list:
    """A capture set's tweets in the labeler's order."""
    return sorted(
        (capture.tweet for capture in run.captures),
        key=lambda tweet: tweet.created_at,
    )


def rules_digest(tweets: list) -> str:
    """``matching_rules`` of each tweet, every tweet observed after."""
    ctx = StreamContext()
    fired = []
    for tweet in tweets:
        fired.append([tweet.tweet_id, matching_rules(tweet, ctx)])
        ctx.observe(tweet)
    return stable_digest(fired)


def stage_digests(experiment, run, seed: int) -> dict[str, str]:
    """Each labeling stage's output over one capture set."""
    tweets = time_ordered(run)
    neardup = group_near_duplicates(tweets, MinHasher(seed=seed))
    authors = list(
        {tweet.user.user_id: tweet.user for tweet in tweets}.values()
    )
    minhash = group_by_signature(
        [author.description for author in authors], MinHasher(seed=seed)
    )
    dataset = experiment.label_ground_truth(run)
    return {
        "rules": rules_digest(tweets),
        "neardup": stable_digest(
            [[tweets[i].tweet_id for i in group] for group in neardup]
        ),
        "minhash": stable_digest(
            [[authors[i].user_id for i in group] for group in minhash]
        ),
        "tweet_method": stable_digest(sorted(dataset.tweet_method.items())),
        "user_method": stable_digest(sorted(dataset.user_method.items())),
    }


def compute(case: str) -> dict[str, str]:
    """Fresh stage digests of one golden case (``<scale>/seed<N>``)."""
    scale_name, seed_part = case.split("/")
    seed = int(seed_part.removeprefix("seed"))
    scale = workload_scale(scale_name, seed=seed)
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=0
    )
    experiment.warm_up(scale.warmup_hours)
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    digests = {
        f"gt_{name}": digest
        for name, digest in stage_digests(
            experiment, collection, seed
        ).items()
    }
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    digests.update(
        (f"sweep_{name}", digest)
        for name, digest in stage_digests(experiment, sweep, seed).items()
    )
    digests["sweep_rules_x4"] = rules_digest(time_ordered(sweep) * 4)
    return digests


GOLDEN: dict[str, dict[str, str]] = {
    "micro/seed7": {
        "gt_rules": "597e274e9d9a",
        "gt_neardup": "08fedb2edc27",
        "gt_minhash": "6f4b3bf8461e",
        "gt_tweet_method": "3e9bf8aa6bab",
        "gt_user_method": "edf2edec5bc7",
        "sweep_rules": "bc12ed0623b4",
        "sweep_neardup": "b3596aff3d0e",
        "sweep_minhash": "895074cf0608",
        "sweep_tweet_method": "3d862c29e4da",
        "sweep_user_method": "80c8c976bdc9",
        "sweep_rules_x4": "4416411bcb91",
    },
    "micro/seed3": {
        "gt_rules": "8061d7e16065",
        "gt_neardup": "f9617164dc59",
        "gt_minhash": "419d9862371c",
        "gt_tweet_method": "020127354568",
        "gt_user_method": "da6783b9b903",
        "sweep_rules": "7c8a8dd45632",
        "sweep_neardup": "17fd98a963e3",
        "sweep_minhash": "e5dfcb613ad8",
        "sweep_tweet_method": "1b5299f9601f",
        "sweep_user_method": "6c2a6020f059",
        "sweep_rules_x4": "d0ac547a87eb",
    },
    "tiny/seed7": {
        "gt_rules": "cedb77ff460c",
        "gt_neardup": "c1971c377301",
        "gt_minhash": "9849c98feac8",
        "gt_tweet_method": "cdc28f3adead",
        "gt_user_method": "9d62cef624e5",
        "sweep_rules": "77879da730ed",
        "sweep_neardup": "9a4fdd6e27fe",
        "sweep_minhash": "5e200936337f",
        "sweep_tweet_method": "a9c3de8cefe7",
        "sweep_user_method": "11c6efcf2257",
        "sweep_rules_x4": "737b38ef31f8",
    },
    "tiny/seed3": {
        "gt_rules": "10952a598596",
        "gt_neardup": "eedbd4f865ea",
        "gt_minhash": "da07a306090f",
        "gt_tweet_method": "be55ff119856",
        "gt_user_method": "844554c78e9c",
        "sweep_rules": "6d7f691cf73c",
        "sweep_neardup": "c7408d5627ca",
        "sweep_minhash": "257ba9daa80d",
        "sweep_tweet_method": "5023c8fb0050",
        "sweep_user_method": "4f7573c4492d",
        "sweep_rules_x4": "44f4e980b213",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_label_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
