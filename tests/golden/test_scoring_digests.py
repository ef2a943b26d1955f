"""Golden digests of the scoring path: training, batch and service.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one
artifact of the paper's pipeline, run on an ``analysis.bench`` workload
world (``micro`` and ``tiny``, two seeds each).  Artifacts are listed in
pipeline order:

* ``table3`` — the Table III rows of the labeled ground truth
  (``LabeledDataset.table_rows``: per-stage spams and spammers);
* ``train_X`` / ``train_y`` — the feature matrix and labels the forest
  is fitted on (read off ``RandomForestClassifier.fit``);
* ``verdicts`` / ``spammers`` — ``classify`` over the full-plan sweep:
  (tweet id, verdict) in scoring order, and the flagged senders;
* ``replay`` — ``SnifferService.replay`` of the same sweep from the
  freshly trained detector, at ``batch_size=2000`` with the flush
  deadline out of reach: (tweet id, verdict, spam probability);
* ``table6`` — the Table VI ``ranking_payload(pge_by_sample(...))``.

Every case labels at least 5 spams and flags at least 27 (tiny seed 3
is the floor; micro seed 11, for one, labels none, which would pin a
degenerate forest).  The digests were first recorded with three
separate extract → score → feedback loops (training, ``classify`` and
the service's flush) before they were folded into one kernel, so a
refactor of that kernel must reproduce them exactly.  They were
re-recorded once since, when default worlds moved to the one-shard
engine stream.  ``REPRO_WORKERS=2`` reruns this module with a pooled
forest fit, which must not move a digest either.
"""

from __future__ import annotations

import copy
from unittest import mock

import pytest

from repro.analysis.bench import workload_scale
from repro.core import PseudoHoneypotDetector, PseudoHoneypotExperiment
from repro.core.pge import pge_by_sample, ranking_payload
from repro.ml.forest import RandomForestClassifier
from repro.obs.ledger import stable_digest
from repro.service.sniffer import SnifferService

#: Replay's flush deadline: beyond any stream's span, so every service
#: batch but the last is full and the chunking matches ``classify``'s.
NO_DEADLINE_S = 1e12


def compute(case: str) -> dict[str, str]:
    """Fresh artifact digests of one golden case (``<scale>/seed<N>``)."""
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
    dataset = experiment.label_ground_truth(collection)
    # Fitted outside the experiment's workers=0 scope, so the forest
    # fit follows REPRO_WORKERS.
    with mock.patch.object(
        RandomForestClassifier,
        "fit",
        autospec=True,
        side_effect=RandomForestClassifier.fit,
    ) as fit:
        detector = PseudoHoneypotDetector().fit_from_ground_truth(
            collection.captures, dataset
        )
    __, X, y = fit.call_args.args
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    service = SnifferService(
        copy.deepcopy(detector),
        batch_size=2_000,
        flush_interval_s=NO_DEADLINE_S,
    )
    outcome = experiment.classify(detector, sweep)
    service.replay(sweep.captures)
    return {
        "table3": stable_digest(dataset.table_rows()),
        "train_X": stable_digest(X.tolist()),
        "train_y": stable_digest(y.tolist()),
        "verdicts": stable_digest(
            [
                [c.tweet.tweet_id, int(spam)]
                for c, spam in zip(outcome.captures, outcome.is_spam)
            ]
        ),
        "spammers": stable_digest(sorted(outcome.spammer_ids)),
        "replay": stable_digest(
            [
                [r.tweet_id, r.is_spam, r.spam_probability]
                for r in service.results
            ]
        ),
        "table6": stable_digest(
            ranking_payload(pge_by_sample(outcome, sweep.exposure))
        ),
    }


GOLDEN: dict[str, dict[str, str]] = {
    "micro/seed7": {
        "table3": "7326cfb5e72c",
        "train_X": "2b45a6a99bd0",
        "train_y": "d1dc36026ee2",
        "verdicts": "1740a4ee744b",
        "spammers": "a7930196a204",
        "replay": "c97a3763fe9a",
        "table6": "07873f75f2c7",
    },
    "micro/seed3": {
        "table3": "53fc0b646e4e",
        "train_X": "c2d8fe3eceb2",
        "train_y": "fa16c2c51540",
        "verdicts": "3524ddf4cccf",
        "spammers": "a1f0add6d815",
        "replay": "2dda2da9f423",
        "table6": "8502167aaa15",
    },
    "tiny/seed7": {
        "table3": "e8063913225c",
        "train_X": "d0a96eb3a6b9",
        "train_y": "39030e41d36e",
        "verdicts": "b9cc1fd06ae2",
        "spammers": "1df085a042e1",
        "replay": "9dc1ea42a06b",
        "table6": "9a0d248e0181",
    },
    "tiny/seed3": {
        "table3": "0550d3d293bb",
        "train_X": "ea0f2b0bf034",
        "train_y": "7e636714af00",
        "verdicts": "e0fa491cca1d",
        "spammers": "895971c40a63",
        "replay": "7ea0459006ea",
        "table6": "225595dc49f0",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_scoring_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
