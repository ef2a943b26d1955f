"""Golden digests of the scoring path: training, batch and service.

Each digest is the ledger's canonical-JSON ``stable_digest`` of one
artifact of the paper's pipeline, run on an ``analysis.bench`` workload
world (``micro`` and ``tiny``, two seeds each).  Artifacts are listed in
pipeline order:

* ``train_X`` / ``train_y`` — the feature matrix and labels the forest
  is fitted on (read off ``RandomForestClassifier.fit``);
* ``verdicts`` / ``spammers`` — ``classify`` over the full-plan sweep:
  (tweet id, verdict) in scoring order, and the flagged senders;
* ``replay`` — ``SnifferService.replay`` of the same sweep from the
  freshly trained detector, at ``batch_size=2000`` with the flush
  deadline out of reach: (tweet id, verdict, spam probability);
* ``table6`` — the Table VI ``ranking_payload(pge_by_sample(...))``.

Every case labels at least 8 spams and flags at least 49 (micro seed 11,
for one, labels none, which would pin a degenerate forest).  The
digests were recorded with three separate extract → score → feedback
loops (training, ``classify`` and the service's flush) before they were
folded into one kernel, so a refactor of that kernel must reproduce
them exactly.  ``REPRO_WORKERS=2`` reruns this module with a pooled
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
        "train_X": "f2360fba3054",
        "train_y": "7464b1331988",
        "verdicts": "ba19a34ea8d7",
        "spammers": "88661ceeeeec",
        "replay": "5e716592c52d",
        "table6": "6b11e538bf57",
    },
    "micro/seed3": {
        "train_X": "127c1377bcd6",
        "train_y": "419503abc999",
        "verdicts": "84a11997b3db",
        "spammers": "af5f91be23a6",
        "replay": "d866a0c0d576",
        "table6": "ec863d8254ab",
    },
    "tiny/seed7": {
        "train_X": "79d24989d714",
        "train_y": "8cb4ba2613d2",
        "verdicts": "6e39cf5e62c1",
        "spammers": "9789567deef0",
        "replay": "0b9ef9e0f23b",
        "table6": "a1fe1ca59c1a",
    },
    "tiny/seed3": {
        "train_X": "1be5c738f239",
        "train_y": "3f0ea195bcf3",
        "verdicts": "ef20842afb8f",
        "spammers": "34bae7b76327",
        "replay": "d8bb7d094e9f",
        "table6": "5604f6cd5095",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_scoring_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
