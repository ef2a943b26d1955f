"""Golden digests of fitted trees: every tree estimator, pinned bitwise.

Each ``trees`` digest is the ledger's canonical-JSON ``stable_digest``
of one fitted tree's five node arrays.  The tree digests were recorded
with the one-node-at-a-time histogram builder that preceded the
lockstep forest builder, so a refactor of the tree builder must
reproduce the old trees exactly.  An intended change to tree growth
shows up here as a reviewed digest update.  The three random-forest
cases also pin ``proba``, the forest's ``predict_proba`` on the golden
data, which the compiled node arena computes.

The data set is small but awkward: one constant column, a heavily tied
column, and duplicated rows (so bootstraps and ties hit the split
search).  ``REPRO_WORKERS=2`` reruns this module with a process pool,
which must not move a digest either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs.ledger import stable_digest


def golden_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """400 x 10 features, binary labels, and a continuous target."""
    rng = np.random.default_rng(2019)
    X = rng.normal(size=(400, 10))
    X[:, 4] = 3.0
    X[:, 6] = np.round(X[:, 6] * 2.0)
    X[360:] = X[:40]
    score = (
        X[:, 0]
        - 0.8 * X[:, 1]
        + 0.5 * X[:, 2] * X[:, 3]
        + rng.normal(scale=0.7, size=400)
    )
    y = (score > 0.3).astype(np.int64)
    y[360:] = y[:40]
    target = np.sin(X[:, 0]) + X[:, 1] ** 2 + rng.normal(scale=0.2, size=400)
    return X, y, target


def fitted(case: str):
    """The fitted estimator of one golden case."""
    X, y, target = golden_data()
    if case == "rf_sqrt_seed0":
        return RandomForestClassifier(n_estimators=12, seed=0).fit(X, y)
    if case == "rf_sqrt_seed7":
        return RandomForestClassifier(n_estimators=12, seed=7).fit(X, y)
    if case == "rf_all_features":
        return RandomForestClassifier(
            n_estimators=12,
            min_samples_leaf=3,
            max_depth=5,
            max_features=None,
        ).fit(X, y)
    if case == "decision_tree":
        return DecisionTreeClassifier().fit(X, y)
    if case == "regression_tree":
        return DecisionTreeRegressor(max_depth=4).fit(X, target)
    if case == "boosting":
        return GradientBoostingClassifier(n_estimators=20, subsample=0.7).fit(
            X, y
        )
    raise KeyError(case)


def tree_digest(tree) -> str:
    """``stable_digest`` of a tree's five node arrays."""
    return stable_digest(
        [
            tree.feature.tolist(),
            tree.threshold.tolist(),
            tree.left.tolist(),
            tree.right.tolist(),
            tree.value.tolist(),
        ]
    )


def compute(case: str) -> dict[str, str | list[str]]:
    """Fresh per-tree digests of one golden case, plus a forest's
    ``predict_proba`` on the golden data."""
    estimator = fitted(case)
    if hasattr(estimator, "tree_"):
        trees = [estimator.tree_]
    else:
        trees = estimator.trees_
    digests: dict[str, str | list[str]] = {
        "trees": [tree_digest(tree) for tree in trees]
    }
    if isinstance(estimator, RandomForestClassifier):
        X, __, __ = golden_data()
        digests["proba"] = stable_digest(estimator.predict_proba(X).tolist())
    return digests


GOLDEN: dict[str, dict[str, str | list[str]]] = {
    "boosting": {
        "trees": [
            "e32a27df8e2a", "4a5245b22f18", "d17846ee2b91", "7f2e04ef3b0c",
            "7f1b582068f9", "adf7276cf1af", "efd857e9d97d", "9c78eb892710",
            "7166bec5506f", "f6e7f0f23163", "1bd5e0457b78", "4e6f3d5f9ef2",
            "5c035aa4c144", "f20cf5b5fe1e", "451207bdbb2d", "7149b5055cb4",
            "27bfb554a59f", "3171ff662526", "acb040dfd9ca", "29822264215a",
        ],
    },
    "decision_tree": {
        "trees": ["357769d8e4d3"],
    },
    "regression_tree": {
        "trees": ["fe4c731954cc"],
    },
    "rf_all_features": {
        "trees": [
            "5853bd654f9d", "8e0fbe473568", "3cec06fb1565", "907c910225db",
            "0f6ac3c8dd6f", "7af37fcdfcb0", "2d9d218a1ed4", "048cb6abe3f0",
            "d209a537af5a", "5ecd58eaf518", "a97cfb54752f", "486b7211f603",
        ],
        "proba": "7eb0457eb6f9",
    },
    "rf_sqrt_seed0": {
        "trees": [
            "6875c7aa6de7", "1edd4da3416d", "cb96df011457", "61e0f20e673a",
            "6d6e4dca727b", "ce34e7d72167", "58c70c0ce05a", "de7aaab27247",
            "9346a2985dc4", "b6f24bd7155c", "22530c236ad2", "9c5bc34bccf9",
        ],
        "proba": "b07c7b6296bb",
    },
    "rf_sqrt_seed7": {
        "trees": [
            "de7aaab27247", "9346a2985dc4", "b6f24bd7155c", "22530c236ad2",
            "9c5bc34bccf9", "a7928d6c001f", "5e88b51de128", "68262b5ae701",
            "76c86a8480b4", "883343cdd419", "28b847654652", "94f0d3c714dc",
        ],
        "proba": "d1129ac40a29",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_tree_digests_match_golden(case):
    assert compute(case) == GOLDEN[case]
