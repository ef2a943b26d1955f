"""Perf gate: compiled-forest inference beats the object-tree walk 4x.

ROADMAP 5b's acceptance bar, measured on the workload the service
actually runs: many small batches (the service scores
``DEFAULT_BATCH_SIZE``-row batches as they flush, where per-tree
dispatch overhead dominates the object path).  The compiled arena's
advantage shrinks as batches grow — at tens of thousands of rows both
paths are element-work bound — so the gate pins the deployment shape,
not a synthetic giant matrix.  Parity is asserted in the same breath:
a fast wrong answer must fail here, not in production.

Both paths run single-threaded in one process, so two CPUs suffice;
skipped on one CPU, where a loaded core measures scheduler noise.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.ml.base import check_X
from repro.ml.forest import RandomForestClassifier
from repro.obs import reset, set_enabled

MIN_CPUS = 2
MIN_SPEEDUP = 4.0
#: The service's scoring shape: a stream of small flush batches.
BATCH_ROWS = 256
N_BATCHES = 60

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < MIN_CPUS,
    reason=f"needs >= {MIN_CPUS} CPUs for a meaningful speedup",
)


@pytest.fixture(autouse=True)
def quiet_obs():
    # Timing runs: keep span/event bookkeeping out of the comparison.
    reset()
    set_enabled(False)
    yield
    reset()
    set_enabled(True)


def per_tree_walk(forest: RandomForestClassifier, X: np.ndarray):
    """The object-tree path: one traversal per tree, leaf values summed
    in tree order, with the same input check as ``predict_proba``."""
    X = check_X(X, forest.n_features_)
    p1 = np.zeros(X.shape[0])
    for tree in forest.trees_:
        p1 += tree.predict_value(X)
    p1 /= len(forest.trees_)
    return np.column_stack([1.0 - p1, p1])


def _fitted_forest() -> RandomForestClassifier:
    rng = np.random.default_rng(19)
    X = rng.normal(size=(1_500, 12))
    y = (X[:, 0] + 0.4 * X[:, 3] - 0.2 * X[:, 7] > 0).astype(np.int64)
    forest = RandomForestClassifier(
        n_estimators=70, max_depth=12, seed=5, workers=0
    )
    forest.fit(X, y)
    return forest


def _batches() -> list[np.ndarray]:
    rng = np.random.default_rng(23)
    return [
        rng.normal(size=(BATCH_ROWS, 12)) for __ in range(N_BATCHES)
    ]


def test_compiled_inference_speedup_with_identical_probabilities():
    forest = _fitted_forest()
    compiled = forest.compiled()
    batches = _batches()

    # Warm both paths (first-touch allocations out of the timing).
    per_tree_walk(forest, batches[0])
    compiled.predict_proba(batches[0])

    start = time.perf_counter()
    reference = [per_tree_walk(forest, X) for X in batches]
    t_trees = time.perf_counter() - start

    start = time.perf_counter()
    fast = [compiled.predict_proba(X) for X in batches]
    t_compiled = time.perf_counter() - start

    for ref, got in zip(reference, fast):
        assert np.array_equal(ref, got)

    speedup = t_trees / t_compiled
    assert speedup >= MIN_SPEEDUP, (
        f"compiled inference speedup {speedup:.2f}x on "
        f"{N_BATCHES}x{BATCH_ROWS}-row batches "
        f"(trees {t_trees:.3f}s, compiled {t_compiled:.3f}s)"
    )
