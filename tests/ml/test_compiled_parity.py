"""CompiledForest vs a per-tree walk: bitwise parity.

The flat-arena inference path must be **bit-identical** to walking the
``_FlatTree`` objects one at a time (:func:`per_tree_proba`) — same
probabilities, same verdicts — across seeds, class balances, worker
counts, degenerate forests (single tree, stumps), and any row-chunk
size.  The accumulation order (tree by tree, then one division) is the
load-bearing detail: these tests are the tripwire for anyone
"optimizing" it into a pairwise sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.compiled import CompiledForest, compile_forest
from repro.ml.forest import RandomForestClassifier


def per_tree_proba(forest: RandomForestClassifier, X: np.ndarray):
    """(n, 2) probabilities from one object-tree traversal per tree,
    leaf values summed in tree order and then divided once."""
    p1 = np.zeros(X.shape[0])
    for tree in forest.trees_:
        p1 += tree.predict_value(X)
    p1 /= len(forest.trees_)
    return np.column_stack([1.0 - p1, p1])


def make_data(seed: int = 0, n: int = 400, balance: float = 0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 10))
    y = (X[:, 0] + 0.5 * X[:, 3] > balance).astype(np.int64)
    return X, y


def fit_forest(seed=0, balance=0.0, workers=0, **kwargs):
    X, y = make_data(seed=seed, balance=balance)
    params = dict(n_estimators=12, max_depth=8, seed=seed, workers=workers)
    params.update(kwargs)
    forest = RandomForestClassifier(**params)
    forest.fit(X, y)
    return forest, X


class TestBitwiseParity:
    @pytest.mark.parametrize("seed", [0, 7, 23, 91])
    def test_across_seeds(self, seed):
        forest, X = fit_forest(seed=seed)
        assert np.array_equal(
            forest.compiled().predict_proba(X),
            per_tree_proba(forest, X),
        )

    @pytest.mark.parametrize("balance", [-1.5, 0.0, 1.5])
    def test_across_class_balances(self, balance):
        forest, X = fit_forest(balance=balance)
        assert np.array_equal(
            forest.compiled().predict_proba(X),
            per_tree_proba(forest, X),
        )

    @pytest.mark.parametrize("workers", [0, 4])
    def test_across_worker_counts(self, workers):
        forest, X = fit_forest(workers=workers)
        assert np.array_equal(
            forest.compiled().predict_proba(X),
            per_tree_proba(forest, X),
        )

    def test_predict_matches(self):
        forest, X = fit_forest()
        assert np.array_equal(
            forest.compiled().predict(X),
            (per_tree_proba(forest, X)[:, 1] >= 0.5).astype(
                np.int64
            ),
        )

    def test_default_predict_proba_uses_compiled_path(self):
        forest, X = fit_forest()
        assert np.array_equal(
            forest.predict_proba(X), per_tree_proba(forest, X)
        )


class TestDegenerateForests:
    def test_single_tree(self):
        forest, X = fit_forest(n_estimators=1)
        assert np.array_equal(
            forest.compiled().predict_proba(X),
            per_tree_proba(forest, X),
        )

    def test_stumps(self):
        forest, X = fit_forest(max_depth=1)
        assert np.array_equal(
            forest.compiled().predict_proba(X),
            per_tree_proba(forest, X),
        )

    def test_single_class_forest_is_all_root_leaves(self):
        X, __ = make_data()
        forest = RandomForestClassifier(n_estimators=5, seed=0, workers=0)
        forest.fit(X, np.zeros(len(X), dtype=np.int64))
        compiled = forest.compiled()
        assert np.all(compiled.feature[compiled.roots] < 0)
        assert np.array_equal(
            compiled.predict_proba(X), per_tree_proba(forest, X)
        )

    def test_values_on_split_thresholds(self):
        # Every value is one of the arena's own thresholds for its
        # feature, so visited splits see exact ties; each tree's root
        # split sees its own threshold on one row.
        forest, X = fit_forest()
        compiled = forest.compiled()
        internal = compiled.feature >= 0
        rows = X[:200].copy()
        for j in range(rows.shape[1]):
            cuts = compiled.threshold[internal & (compiled.feature == j)]
            if cuts.size:
                # Feature j walks its cuts at stride j + 1, so columns
                # do not move in step.
                rows[:, j] = cuts[np.arange(len(rows)) * (j + 1) % cuts.size]
        roots = compiled.roots[internal[compiled.roots]]
        rows[np.arange(len(roots)), compiled.feature[roots]] = (
            compiled.threshold[roots]
        )
        assert np.array_equal(
            compiled.predict_proba(rows), per_tree_proba(forest, rows)
        )

    def test_empty_input(self):
        forest, __ = fit_forest()
        proba = forest.compiled().predict_proba(np.empty((0, 10)))
        assert proba.shape == (0, 2)


class TestRowChunking:
    @pytest.mark.parametrize("row_chunk", [1, 7, 64, 100_000])
    def test_any_chunk_size_is_bitwise_stable(self, row_chunk):
        forest, X = fit_forest()
        compiled = forest.compiled()
        assert np.array_equal(
            compiled.predict_proba(X, row_chunk=row_chunk),
            per_tree_proba(forest, X),
        )


class TestCompilation:
    def test_arena_shape_and_roots(self):
        forest, __ = fit_forest()
        compiled = compile_forest(forest)
        assert isinstance(compiled, CompiledForest)
        assert compiled.n_trees == len(forest.trees_)
        assert compiled.n_nodes == sum(
            len(tree.feature) for tree in forest.trees_
        )
        assert compiled.roots.shape == (compiled.n_trees,)
        # Leaves keep their -1 sentinels; internal children are valid
        # arena indices.
        leaves = compiled.feature < 0
        assert np.all(compiled.left[leaves] == -1)
        assert np.all(compiled.right[leaves] == -1)
        internal = ~leaves
        assert np.all(compiled.left[internal] >= 0)
        assert np.all(compiled.right[internal] < compiled.n_nodes)

    def test_compiled_is_cached_until_refit(self):
        forest, X = fit_forest()
        first = forest.compiled()
        assert forest.compiled() is first
        y = (X[:, 0] > 0).astype(np.int64)
        forest.fit(X, y)
        assert forest.compiled() is not first

    def test_unfitted_forest_is_rejected(self):
        forest = RandomForestClassifier(n_estimators=3, seed=0)
        with pytest.raises(Exception):
            forest.compiled()

    def test_feature_count_is_validated(self):
        forest, __ = fit_forest()
        with pytest.raises(ValueError):
            forest.compiled().predict_proba(np.zeros((4, 3)))
