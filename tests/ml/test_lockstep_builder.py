"""The lockstep tree builder against the one-node-at-a-time reference.

``_reference_build`` is the histogram builder that grew every tree of
this package before the lockstep builder replaced it: one node per
split search, depth first, duplicates kept as separate rows.  The
lockstep builder must reproduce its node arrays exactly, for both
criteria, bootstrap (weighted) and plain roots, every parameter the
estimators pass, and any step size.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ml.tree as tree_module
from repro.ml.tree import _FlatTree, _LockstepBuilder, quantile_bin


def _reference_build(
    codes: np.ndarray,
    edges: list[np.ndarray],
    y: np.ndarray,
    indices: np.ndarray,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | None,
    rng: np.random.Generator,
) -> _FlatTree:
    """Grow one tree over ``indices`` one node at a time."""
    y = y.astype(np.float64)
    n_features = codes.shape[1]

    def is_pure(y_node: np.ndarray, y_total: float) -> bool:
        if criterion == "gini":
            mean = y_total / len(y_node)
            return mean == 0.0 or mean == 1.0
        return bool(np.all(y_node == y_node[0]))

    def candidate_features() -> np.ndarray:
        if max_features is None or max_features >= n_features:
            return np.arange(n_features)
        return rng.choice(n_features, size=max_features, replace=False)

    def best_split(node_idx: np.ndarray, y_node: np.ndarray):
        n = len(node_idx)
        msl = min_samples_leaf
        y_sq = y_node * y_node if criterion == "mse" else None
        sub = codes[node_idx]
        y_sum = y_node.sum()
        y_sq_sum = float(y_sq.sum()) if y_sq is not None else 0.0
        cf = candidate_features()
        n_cf = len(cf)
        max_bins = max((len(edges[f]) + 1 for f in cf), default=0)
        if max_bins < 2:
            return None
        sub_cf = sub[:, cf] if n_cf != sub.shape[1] else sub
        flat = (
            sub_cf.astype(np.int64)
            + np.arange(n_cf, dtype=np.int64) * max_bins
        ).ravel()
        n_slots = n_cf * max_bins
        counts = (
            np.bincount(flat, minlength=n_slots)
            .astype(np.float64)
            .reshape(n_cf, max_bins)
        )
        sums = np.bincount(
            flat, weights=np.repeat(y_node, n_cf), minlength=n_slots
        ).reshape(n_cf, max_bins)
        left_n = counts.cumsum(axis=1)[:, :-1]
        right_n = n - left_n
        valid = (left_n >= msl) & (right_n >= msl)
        if not valid.any():
            return None
        left_sum = sums.cumsum(axis=1)[:, :-1]
        right_sum = y_sum - left_sum
        with np.errstate(divide="ignore", invalid="ignore"):
            if criterion == "gini":
                p_left = left_sum / left_n
                p_right = right_sum / right_n
                score = (
                    left_n * 2 * p_left * (1 - p_left)
                    + right_n * 2 * p_right * (1 - p_right)
                ) / n
            else:
                sq = np.bincount(
                    flat, weights=np.repeat(y_sq, n_cf), minlength=n_slots
                ).reshape(n_cf, max_bins)
                left_sq = sq.cumsum(axis=1)[:, :-1]
                right_sq = y_sq_sum - left_sq
                score = (
                    left_sq
                    - left_sum * left_sum / left_n
                    + right_sq
                    - right_sum * right_sum / right_n
                )
        score = np.where(valid, score, np.inf)
        b_of = score.argmin(axis=1)
        mins = score[np.arange(n_cf), b_of]
        j = int(mins.argmin())
        if not np.isfinite(mins[j]):
            return None
        f = int(cf[j])
        b = int(b_of[j])
        left_mask = sub[:, f] <= b
        if not left_mask.any() or left_mask.all():
            return None
        return f, b, left_mask

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(np.asarray(indices), 0)]
    slots = [new_node()]
    while stack:
        node_idx, depth = stack.pop()
        slot = slots.pop()
        y_node = y[node_idx]
        y_total = float(y_node.sum())
        value[slot] = y_total / len(y_node)
        if (
            depth >= max_depth
            or len(node_idx) < min_samples_split
            or is_pure(y_node, y_total)
        ):
            continue
        split = best_split(node_idx, y_node)
        if split is None:
            continue
        f, bin_cut, left_mask = split
        feature[slot] = f
        threshold[slot] = float(edges[f][bin_cut])
        left_slot = new_node()
        right_slot = new_node()
        left[slot] = left_slot
        right[slot] = right_slot
        stack.append((node_idx[left_mask], depth + 1))
        slots.append(left_slot)
        stack.append((node_idx[~left_mask], depth + 1))
        slots.append(right_slot)
    return _FlatTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def awkward_data(n: int = 300, seed: int = 4):
    """Ties, a constant column, duplicated rows, labels and targets."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8))
    X[:, 2] = -1.0
    X[:, 5] = np.round(X[:, 5])
    X[n - 30 :] = X[:30]
    y = (X[:, 0] + X[:, 1] * X[:, 3] + rng.normal(size=n) > 0.2).astype(
        np.int64
    )
    target = X[:, 0] ** 2 - X[:, 4] + rng.normal(scale=0.3, size=n)
    return X, y, target


def assert_same_trees(got: list[_FlatTree], want: list[_FlatTree]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def grow_both(
    X, target, criterion, roots, rng_seeds, max_bins=64, **params
) -> tuple[list[_FlatTree], list[_FlatTree]]:
    """(lockstep trees, reference trees) over the same roots and seeds."""
    codes, edges = quantile_bin(X, max_bins)
    builder = _LockstepBuilder(codes, edges, target, criterion, **params)
    got = builder.grow(
        (root, np.random.default_rng(s)) for root, s in zip(roots, rng_seeds)
    )
    want = [
        _reference_build(
            codes,
            edges,
            target,
            root,
            criterion,
            rng=np.random.default_rng(s),
            **params,
        )
        for root, s in zip(roots, rng_seeds)
    ]
    return got, want


def bootstraps(n: int, count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=n) for __ in range(count)]


PARAMS = [
    dict(max_depth=700, min_samples_split=2, min_samples_leaf=1,
         max_features=2),
    dict(max_depth=5, min_samples_split=2, min_samples_leaf=3,
         max_features=None),
    dict(max_depth=3, min_samples_split=20, min_samples_leaf=1,
         max_features=5),
    dict(max_depth=700, min_samples_split=2, min_samples_leaf=7,
         max_features=8),
    dict(max_depth=0, min_samples_split=2, min_samples_leaf=1,
         max_features=3),
]


class TestGini:
    @pytest.mark.parametrize("params", PARAMS)
    def test_bootstrap_forest(self, params):
        X, y, __ = awkward_data()
        roots = bootstraps(len(y), 9)
        got, want = grow_both(X, y, "gini", roots, range(9), **params)
        assert_same_trees(got, want)

    @pytest.mark.parametrize("params", PARAMS)
    def test_plain_rows(self, params):
        X, y, __ = awkward_data()
        roots = [np.arange(len(y))]
        got, want = grow_both(X, y, "gini", roots, [5], **params)
        assert_same_trees(got, want)

    def test_pure_and_single_row_roots(self):
        X, y, __ = awkward_data()
        spam = np.flatnonzero(y == 1)
        roots = [spam, spam[:1], np.arange(len(y))]
        got, want = grow_both(
            X, y, "gini", roots, [1, 2, 3], **PARAMS[0]
        )
        assert_same_trees(got, want)
        assert got[0].n_nodes == got[1].n_nodes == 1

    def test_all_constant_features(self):
        X, y, __ = awkward_data()
        X = np.ones_like(X)
        roots = bootstraps(len(y), 3)
        got, want = grow_both(X, y, "gini", roots, range(3), **PARAMS[0])
        assert_same_trees(got, want)
        assert all(t.n_nodes == 1 for t in got)

    def test_many_bins(self):
        X, y, __ = awkward_data(n=600)
        roots = bootstraps(len(y), 4)
        got, want = grow_both(
            X, y, "gini", roots, range(4), max_bins=1000, **PARAMS[0]
        )
        assert_same_trees(got, want)


class TestMse:
    @pytest.mark.parametrize("params", PARAMS)
    def test_plain_rows(self, params):
        X, __, target = awkward_data()
        roots = [np.arange(len(target))]
        got, want = grow_both(X, target, "mse", roots, [3], **params)
        assert_same_trees(got, want)

    def test_unsorted_subsamples(self):
        """Boosting's row subsample: distinct rows in random order."""
        X, __, target = awkward_data()
        rng = np.random.default_rng(8)
        roots = [rng.choice(len(target), size=210, replace=False)
                 for __ in range(4)]
        got, want = grow_both(
            X, target, "mse", roots, range(4), **PARAMS[1]
        )
        assert_same_trees(got, want)

    def test_repeated_rows_stay_separate(self):
        X, __, target = awkward_data()
        roots = bootstraps(len(target), 3, seed=2)
        got, want = grow_both(
            X, target, "mse", roots, range(3), **PARAMS[0]
        )
        assert_same_trees(got, want)

    def test_constant_target(self):
        X, __, target = awkward_data()
        target = np.full_like(target, 2.5)
        got, want = grow_both(
            X, target, "mse", [np.arange(len(target))], [0], **PARAMS[0]
        )
        assert_same_trees(got, want)
        assert got[0].n_nodes == 1


class TestStepLimits:
    """The step caps change how nodes are batched, never the trees."""

    def test_tiny_code_cap(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_STEP_CODES", 100)
        X, y, __ = awkward_data()
        roots = bootstraps(len(y), 6, seed=3)
        got, want = grow_both(X, y, "gini", roots, range(6), **PARAMS[0])
        assert_same_trees(got, want)

    def test_one_node_per_step(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_STEP_CELLS", 1)
        X, __, target = awkward_data()
        roots = bootstraps(len(target), 3, seed=5)
        got, want = grow_both(
            X, target, "mse", roots, range(3), **PARAMS[3]
        )
        assert_same_trees(got, want)

    def test_trees_do_not_depend_on_their_neighbours(self):
        X, y, __ = awkward_data()
        roots = bootstraps(len(y), 5, seed=6)
        codes, edges = quantile_bin(X, 64)
        builder = _LockstepBuilder(codes, edges, y, "gini", **PARAMS[0])
        together = builder.grow(
            (root, np.random.default_rng(s)) for s, root in enumerate(roots)
        )
        alone = [
            builder.grow([(root, np.random.default_rng(s))])[0]
            for s, root in enumerate(roots)
        ]
        assert_same_trees(together, alone)


def test_unknown_criterion_rejected():
    codes, edges = quantile_bin(np.zeros((4, 1)), 8)
    with pytest.raises(ValueError):
        _LockstepBuilder(codes, edges, np.zeros(4), "entropy", 3, 2, 1, None)
