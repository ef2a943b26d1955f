"""Compiled forest inference: fitted trees fused into flat node arrays.

A fitted :class:`~repro.ml.forest.RandomForestClassifier` stores each
tree as a :class:`~repro.ml.tree._FlatTree` — already array-encoded,
but predicted one tree at a time.  At 70 trees and a few hundred
levels that is ~70 Python-level traversal loops per batch, each paying
a handful of numpy dispatches per level.  This module concatenates
every tree's node arrays into one shared arena and traverses **all
trees of all rows at once**: one flat cursor array of shape
``(n_rows * n_trees,)`` walks the arena level-synchronously, so the
whole forest costs roughly ``max_depth`` numpy dispatch rounds instead
of ``n_trees * max_depth``.

Bit-identity contract: walking the trees one at a time
(``_FlatTree.predict_value``) and accumulating each tree's leaf value
into the probability sum *in tree order*, then dividing by the tree
count, defines the forest's probabilities.  The compiled path gathers
the same leaf values (same comparisons against the same thresholds, so
the same leaves) and accumulates them column-by-column in the same
tree order — float addition happens per row in the identical sequence,
making the two bitwise-equal, not merely close.  ``tests/ml/
test_compiled_parity.py`` pins this against a per-tree walk across
seeds, class balances, and worker counts; the golden digests pin the
arena and its probabilities; ``benchmarks/perf/
test_inference_speedup.py`` gates the speedup that justifies the extra
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .base import check_X, require_fitted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .forest import RandomForestClassifier

#: Rows traversed per arena sweep: bounds the transient cursor arrays
#: (``rows * trees`` int64 cells) to a few MB regardless of batch size.
DEFAULT_ROW_CHUNK = 8_192

#: Levels every cursor walks before finished cursors are first dropped,
#: and between later drops.  A leaf absorbs its cursor, so a finished
#: cursor may walk on in place; dropping them every level costs more
#: passes than the few absorbed steps it saves.
FIRST_COMPACTION_LEVEL = 6
COMPACTION_EVERY = 2


@dataclass(frozen=True)
class CompiledForest:
    """A whole fitted forest as one flat node arena.

    Node ``i`` is internal iff ``feature[i] >= 0``; a sample goes left
    iff ``x[feature[i]] <= threshold[i]``.  ``left``/``right`` hold
    arena-absolute child indices (per-tree offsets already applied);
    ``value[i]`` is the leaf's P(class 1).  ``roots[t]`` is tree
    ``t``'s arena index, so tree order — and therefore accumulation
    order — is preserved exactly.

    The walk reads a form derived from these six arrays, with ``intp``
    node ids: ``walk_child`` holds node ``i``'s left child at ``2*i``
    and its right child at ``2*i + 1``, and ``walk_feature`` its split
    feature.  A leaf is both of its own children and reads feature 0,
    so a cursor that reaches a leaf stays there whatever it compares.
    ``internal`` marks the nodes a cursor has not finished at.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    n_features_: int
    walk_feature: np.ndarray = field(init=False, repr=False)
    walk_child: np.ndarray = field(init=False, repr=False)
    internal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        internal = self.feature >= 0
        ids = np.arange(len(self.feature), dtype=np.intp)
        child = np.empty(2 * len(ids), dtype=np.intp)
        child[0::2] = np.where(internal, self.left, ids)
        child[1::2] = np.where(internal, self.right, ids)
        walk_feature = np.where(internal, self.feature, 0).astype(np.intp)
        object.__setattr__(self, "walk_feature", walk_feature)
        object.__setattr__(self, "walk_child", child)
        object.__setattr__(self, "internal", internal)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n, n_trees) per-tree leaf values for every row of X.

        ``X`` must already be validated float64 (see
        :meth:`predict_proba` for the checked entry point).  Non-finite
        values are not supported: the walk sends ``x > threshold``
        right, which is ``x <= threshold`` going left only for finite
        ``x``.
        """
        n, n_features = X.shape
        n_trees = self.n_trees
        x = X.reshape(-1)
        feature = self.walk_feature
        threshold = self.threshold
        child = self.walk_child
        # Cursor layout is row-major (row, tree): cursor r * T + t
        # walks tree t for row r and reads X's row at offset[r * T + t].
        node = np.tile(self.roots, n)
        offset = np.repeat(
            np.arange(n, dtype=np.intp) * n_features, n_trees
        )
        leaf = np.empty_like(node)
        where = np.arange(node.size)
        steps = FIRST_COMPACTION_LEVEL
        while where.size:
            for __ in range(steps):
                values = x.take(offset + feature.take(node))
                goes_right = values > threshold.take(node)
                node = child.take(2 * node + goes_right)
            # Keep only the cursors still on an internal node.
            leaf[where] = node
            walking = np.flatnonzero(self.internal.take(node))
            where = where.take(walking)
            node = node.take(walking)
            offset = offset.take(walking)
            steps = COMPACTION_EVERY
        return self.value.take(leaf).reshape(n, n_trees)

    def predict_proba(
        self, X: np.ndarray, row_chunk: int = DEFAULT_ROW_CHUNK
    ) -> np.ndarray:
        """(n, 2) ensemble probabilities, bit-identical to a per-tree
        walk.

        Raises:
            ValueError: on a feature-count mismatch or invalid X.
        """
        X = check_X(X, self.n_features_)
        if row_chunk < 1:
            raise ValueError(f"row_chunk must be >= 1, got {row_chunk}")
        n = X.shape[0]
        n_trees = self.n_trees
        p1 = np.empty(n)
        for start in range(0, n, row_chunk):
            rows = X[start : start + row_chunk]
            vals = self.leaf_values(rows)
            # Accumulate per tree, in tree order — NOT vals.sum(axis=1):
            # numpy's pairwise summation would reorder the additions and
            # break bitwise parity with the sequential reference path.
            acc = np.zeros(rows.shape[0])
            for t in range(n_trees):
                acc += vals[:, t]
            acc /= n_trees
            p1[start : start + rows.shape[0]] = acc
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary labels at the 0.5 ensemble-probability threshold."""
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


def compile_forest(forest: "RandomForestClassifier") -> CompiledForest:
    """Fuse a fitted forest's trees into one :class:`CompiledForest`.

    Threshold and value arrays are concatenated without arithmetic, so
    every float the compiled arena holds is the exact float the source
    tree holds.

    Raises:
        RuntimeError: if the forest was never fitted.
    """
    require_fitted(forest, "trees_")
    trees = forest.trees_
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    offsets = np.zeros(len(trees), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    feature = np.concatenate(
        [np.asarray(tree.feature, dtype=np.int64) for tree in trees]
    )
    threshold = np.concatenate(
        [np.asarray(tree.threshold, dtype=np.float64) for tree in trees]
    )
    value = np.concatenate(
        [np.asarray(tree.value, dtype=np.float64) for tree in trees]
    )
    left = np.concatenate(
        [np.asarray(tree.left, dtype=np.int64) for tree in trees]
    )
    right = np.concatenate(
        [np.asarray(tree.right, dtype=np.int64) for tree in trees]
    )
    # Rebase child pointers to arena-absolute indices.  Leaves keep
    # their -1 children untouched: traversal never follows them, but a
    # shifted sentinel would silently alias a real node.
    arena_offsets = np.repeat(offsets, sizes)
    internal = feature >= 0
    left[internal] += arena_offsets[internal]
    right[internal] += arena_offsets[internal]
    return CompiledForest(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        roots=offsets,
        n_features_=int(forest.n_features_ or 0),
    )


__all__ = ["CompiledForest", "DEFAULT_ROW_CHUNK", "compile_forest"]
