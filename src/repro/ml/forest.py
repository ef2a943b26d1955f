"""Random Forest classifier.

The paper's deployed detector: RF with 70 trees and a depth cap of 700
(Section V-C) wins the Table-IV comparison with precision 0.974 and
false-positive rate 0.002.  This implementation bins the feature matrix
once and grows all bootstrap trees together on the shared binning:
:class:`repro.ml.tree._LockstepBuilder` advances every tree's
depth-first walk one node per step and searches all those nodes'
splits in a few batched numpy passes, which is what keeps a 70-tree
forest tractable in pure numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..parallel import parallel_map, resolve_workers
from .base import check_X_y, require_fitted
from .tree import (
    _FlatTree,
    _LockstepBuilder,
    quantile_bin,
    resolve_max_features,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiled import CompiledForest


class _TreeFitter:
    """Picklable forest fit task: a chunk of tree indices -> trees.

    Holds the shared builder once; ``parallel_map`` ships one copy per
    chunk to pool workers, and each chunk's trees grow in lockstep.
    Tree ``b`` draws its bootstrap and candidate features from a
    Generator seeded with ``seed + b`` alone, so a built tree does not
    depend on which chunk or process grows it — the property that
    makes the forest bit-identical at every worker count.
    """

    def __init__(self, builder: _LockstepBuilder, seed: int) -> None:
        self.builder = builder
        self.seed = seed

    def __call__(self, chunk: range) -> list[_FlatTree]:
        n = len(self.builder.y)
        rngs = (np.random.default_rng(self.seed + b) for b in chunk)
        return self.builder.grow(
            (rng.integers(0, n, size=n), rng) for rng in rngs
        )


class RandomForestClassifier:
    """Bootstrap-aggregated randomized CART trees (binary).

    Args:
        n_estimators: number of trees (paper: 70).
        max_depth: per-tree depth cap (paper: 700).
        min_samples_leaf: minimum samples per leaf.
        max_features: candidate features per split; 'sqrt' (default)
            follows standard RF practice.
        max_bins: histogram resolution shared by all trees.
        seed: master seed; tree b uses seed + b for bootstrap and
            feature subsampling.
        workers: process-pool size for fitting trees (the pool grows
            one contiguous chunk of trees per worker); 0 forces
            sequential, ``None`` defers to the ambient
            :func:`repro.parallel.resolve_workers` rule.  Fitted
            trees (and therefore predictions) are bit-identical at
            every worker count.
    """

    def __init__(
        self,
        n_estimators: int = 70,
        max_depth: int = 700,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        max_bins: int = 64,
        seed: int = 0,
        workers: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.seed = seed
        self.workers = workers
        self.trees_: list[_FlatTree] | None = None
        self.n_features_: int | None = None
        self._compiled = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit all trees on bootstrap resamples; returns self.

        The trees grow in lockstep over the shared binning.  With an
        effective ``workers > 1`` the tree indices split into one
        contiguous chunk per worker, each chunk growing in lockstep on
        a pool worker; results are gathered in tree order and are
        bit-identical to the sequential fit (each tree's RNG is
        ``seed + b``).
        """
        X, y = check_X_y(X, y)
        __, d = X.shape
        self.n_features_ = d
        codes, edges = quantile_bin(X, self.max_bins)
        builder = _LockstepBuilder(
            codes,
            edges,
            y,
            criterion="gini",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=resolve_max_features(self.max_features, d),
        )
        workers = resolve_workers(self.workers)
        total = self.n_estimators
        n_chunks = max(1, min(workers, total))
        chunks = [
            range(total * i // n_chunks, total * (i + 1) // n_chunks)
            for i in range(n_chunks)
        ]
        self.trees_ = [
            tree
            for trees in parallel_map(
                _TreeFitter(builder, self.seed),
                chunks,
                workers=workers,
                label="forest_fit",
            )
            for tree in trees
        ]
        self._compiled = None
        return self

    def compiled(self) -> "CompiledForest":
        """The flat-arena form of this fitted forest (built lazily).

        Raises:
            NotFittedError: if the forest was never fitted.
        """
        require_fitted(self, "trees_")
        if self._compiled is None:
            from .compiled import compile_forest

            self._compiled = compile_forest(self)
        return self._compiled

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) probabilities: mean of per-tree leaf frequencies.

        Delegates to the compiled flat-arena traversal
        (:mod:`repro.ml.compiled`), which sums the trees' leaf values in
        tree order, bit-identical to walking the trees one at a time.
        """
        return self.compiled().predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary labels at the 0.5 ensemble-probability threshold."""
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)

    def feature_importances(self) -> np.ndarray:
        """Split-count importances, normalized to sum to 1."""
        require_fitted(self, "trees_")
        counts = np.zeros(self.n_features_ or 0)
        for tree in self.trees_:
            internal = tree.feature[tree.feature >= 0]
            counts += np.bincount(internal, minlength=len(counts))
        total = counts.sum()
        return counts / total if total else counts
