"""Gradient boosting for binary classification (the paper's EGB).

Newton-boosted regression trees on the logistic loss, in the spirit of
XGBoost: each round fits a CART regression tree to the negative
gradient (residual y - p) and sets leaf values by a one-step Newton
update  Σ residual / Σ p(1-p)  over the leaf, with shrinkage.
Features are binned once for all rounds.
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_X_y, require_fitted
from .tree import _FlatTree, _LockstepBuilder, quantile_bin


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class GradientBoostingClassifier:
    """Extreme Gradient Boosting (EGB) for binary labels.

    Args:
        n_estimators: boosting rounds.
        learning_rate: shrinkage applied to each tree's contribution.
        max_depth: depth of each regression tree (shallow trees are
            standard for boosting).
        min_samples_leaf: minimum samples per leaf.
        subsample: row subsampling fraction per round (stochastic
            gradient boosting); 1.0 disables.
        max_bins: histogram resolution.
        seed: RNG seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        max_bins: int = 64,
        seed: int = 0,
    ) -> None:
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_bins = max_bins
        self.seed = seed
        self.trees_: list[_FlatTree] | None = None
        self.base_score_: float = 0.0
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Run all boosting rounds; returns self."""
        X, y = check_X_y(X, y)
        n, d = X.shape
        self.n_features_ = d
        codes, edges = quantile_bin(X, self.max_bins)
        rng = np.random.default_rng(self.seed)
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(n, self.base_score_)
        self.trees_ = []
        yf = y.astype(np.float64)
        for __ in range(self.n_estimators):
            p = _sigmoid(raw)
            residual = yf - p
            hessian = p * (1.0 - p)
            if self.subsample < 1.0:
                size = max(1, int(self.subsample * n))
                indices = rng.choice(n, size=size, replace=False)
            else:
                indices = np.arange(n)
            builder = _LockstepBuilder(
                codes,
                edges,
                residual,
                criterion="mse",
                max_depth=self.max_depth,
                min_samples_split=2 * self.min_samples_leaf,
                min_samples_leaf=self.min_samples_leaf,
                max_features=None,
            )
            tree = builder.grow([(indices, rng)])[0]
            self._newton_leaf_values(tree, X, residual, hessian, indices)
            raw += self.learning_rate * tree.predict_value(X)
            self.trees_.append(tree)
        return self

    @staticmethod
    def _newton_leaf_values(
        tree: _FlatTree,
        X: np.ndarray,
        residual: np.ndarray,
        hessian: np.ndarray,
        indices: np.ndarray,
    ) -> None:
        """Replace leaf means with one-step Newton values.

        leaf value = Σ residual / (Σ hessian + 1), the XGBoost update
        with L2 regularization weight 1 on leaves.
        """
        leaves_of = tree.leaf_indices(X[indices])
        n_nodes = tree.n_nodes
        res_sum = np.bincount(
            leaves_of, weights=residual[indices], minlength=n_nodes
        )
        hess_sum = np.bincount(
            leaves_of, weights=hessian[indices], minlength=n_nodes
        )
        is_leaf = tree.feature == -1
        values = res_sum / (hess_sum + 1.0)
        tree.value[is_leaf] = values[is_leaf]

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive scores (log-odds)."""
        require_fitted(self, "trees_")
        X = check_X(X, self.n_features_)
        raw = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict_value(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) logistic probabilities."""
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary labels at probability 0.5 (raw score 0)."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)
