"""Linear Support Vector Machine via Pegasos (primal SGD on hinge loss).

Pegasos (Shalev-Shwartz et al.) solves the L2-regularized hinge
objective with projected stochastic subgradient steps and a 1/(λ t)
learning-rate schedule — a standard, dependency-free way to train the
paper's SVM baseline.  Inputs should be standardized; the class keeps
an internal standardizer so it can be dropped into the shared
cross-validation harness unmodified.

The bias is the weight of a constant-1 feature, so it is shrunk and
projected with the rest of ``w`` (textbook Pegasos).  An unregularized
bias stepped at the full 1/(λ t) rate runs away on imbalanced data:
with few positives it drifts so far negative that every margin is
negative and the model flags nothing.
"""

from __future__ import annotations

import numpy as np

from .base import check_X, check_X_y, require_fitted
from .preprocessing import StandardScaler


class LinearSVC:
    """Binary linear SVM trained with the Pegasos algorithm.

    Args:
        lambda_reg: L2 regularization strength λ.
        n_epochs: passes over the training data.
        batch_size: minibatch size per subgradient step.
        seed: shuffling seed.
        standardize: z-score features internally before training.
    """

    def __init__(
        self,
        lambda_reg: float = 1e-4,
        n_epochs: int = 20,
        batch_size: int = 64,
        seed: int = 0,
        standardize: bool = True,
    ) -> None:
        if lambda_reg <= 0:
            raise ValueError("lambda_reg must be positive")
        self.lambda_reg = lambda_reg
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.seed = seed
        self.standardize = standardize
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self._scaler: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVC":
        """Train on (X, y) with labels in {0, 1}; returns self."""
        X, y = check_X_y(X, y)
        if self.standardize:
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        signs = 2.0 * y - 1.0  # {-1, +1}
        X = np.column_stack([X, np.ones(len(X))])
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        w = np.zeros(d)
        t = 0
        lam = self.lambda_reg
        for __ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                t += 1
                batch = order[start : start + self.batch_size]
                eta = 1.0 / (lam * t)
                margins = signs[batch] * (X[batch] @ w)
                violators = margins < 1.0
                w *= 1.0 - eta * lam
                if np.any(violators):
                    rows = batch[violators]
                    scale = eta / len(batch)
                    w += scale * (signs[rows] @ X[rows])
                # Pegasos projection onto the ball of radius 1/sqrt(lam).
                norm = np.linalg.norm(w)
                radius = 1.0 / np.sqrt(lam)
                if norm > radius:
                    w *= radius / norm
        self.weights_ = w[:-1]
        self.bias_ = float(w[-1])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed margins w·x + b."""
        require_fitted(self, "weights_")
        X = check_X(X, len(self.weights_))
        if self._scaler is not None:
            X = self._scaler.transform(X)
        return X @ self.weights_ + self.bias_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels by the sign of the margin."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid-squashed margins as pseudo-probabilities (n, 2)."""
        scores = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-scores))
        return np.column_stack([1.0 - p1, p1])
