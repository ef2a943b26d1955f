"""Estimator protocol and input validation helpers.

A minimal, sklearn-like contract: ``fit(X, y) -> self``,
``predict(X) -> labels``, ``predict_proba(X) -> (n, 2) array`` for the
binary spam/non-spam problem.  All estimators in :mod:`repro.ml`
implement it, so the detector and the cross-validation harness treat
them interchangeably (the paper swaps five classifiers through the same
10-fold evaluation).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Classifier(Protocol):
    """Binary classifier protocol used across the detector stack."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Learn from features X (n, d) and binary labels y (n,)."""
        ...

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict binary labels for X."""
        ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Predict class probabilities, shape (n, 2), columns [P(0), P(1)]."""
        ...


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalize a training pair.

    Returns float64 features and int64 labels in {0, 1}.

    Raises:
        ValueError: on shape mismatch, empty data, non-finite features,
            or labels outside {0, 1} (including any label the int64
            cast would change, such as 0.5 or NaN).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    with np.errstate(invalid="ignore"):
        labels = y.astype(np.int64)
    if not np.array_equal(labels, y):
        bad = y[labels != y][:3]
        raise ValueError(f"labels must be whole numbers 0/1, got {bad}")
    distinct = np.unique(labels)
    if not np.all(np.isin(distinct, (0, 1))):
        raise ValueError(f"labels must be binary 0/1, got {distinct}")
    return X, labels


def check_X(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    """Validate prediction input, optionally checking feature count.

    Raises:
        ValueError: on bad shape, non-finite values, or feature-count
            mismatch with training data.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, estimator was fit on {n_features}"
        )
    return X


class NotFittedError(RuntimeError):
    """Raised when predict is called before fit."""


def require_fitted(estimator: object, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} must be fit before predicting"
        )
