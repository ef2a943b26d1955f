"""Tests for the Pegasos linear SVM."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.svm import LinearSVC


def linear_data(n=500, seed=0, margin=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    w = np.array([2.0, -1.0, 0.5, 0.0])
    y = (X @ w + margin * rng.normal(scale=0.2, size=n) > 0).astype(int)
    return X, y


def imbalanced_data(n=1000, seed=0, positive_share=0.08):
    """Linearly separable data whose top 8% of scores are positive."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    score = X @ np.array([2.0, -1.0, 0.5, 0.0])
    y = (score > np.quantile(score, 1 - positive_share)).astype(int)
    return X, y


class TestLinearSVC:
    def test_separable_accuracy(self):
        X, y = linear_data()
        model = LinearSVC(n_epochs=15, seed=0).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_generalizes(self):
        X, y = linear_data(n=1000)
        model = LinearSVC(n_epochs=15, seed=0).fit(X[:700], y[:700])
        assert (model.predict(X[700:]) == y[700:]).mean() > 0.93

    def test_decision_function_sign_matches_predict(self):
        X, y = linear_data(n=200)
        model = LinearSVC(n_epochs=5, seed=0).fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(scores >= 0, model.predict(X) == 1)

    def test_proba_monotone_in_score(self):
        X, y = linear_data(n=200)
        model = LinearSVC(n_epochs=5, seed=0).fit(X, y)
        scores = model.decision_function(X)
        proba = model.predict_proba(X)[:, 1]
        order = np.argsort(scores)
        assert (np.diff(proba[order]) >= -1e-12).all()

    def test_flags_the_minority_class(self):
        # Spam is the minority (Table IV's ground truth is ~6% spam).
        # A bias left outside the regularized, projected weights runs
        # away negative here and the model flags nothing.
        X, y = imbalanced_data()
        predicted = LinearSVC(n_epochs=15, seed=0).fit(X, y).predict(X)
        recall = predicted[y == 1].mean()
        precision = y[predicted == 1].mean()
        assert recall > 0.7
        assert precision > 0.8

    def test_weight_norm_bounded_by_pegasos_projection(self):
        X, y = linear_data(n=300)
        lam = 1e-3
        model = LinearSVC(lambda_reg=lam, n_epochs=10, seed=0).fit(X, y)
        assert np.linalg.norm(model.weights_) <= 1 / np.sqrt(lam) + 1e-9

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            LinearSVC(lambda_reg=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearSVC().predict(np.zeros((2, 3)))

    def test_deterministic_per_seed(self):
        X, y = linear_data(n=200)
        a = LinearSVC(n_epochs=3, seed=4).fit(X, y)
        b = LinearSVC(n_epochs=3, seed=4).fit(X, y)
        assert np.allclose(a.weights_, b.weights_)

    def test_unscaled_features_handled_by_internal_scaler(self):
        X, y = linear_data(n=400)
        X_scaled_up = X * np.array([1000.0, 0.001, 1.0, 50.0])
        model = LinearSVC(n_epochs=15, seed=0).fit(X_scaled_up, y)
        assert (model.predict(X_scaled_up) == y).mean() > 0.93
