"""Tests for decision trees (classification and regression)."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    quantile_bin,
    resolve_max_features,
)


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = ((X[:, 0] > 0.2) | (X[:, 2] < -1.0)).astype(int)
    return X, y


class TestQuantileBin:
    def test_codes_shape_and_monotonicity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 3))
        codes, edges = quantile_bin(X, max_bins=16)
        assert codes.shape == X.shape
        for f in range(3):
            order = np.argsort(X[:, f])
            assert (np.diff(codes[order, f]) >= 0).all()

    def test_constant_feature_single_bin(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        codes, edges = quantile_bin(X, max_bins=8)
        assert len(edges[0]) == 0
        assert (codes[:, 0] == 0).all()

    @pytest.mark.parametrize("max_bins", [-1, 0, 1, 32769, 40000])
    def test_rejects_max_bins_outside_int16_codes(self, max_bins):
        X = np.arange(50_000, dtype=float).reshape(-1, 1)
        with pytest.raises(ValueError, match="max_bins"):
            quantile_bin(X, max_bins=max_bins)

    def test_largest_max_bins_keeps_codes_in_range(self):
        X = np.arange(50_000, dtype=float).reshape(-1, 1)
        codes, edges = quantile_bin(X, max_bins=32768)
        assert codes.min() == 0
        assert codes.max() == len(edges[0]) <= 32767

    def test_code_edge_consistency(self):
        """code <= b  ⟺  value <= edges[b] (the split contract)."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 1))
        codes, edges = quantile_bin(X, max_bins=32)
        for b, edge in enumerate(edges[0]):
            assert ((X[:, 0] <= edge) == (codes[:, 0] <= b)).all()


class TestDecisionTreeClassifier:
    def test_fits_separable_data_perfectly(self):
        X, y = separable_data()
        model = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.99

    def test_generalizes(self):
        X, y = separable_data(n=800)
        model = DecisionTreeClassifier(max_depth=8).fit(X[:600], y[:600])
        assert (model.predict(X[600:]) == y[600:]).mean() > 0.95

    def test_predict_proba_shape_and_range(self):
        X, y = separable_data()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_max_depth_limits_tree(self):
        X, y = separable_data()
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert shallow.tree_.depth <= 1

    def test_min_samples_leaf_respected(self):
        X, y = separable_data(n=200)
        model = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        leaves = model.tree_.leaf_indices(X)
        __, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 20

    def test_pure_node_stops_splitting(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.zeros(20, dtype=int)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.tree_.n_nodes == 1

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((2, 3)))

    def test_rejects_bad_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, np.array([0, 1, 2, 1]))

    def test_rejects_nan_features(self):
        X = np.zeros((4, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, np.array([0, 1, 0, 1]))

    def test_feature_count_checked_at_predict(self):
        X, y = separable_data(n=50)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3)))

    def test_max_features_sqrt(self):
        X, y = separable_data()
        model = DecisionTreeClassifier(max_features="sqrt", seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_deterministic_per_seed(self):
        X, y = separable_data()
        a = DecisionTreeClassifier(max_features=2, seed=5).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, seed=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 3.0
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        prediction = model.predict(X)
        assert np.abs(prediction - y).mean() < 0.05

    def test_depth_one_is_two_leaves(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = X[:, 0] ** 2
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert model.tree_.n_leaves == 2

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        y = np.full(50, 7.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.tree_.n_nodes == 1
        assert np.allclose(model.predict(X), 7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_precomputed_binning_matches(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        y = X[:, 1] * 2 + rng.normal(scale=0.1, size=300)
        pre = quantile_bin(X, 64)
        a = DecisionTreeRegressor(max_depth=4).fit(X, y)
        b = DecisionTreeRegressor(max_depth=4).fit(X, y, precomputed=pre)
        assert np.allclose(a.predict(X), b.predict(X))


class TestTrainingInputChecks:
    """Bad training input fails loudly instead of being coerced."""

    FRACTIONAL = np.array([0.5, 1.7, 0.2, 1.0, 0.0, 1.9])

    @pytest.mark.parametrize(
        "make",
        [
            DecisionTreeClassifier,
            lambda: RandomForestClassifier(n_estimators=2),
            lambda: GradientBoostingClassifier(n_estimators=2),
        ],
    )
    @pytest.mark.parametrize(
        "labels", [FRACTIONAL, np.array([0, 1, np.nan, 1, 0, 1])]
    )
    def test_classifiers_reject_labels_the_cast_would_change(
        self, make, labels
    ):
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValueError, match="whole numbers"):
            make().fit(X, labels)

    def test_classifiers_accept_whole_float_and_bool_labels(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        a = DecisionTreeClassifier().fit(X, labels)
        b = DecisionTreeClassifier().fit(X, labels.astype(bool))
        assert np.array_equal(a.tree_.value, b.tree_.value)

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_regressor_rejects_non_finite_input(self, where, bad):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.arange(10, dtype=float)
        (X if where == "X" else y)[3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DecisionTreeRegressor().fit(X, y)


class TestResolveMaxFeatures:
    def test_resolves_none_sqrt_and_ints(self):
        assert resolve_max_features(None, 58) is None
        assert resolve_max_features("sqrt", 58) == 7
        assert resolve_max_features("sqrt", 1) == 1
        assert resolve_max_features(3, 58) == 3
        assert resolve_max_features(99, 58) == 58

    @pytest.mark.parametrize("bad", [True, False, 0, -2, 1.5, "log2"])
    def test_rejects_other_values(self, bad):
        with pytest.raises(ValueError, match="max_features"):
            resolve_max_features(bad, 10)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DecisionTreeClassifier(max_features=True),
            lambda: DecisionTreeRegressor(max_features=True),
            lambda: RandomForestClassifier(n_estimators=2, max_features=True),
        ],
    )
    def test_estimators_reject_bool_max_features(self, make):
        X, y = separable_data(n=60)
        with pytest.raises(ValueError, match="max_features"):
            make().fit(X, y)
