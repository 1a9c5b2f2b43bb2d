"""Baseline forecaster tests: OLS, persistence, and the CART baseline."""

from unittest import mock

import numpy as np
import pytest

import windglass as wg
from windglass import data
from conftest import tree_depth


def lag_setup(n=600, n_lags=6, horizon=1, seed=3):
    frame = wg.make_autocorrelated_series(n, seed=seed)
    raw = wg.build_lag_features(frame, n_lags=n_lags, horizon_steps=horizon)
    split = wg.chronological_split(raw.n_rows)
    return wg.normalize_fit_apply(raw, split.train), split


class TestOls:
    def test_exact_linear_relationship_recovered(self):
        """y = 2*x0 + 0.1 exactly: weights and intercept analytic."""
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(100, 1))
        matrix = wg.SupervisedMatrix(X, 2.0 * X[:, 0] + 0.1, ("x0",))
        model = wg.fit_ols(matrix, (0, 100))
        assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.1, abs=1e-10)
        residual = model.predict(X) - matrix.y
        assert np.max(np.abs(residual)) <= 1e-10

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 3))
        matrix = wg.SupervisedMatrix(X, np.full(50, 0.7), ("a", "b", "c"))
        model = wg.fit_ols(matrix, (0, 50))
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-10)
        assert model.intercept == pytest.approx(0.7, abs=1e-10)

    def test_duplicated_column_minimum_norm_with_warning(self):
        """Rank deficiency: warn, but training predictions stay exact and
        match the normal-equations (pseudo-inverse) oracle."""
        rng = np.random.default_rng(2)
        x = rng.uniform(size=80)
        X = np.column_stack([x, x])
        y = 3.0 * x + 0.5
        matrix = wg.SupervisedMatrix(X, y, ("a", "b"))
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = wg.fit_ols(matrix, (0, 80))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)
        A = np.column_stack([np.ones(80), X])
        oracle = np.linalg.pinv(A) @ y  # minimum-norm solution
        np.testing.assert_allclose([model.intercept, *model.weights], oracle,
                                   atol=1e-8)

    def test_residuals_orthogonal_to_columns(self):
        """OLS normal-equation property on random instances."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            m, n = int(rng.integers(30, 100)), int(rng.integers(1, 6))
            X = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            matrix = wg.SupervisedMatrix(
                X, y, tuple(f"c{k}" for k in range(n)))
            model = wg.fit_ols(matrix, (0, m))
            r = y - model.predict(X)
            assert abs(r.sum()) <= 1e-8 * m
            for k in range(n):
                assert abs(r @ X[:, k]) <= 1e-8 * m

    def test_predict_lr_dot_product_oracle(self):
        model = wg.LinearModel(0.5, np.array([1.0, -2.0]), ("a", "b"))
        X = np.array([[1.0, 1.0], [0.0, 0.5], [2.0, 0.0]])
        expected = [0.5 + 1 - 2, 0.5 - 1, 0.5 + 2]
        np.testing.assert_allclose(model.predict(X), expected, atol=1e-15)

    def test_zero_weight_model_constant(self):
        model = wg.LinearModel(0.3, np.zeros(2), ("a", "b"))
        np.testing.assert_array_equal(model.predict(np.ones((4, 2))),
                                      np.full(4, 0.3))


class TestPersistence:
    def test_forecast_is_last_lag(self):
        matrix = wg.SupervisedMatrix(
            np.array([[0.1, 0.7], [0.2, 0.9]]), np.array([0.5, 0.6]),
            ("lag_1", "lag_0"))
        model = wg.PersistenceModel.from_matrix(matrix)
        np.testing.assert_array_equal(model.predict(matrix.X), [0.7, 0.9])

    def test_error_grows_with_horizon(self):
        """On an autocorrelated series the persistence error at 8 steps
        exceeds the error at 1 step."""
        frame = wg.make_autocorrelated_series(3000, seed=4)
        errs = {}
        for horizon in (1, 8):
            raw = wg.build_lag_features(frame, n_lags=4, horizon_steps=horizon)
            split = wg.chronological_split(raw.n_rows)
            matrix = wg.normalize_fit_apply(raw, split.train)
            te = split.test_slice
            model = wg.PersistenceModel.from_matrix(matrix)
            errs[horizon] = wg.nrmse(model.predict(matrix.X[te]), matrix.y[te])
        assert errs[8] > errs[1]

    def test_exogenous_only_matrix_errors(self):
        matrix = wg.SupervisedMatrix(np.ones((5, 2)), np.ones(5), ("u10", "v10"))
        with pytest.raises(ValueError, match="persistence requires"):
            wg.PersistenceModel.from_matrix(matrix)

    def test_idempotent_and_parameter_free(self):
        """Persistence is deterministic and parameter-free: each row's
        forecast is its ``lag_0`` (the last column), in a new array."""
        matrix, split = lag_setup()
        model = wg.PersistenceModel.from_matrix(matrix)
        a = model.predict(matrix.X)
        b = wg.PersistenceModel.from_matrix(matrix).predict(matrix.X)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, matrix.X[:, -1])
        np.testing.assert_array_equal(model.predict(matrix.X[split.test_slice]),
                                      a[split.test_slice])
        a[:] = -1.0
        np.testing.assert_array_equal(matrix.X[:, -1], b)


class TestRtBaseline:
    def test_uses_stated_defaults(self):
        assert wg.RT_BASELINE_PARAMS.max_depth == 4
        assert wg.RT_BASELINE_PARAMS.min_samples_split == 4
        assert wg.RT_BASELINE_PARAMS.min_samples_leaf == 1

    def test_beats_climatology_on_autocorrelated_data(self):
        matrix, split = lag_setup(n=2000)
        model = wg.fit_rt_baseline(matrix, split.train, max_bins=64)
        te = split.test_slice
        assert tree_depth(model.tree) <= 4
        r2 = wg.r2(model.predict(matrix.X[te]), matrix.y[te])
        assert r2 > 0.5

    def test_bins_each_fit_row_once(self):
        """The binning fit's own pass over the fit rows gives the tree its
        bins: no row is binned a second time."""
        matrix, split = lag_setup(n=800, n_lags=2)
        lo, hi = split.train
        with mock.patch.object(data, "_bin", wraps=data._bin) as each_pass:
            model = wg.fit_rt_baseline(matrix, split.train, max_bins=16)
        assert sum(len(call.args[1]) for call in each_pass.call_args_list) == hi - lo
        Xb = wg.apply_bins(model.bins, matrix.X[lo:hi])
        assert model.tree == wg.fit_cart(Xb, matrix.y[lo:hi], wg.RT_BASELINE_PARAMS)

    def test_numpy_integer_max_bins_saves_as_int(self, tmp_path):
        """``max_bins=np.int64(16)`` writes the file ``16`` does; a
        non-integer is refused before any fit."""
        matrix, split = lag_setup(n=400, n_lags=2)
        for name, max_bins in (("np", np.int64(16)), ("py", 16)):
            wg.save_model(wg.fit_rt_baseline(matrix, split.train, max_bins=max_bins),
                          tmp_path / f"{name}.json")
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()
        with pytest.raises(TypeError, match="max_bins must be int"):
            wg.fit_rt_baseline(matrix, split.train, max_bins=16.0)

    def test_predicts_leaf_medians(self):
        matrix, split = lag_setup(n=800, n_lags=2)
        model = wg.fit_rt_baseline(matrix, split.train, max_bins=16)
        lo, hi = split.train
        pred = model.predict(matrix.X[lo:hi])
        for value in np.unique(pred):
            members = matrix.y[lo:hi][pred == value]
            assert value == pytest.approx(np.median(members), abs=1e-12)


class TestUniformPredictorInterface:
    def test_all_baselines_work_with_pdp_and_pfi(self):
        matrix, split = lag_setup(n=900, n_lags=3)
        te = split.test_slice
        models = [
            wg.fit_ols(matrix, split.train),
            wg.PersistenceModel.from_matrix(matrix),
            wg.fit_rt_baseline(matrix, split.train, max_bins=16),
        ]
        grid = np.linspace(0, 1, 7)
        for model in models:
            curve = wg.pdp(model.predict, matrix.X[te], 0, grid)
            assert len(curve.values) == 7
            result = wg.pfi(model.predict, matrix.X[te], matrix.y[te],
                            n_repeats=2, seed=0)
            assert len(result.importances) == matrix.n_features
