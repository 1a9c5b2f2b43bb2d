"""Reference forecasters: persistence, least-squares linear regression,
and a standalone CART regression tree.

All of them expose the same ``predict(X)`` surface as the glass-box
model, so evaluation and the model-agnostic explanation tools treat
every forecaster interchangeably.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import BinningMap, NormParams, SupervisedMatrix, apply_bins, fit_bins
from .trees import RegressionTree, TreeParams, fit_cart, predict_tree

__all__ = [
    "LinearModel",
    "PersistenceModel",
    "RTBaseline",
    "RT_BASELINE_PARAMS",
    "fit_ols",
    "persistence_forecast",
    "fit_rt_baseline",
]

# Standalone-tree defaults: depth 4, min split 4, min leaf 1,
# absolute-error criterion with median leaves.
RT_BASELINE_PARAMS = TreeParams(
    max_depth=4, min_samples_split=4, min_samples_leaf=1, split_criterion="mae",
)

#: Name of the most recent lag column (what persistence forecasts with).
MOST_RECENT_LAG = "lag_0"


@dataclass(frozen=True)
class LinearModel:
    """Intercept plus one weight per feature."""

    intercept: float
    weights: np.ndarray
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if len(w) != len(self.feature_names):
            raise ValueError("weight count must match feature count")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(w))):
            raise ValueError("non-finite coefficients")

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.weights):
            raise ValueError(f"expected {len(self.weights)} columns, got {X.shape}")
        return X @ self.weights + self.intercept


@dataclass(frozen=True)
class PersistenceModel:
    """Forecast = most recent observed value. Stateless beyond knowing
    which column holds it; training time is zero by construction."""

    lag_column: int
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError("column count mismatch")
        return X[:, self.lag_column].copy()

    @classmethod
    def from_matrix(cls, matrix: SupervisedMatrix) -> "PersistenceModel":
        return cls(
            lag_column=_most_recent_lag_column(matrix.feature_names),
            feature_names=matrix.feature_names,
            norm_params=matrix.norm_params,
        )


@dataclass(frozen=True)
class RTBaseline:
    """A single CART tree with its binning, predicting on raw features."""

    tree: RegressionTree
    bins: BinningMap
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_tree(self.tree, apply_bins(self.bins, X))


def fit_ols(matrix: SupervisedMatrix, fit_range: tuple[int, int]) -> LinearModel:
    """Ordinary least squares via SVD.

    Lag matrices are highly collinear, so the solver is an orthogonal
    decomposition rather than the normal equations; a rank-deficient
    system gets the minimum-norm solution and a warning.
    """
    lo, hi = fit_range
    if hi <= lo:
        raise ValueError("empty fit range")
    X = matrix.X[lo:hi]
    y = matrix.y[lo:hi]
    A = np.column_stack([np.ones(len(X)), X])
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        warnings.warn(
            f"rank-deficient design ({rank} < {A.shape[1]}): "
            "returning the minimum-norm least-squares solution",
            stacklevel=2,
        )
    return LinearModel(
        intercept=float(coef[0]),
        weights=coef[1:],
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
    )


def _most_recent_lag_column(feature_names) -> int:
    try:
        return list(feature_names).index(MOST_RECENT_LAG)
    except ValueError:
        raise ValueError(
            "persistence requires historical target lags "
            f"(no {MOST_RECENT_LAG!r} column; weather-model inputs alone "
            "cannot drive a persistence forecast)"
        ) from None


def persistence_forecast(matrix: SupervisedMatrix) -> np.ndarray:
    """Forecast every row with its most recent lag value."""
    col = _most_recent_lag_column(matrix.feature_names)
    return matrix.X[:, col].copy()


def fit_rt_baseline(matrix: SupervisedMatrix, fit_range: tuple[int, int],
                    params: TreeParams = RT_BASELINE_PARAMS,
                    max_bins: int = 256) -> RTBaseline:
    """Fit the standalone regression-tree baseline on the fit range."""
    lo, hi = fit_range
    if hi <= lo:
        raise ValueError("empty fit range")
    bins = fit_bins(matrix.X, fit_range, max_bins)
    Xb = apply_bins(bins, matrix.X[lo:hi])
    tree = fit_cart(Xb, matrix.y[lo:hi], params)
    return RTBaseline(
        tree=tree,
        bins=bins,
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
    )
