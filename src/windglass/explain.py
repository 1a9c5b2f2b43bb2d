"""Interpretation tooling: term importances, shape/heatmap exports,
partial dependence, permutation importance, and ranking agreement.

``global_importance``/``local_explanation``/``export_*`` read the
glass-box model's own tables. ``pdp`` and ``pfi`` are model-agnostic:
they only call an opaque ``predict(X)`` function, so they apply to the
baselines as well, and they are what the cross-method consistency check
compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import bin_boundaries, bin_centers
from .glassbox import GlassBoxModel
from .metrics import nrmse

__all__ = [
    "GlobalImportanceReport",
    "LocalExplanation",
    "CurveExport",
    "PfiResult",
    "ConsistencyResult",
    "global_importance",
    "local_explanation",
    "export_shape",
    "export_pair_heatmap",
    "pdp",
    "pdp_importance",
    "pfi",
    "ranking_consistency",
]


@dataclass(frozen=True)
class GlobalImportanceReport:
    """Terms ranked by mean absolute contribution over a reference set."""

    terms: tuple[tuple[str, float], ...]

    def ordering(self) -> list[str]:
        return [name for name, _ in self.terms]

    def as_text(self) -> str:
        width = max(len(name) for name, _ in self.terms)
        lines = [f"{name:<{width}}  {score:.6f}" for name, score in self.terms]
        return "\n".join(lines)


@dataclass(frozen=True)
class LocalExplanation:
    """One forecast's exact decomposition, largest contributions first."""

    intercept: float
    contributions: tuple[tuple[str, float], ...]
    forecast: float
    actual: float | None = None

    def as_text(self) -> str:
        head = f"forecast({self.forecast:.3f})"
        if self.actual is not None:
            head = f"actual({self.actual:.3f}), {head}"
        parts = [f"{self.intercept:+.3f} (intercept)"]
        parts += [f"{v:+.3f} ({name})" for name, v in self.contributions]
        return head + " = " + " ".join(parts)


@dataclass(frozen=True)
class CurveExport:
    """Plot-ready dump of one term's lookup table.

    1-D terms fill ``x``/``values``; 2-D terms fill ``x``/``y`` with the
    axis grids and ``values`` with the contribution matrix.
    """

    name: str
    x: np.ndarray
    values: np.ndarray
    y: np.ndarray | None = None


@dataclass(frozen=True)
class PfiResult:
    """Permutation importances (mean metric increase) with their spread."""

    feature_names: tuple[str, ...]
    importances: np.ndarray
    stds: np.ndarray
    n_repeats: int

    def ordering(self) -> list[str]:
        order = np.argsort(-self.importances, kind="stable")
        return [self.feature_names[i] for i in order]


@dataclass(frozen=True)
class ConsistencyResult:
    exact_match: bool
    rank_correlation: float


# ---------------------------------------------------------------------------
# Glass-box specific views
# ---------------------------------------------------------------------------

def _resolve_feature(model: GlassBoxModel, feature) -> int:
    if isinstance(feature, str):
        try:
            return model.feature_names.index(feature)
        except ValueError:
            raise ValueError(
                f"unknown feature {feature!r}; valid names: "
                f"{', '.join(model.feature_names)}"
            ) from None
    f = int(feature)
    if not 0 <= f < model.n_features:
        raise ValueError(f"feature index {f} out of range")
    return f


def global_importance(model: GlassBoxModel, X_ref: np.ndarray) -> GlobalImportanceReport:
    """Rank every term (features and pairs) by mean |contribution|.

    Row order of the reference set cannot matter: the score is a mean
    over rows.
    """
    X_ref = np.asarray(X_ref, dtype=np.float64)
    if X_ref.ndim != 2 or len(X_ref) == 0:
        raise ValueError("reference set must be a non-empty 2-D array")
    contrib = model.term_contributions(X_ref)
    scores = np.mean(np.abs(contrib), axis=0)
    ranked = sorted(zip(model.term_names(), scores), key=lambda t: (-t[1], t[0]))
    return GlobalImportanceReport(terms=tuple((n, float(s)) for n, s in ranked))


def local_explanation(model: GlassBoxModel, row, actual=None) -> LocalExplanation:
    """Full breakdown of one forecast, sorted by |contribution|."""
    forecast, intercept, terms = model.predict_with_breakdown(row)
    terms = sorted(terms, key=lambda t: (-abs(t[1]), t[0]))
    return LocalExplanation(
        intercept=intercept,
        contributions=tuple(terms),
        forecast=forecast,
        actual=None if actual is None else float(actual),
    )


def export_shape(model: GlassBoxModel, feature, denormalize: bool = False) -> CurveExport:
    """Dump one shape function: bin centers vs contribution values.

    The export is the internal lookup table itself; evaluating it at any
    bin equals the model's term contribution there.
    """
    f = _resolve_feature(model, feature)
    centers = bin_centers(model.bins, f)
    if denormalize:
        if model.norm_params is None:
            raise ValueError("model has no normalization parameters to invert")
        centers = model.norm_params.invert_feature(f, centers)
    return CurveExport(
        name=model.feature_names[f],
        x=centers,
        values=model.shapes[f].values.copy(),
    )


def _coarse_centers(model: GlassBoxModel, f: int) -> np.ndarray:
    """Midpoints of each coarse bin's value span."""
    cmap = model.coarse_maps[f]
    b = bin_boundaries(model.bins, f)
    n_coarse = int(cmap.max()) + 1
    centers = np.empty(n_coarse)
    for c in range(n_coarse):
        members = np.flatnonzero(cmap == c)
        centers[c] = 0.5 * (b[members[0]] + b[members[-1] + 1])
    return centers


def export_pair_heatmap(model: GlassBoxModel, pair, denormalize: bool = False) -> CurveExport:
    """Dump one interaction grid with its two axis grids."""
    i = _resolve_feature(model, pair[0])
    j = _resolve_feature(model, pair[1])
    i, j = min(i, j), max(i, j)
    for pt in model.pairs:
        if (pt.i, pt.j) == (i, j):
            xi = _coarse_centers(model, i)
            xj = _coarse_centers(model, j)
            if denormalize:
                if model.norm_params is None:
                    raise ValueError("model has no normalization parameters to invert")
                xi = model.norm_params.invert_feature(i, xi)
                xj = model.norm_params.invert_feature(j, xj)
            name = f"{model.feature_names[i]} x {model.feature_names[j]}"
            return CurveExport(name=name, x=xi, y=xj, values=pt.grid.copy())
    raise ValueError(
        f"model has no interaction term for pair ({model.feature_names[i]}, "
        f"{model.feature_names[j]})"
    )


# ---------------------------------------------------------------------------
# Model-agnostic tools
# ---------------------------------------------------------------------------

def pdp(predict_fn, X: np.ndarray, feature: int, grid) -> CurveExport:
    """Partial dependence: mean prediction as one feature sweeps a grid.

    For each grid value the feature column is overwritten everywhere and
    the predictor re-evaluated, so this works for any forecaster, not
    just the glass-box model.
    """
    X = np.asarray(X, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    f = int(feature)
    if not 0 <= f < X.shape[1]:
        raise ValueError(f"feature index {f} out of range")
    curve = np.empty(len(grid))
    Xv = X.copy()
    for k, v in enumerate(grid):
        Xv[:, f] = v
        curve[k] = float(np.mean(predict_fn(Xv)))
    return CurveExport(name=f"pdp[{f}]", x=grid.copy(), values=curve)


def pdp_importance(curve: CurveExport) -> float:
    """Scalar importance of a PDP curve: its range (max - min)."""
    return float(curve.values.max() - curve.values.min())


def pfi(predict_fn, X: np.ndarray, y: np.ndarray, metric=nrmse,
        n_repeats: int = 5, seed: int = 0,
        feature_names=None) -> PfiResult:
    """Permutation feature importance.

    importance(f) = mean over repeats of
    ``metric(predict(X with column f permuted), y) - metric(predict(X), y)``.
    The default metric is NRMSE, so higher means more important.
    Permutations are seeded per (repeat, feature), making the result
    independent of evaluation order. ``feature_names``, when given, must
    name every column of ``X``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("X must be 2-D and aligned with y")
    n = X.shape[1]
    if feature_names is None:
        feature_names = tuple(f"x{f}" for f in range(n))
    elif len(feature_names) != n:
        raise ValueError(f"{len(feature_names)} feature names for {n} columns")
    base = metric(predict_fn(X), y)
    deltas = np.empty((n_repeats, n))
    for rep in range(n_repeats):
        for f in range(n):
            rng = np.random.default_rng((seed, rep, f))
            Xp = X.copy()
            Xp[:, f] = X[rng.permutation(len(X)), f]
            deltas[rep, f] = metric(predict_fn(Xp), y) - base
    return PfiResult(
        feature_names=tuple(feature_names),
        importances=deltas.mean(axis=0),
        stds=deltas.std(axis=0),
        n_repeats=n_repeats,
    )


def ranking_consistency(order_a, order_b) -> ConsistencyResult:
    """Compare two importance orderings over the same terms.

    Reports whether they match exactly plus a Spearman rank correlation
    in [-1, 1].
    """
    a = list(order_a)
    b = list(order_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("orderings must not repeat terms")
    if set(a) != set(b):
        raise ValueError("orderings cover different term universes")
    n = len(a)
    if n == 0:
        raise ValueError("empty orderings")
    if n == 1:
        return ConsistencyResult(exact_match=True, rank_correlation=1.0)
    rank_b = {t: k for k, t in enumerate(b)}
    d2 = sum((k - rank_b[t]) ** 2 for k, t in enumerate(a))
    rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    return ConsistencyResult(exact_match=(a == b), rank_correlation=rho)
