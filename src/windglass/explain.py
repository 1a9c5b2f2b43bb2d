"""Interpretation tooling: term importances, shape/heatmap exports,
partial dependence, permutation importance, and ranking agreement.

``global_importance``/``local_explanation``/``export_*`` read the
glass-box model's own tables. ``pdp`` and ``pfi`` are model-agnostic:
they only call an opaque ``predict(X)`` function, so they apply to the
baselines as well, and they are what the cross-method consistency check
compares against.

Given a glass-box model's own ``predict`` they bin the rows once and
keep every term's column of those rows. The model is additive, so a
perturbed column of feature ``f`` changes only the terms that read
``f``: ``f``'s shape function and the pair grids over ``f``. Only those
are looked up again. Each forecast starts from the intercept plus the
terms before ``f``'s shape function, a running sum kept across
perturbations, and adds every later term in term order. Those are the
float additions ``predict`` makes, in its order, so importances, stds
and curves are the generic path's, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import apply_bins, bin_boundaries, bin_centers, bin_values
from .glassbox import GlassBoxModel, PairShapeFunction
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

def _resolve_feature(model, feature) -> int:
    """Column of ``feature``, a name or index of any forecaster's ``feature_names``."""
    if isinstance(feature, str):
        try:
            return model.feature_names.index(feature)
        except ValueError:
            raise ValueError(
                f"unknown feature {feature!r}; valid names: {', '.join(model.feature_names)}"
            ) from None
    return _column_index(feature, len(model.feature_names))


def _column_index(feature, n_columns: int) -> int:
    """``feature`` as an integer index into ``n_columns`` columns, or a
    ``ValueError`` naming it and the valid range."""
    try:
        f = operator.index(feature)
    except TypeError:
        f = -1
    if not 0 <= f < n_columns:
        raise ValueError(f"feature {feature!r} is not a column index in 0..{n_columns - 1}")
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
    # The map is non-decreasing, so coarse bin c is the c-th run of its
    # main bins: it spans from the lower bound of its first bin to that
    # of the next run's first bin.
    starts = np.flatnonzero(np.diff(cmap, prepend=-1))
    return 0.5 * (b[starts] + b[np.append(starts[1:], len(cmap))])


def _pair_term(model: GlassBoxModel, pair) -> PairShapeFunction:
    """The model's interaction term for ``pair``, two feature names or
    indices in either order, or a ``ValueError`` naming the model's pairs."""
    i, j = sorted(_resolve_feature(model, f) for f in pair)
    for pt in model.pairs:
        if (pt.i, pt.j) == (i, j):
            return pt
    names = model.feature_names
    have = ", ".join(f"({names[pt.i]}, {names[pt.j]})" for pt in model.pairs)
    raise ValueError(f"model has no interaction term for pair ({names[i]}, {names[j]}); "
                     f"its pairs: {have or 'none'}")


def export_pair_heatmap(model: GlassBoxModel, pair, denormalize: bool = False) -> CurveExport:
    """Dump one interaction grid with its two axis grids."""
    pt = _pair_term(model, pair)
    xi = _coarse_centers(model, pt.i)
    xj = _coarse_centers(model, pt.j)
    if denormalize:
        if model.norm_params is None:
            raise ValueError("model has no normalization parameters to invert")
        xi = model.norm_params.invert_feature(pt.i, xi)
        xj = model.norm_params.invert_feature(pt.j, xj)
    name = f"{model.feature_names[pt.i]} x {model.feature_names[pt.j]}"
    return CurveExport(name=name, x=xi, y=xj, values=pt.grid.copy())


# ---------------------------------------------------------------------------
# Model-agnostic tools
# ---------------------------------------------------------------------------

def _perturbable(predict_fn, X: np.ndarray):
    """The matrix that :func:`pdp` and :func:`pfi` perturb, and how they
    score it, as ``(matrix, encode, score)``: ``encode(f, values)`` maps
    values of column ``f`` into the matrix, and ``score(f, column)``
    predicts the rows with column ``f`` of the matrix replaced by
    ``column`` (one entry per row, or one for every row).

    Any predictor but a :class:`GlassBoxModel`'s own bound ``predict``
    (a lambda, a wrapped or clipped ``predict``, a baseline) is called
    on a copy of ``X`` with the column replaced. For a glass-box model's
    own ``predict`` the matrix is ``X`` binned once: binning is
    element-wise (:func:`apply_bins`), so a permuted binned column, or a
    value's bin, is the binned perturbed column. ``score`` then looks up
    only the terms that read ``f`` (:meth:`GlassBoxModel._lookups`) and
    sums as the module docstring says, from the term columns of the
    unperturbed rows and one running sum of the terms before the first
    of them. That sum restarts from the intercept when a call needs
    fewer terms than it holds (once per PFI repeat). Neither the binned
    rows nor a sum per feature are copied.
    """
    model = getattr(predict_fn, "__self__", None)
    if not (isinstance(model, GlassBoxModel) and predict_fn == model.predict):
        def score(f, column):
            Xp = X.copy()
            Xp[:, f] = column
            return predict_fn(Xp)

        return X, lambda f, values: values, score

    Xb = apply_bins(model.bins, X)
    cols = list(model._lookups(Xb))
    held = [0, np.full(len(Xb), model.intercept)]  # terms summed, and their sum

    def prefix(t):
        """The intercept plus the columns of the terms before ``t``."""
        done, run = held
        if done > t:
            done, run = 0, np.full(len(Xb), model.intercept)
        for col in cols[done:t]:
            run += col
        held[:] = t, run
        return run

    def score(f, column):
        # The terms read the new column in place of the old, put back
        # before the sum.
        kept = Xb[:, f].copy()
        Xb[:, f] = column
        new = list(model._lookups(Xb, reads=f))
        Xb[:, f] = kept
        first = next((t for t, col in enumerate(new) if col is not None), len(cols))
        pred = prefix(first).copy()
        for col, old in zip(new[first:], cols[first:]):
            pred += old if col is None else col
        return pred

    return Xb, lambda f, values: bin_values(model.bins, f, values), score


def pdp(predict_fn, X: np.ndarray, feature: int, grid) -> CurveExport:
    """Partial dependence: mean prediction as one feature sweeps a grid.

    For each grid value the feature column is overwritten everywhere and
    the predictor re-evaluated, so this works for any forecaster, not
    just the glass-box model. For a :class:`GlassBoxModel`'s own bound
    ``predict`` the rows are binned once and each grid value's bin is
    scored in place of the binned column, re-adding only the terms that
    read the feature (see :func:`_perturbable`). That gives the same
    curve, bit for bit, and the same ``ValueError`` for a non-finite
    grid value.
    """
    X = np.asarray(X, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    f = _column_index(feature, X.shape[1])
    curve = np.empty(len(grid))
    # Column f as at the first grid point, so the binned path bins (and
    # rejects) exactly what the first generic call would see.
    Xv = X.copy()
    Xv[:, f] = grid[0]
    _, encode, score = _perturbable(predict_fn, Xv)
    for k, v in enumerate(encode(f, grid)):
        curve[k] = float(np.mean(score(f, v)))
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

    For a :class:`GlassBoxModel`'s own bound ``predict``, ``X`` is
    binned once and each permutation permutes the binned column and
    looks up again only the terms that read it (see
    :func:`_perturbable`), so the rows are neither binned nor copied
    per permutation; importances and stds are the same, bit for bit.
    The unpermuted score always calls ``predict_fn``.
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
    M, _, score = _perturbable(predict_fn, X)
    deltas = np.empty((n_repeats, n))
    for rep in range(n_repeats):
        for f in range(n):
            rng = np.random.default_rng((seed, rep, f))
            column = M[rng.permutation(len(M)), f]
            deltas[rep, f] = metric(score(f, column), y) - base
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
