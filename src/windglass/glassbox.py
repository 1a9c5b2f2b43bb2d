"""The glass-box additive forecaster.

A trained model is an intercept plus one lookup table per feature (shape
functions) plus one 2-D lookup table per selected feature pair
(interaction terms). Prediction is the plain sum of table lookups, so
every forecast decomposes exactly into per-term contributions.

The term order (shape functions by feature index, then pairs) is written
once, in ``GlassBoxModel._lookups``. A forecast starts at the intercept
and adds one term's lookup at a time in that order; the breakdown adds
the same floats in the same order, so the two agree bit for bit. Inputs
are binned once per call, and a non-finite input raises ``ValueError``
rather than landing in an edge bin.

Training is cyclic gradient boosting: each round visits every term in
round-robin order, fits a shallow bin-restricted tree to the current
residuals, and adds a small multiple of the tree's lookup table into the
term. Round-robin visits stop greedy features from absorbing their
neighbours' signal, which keeps the tables honest as explanations.
Main effects are boosted to convergence first; interaction terms are
then boosted on what is left.

Both stages run the same engine, :func:`_boost`. A term is a tuple of
features with a table of one axis (a shape function over bins) or two
(a pair grid over coarse bins), and each row reaches its cell by a flat
index into that table; :func:`_pair_cells` builds a pair's cells.
:func:`_center` re-centers the tables of either stage, and of a bagged
average, to training-weighted mean zero. A feature's coarse bins are a
function of its binning (:func:`_coarse_maps`): its main bins grouped
into runs of near-equal ``BinningMap.populations``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .data import BinningMap, DataSplit, NormParams, SupervisedMatrix, apply_bins, fit_bins
from .trees import TreeParams, restricted_tree_from_histogram, tree_as_bin_table

__all__ = [
    "TrainConfig",
    "ShapeFunction",
    "PairShapeFunction",
    "GlassBoxModel",
    "train",
    "train_main_effects",
    "rank_interaction_pairs",
    "train_interactions",
]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters.

    ``interaction_budget`` is the pair budget: ``"auto"`` keeps every pair
    when there are at most 12 features and the 10 strongest otherwise,
    ``"all"`` keeps every pair, an integer keeps that many (0 disables
    interactions entirely). ``bagging_count > 1`` averages that many
    boosted models fitted on bootstrap resamples of the training rows;
    the default trains a single model on the data as given.
    """

    learning_rate: float = 0.001
    max_rounds: int = 5000
    early_stop_tol: float = 1e-4
    early_stop_patience: int = 50
    min_samples_split: int = 5
    min_samples_leaf: int = 1
    main_depth: int = 2
    pair_depth: int = 3
    max_bins: int = 256
    pair_bins: int = 32
    interaction_budget: int | str = "auto"
    bagging_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.early_stop_tol < 0:
            raise ValueError("early_stop_tol must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.max_bins < 2 or self.pair_bins < 2:
            raise ValueError("bin counts must be >= 2")
        if self.bagging_count < 1:
            raise ValueError("bagging_count must be >= 1")
        if isinstance(self.interaction_budget, str):
            if self.interaction_budget not in ("auto", "all"):
                raise ValueError(
                    "interaction_budget must be 'auto', 'all', or a count")
        elif self.interaction_budget < 0:
            raise ValueError("interaction budget must be >= 0")


@dataclass(frozen=True)
class ShapeFunction:
    """Per-bin additive contribution of one feature."""

    feature: int
    values: np.ndarray


@dataclass(frozen=True)
class PairShapeFunction:
    """Additive contribution grid of one feature pair over coarse bins."""

    i: int
    j: int
    grid: np.ndarray


@dataclass(frozen=True)
class GlassBoxModel:
    """Intercept + shape functions + pair grids, with the binning and
    normalization needed to apply them.

    The prediction is structurally additive: ``predict`` equals the
    intercept plus the sum of every term's lookup, which is exactly what
    ``predict_with_breakdown`` itemizes. Every table is centered to
    training-weighted mean zero, so (without bagging) the intercept is
    the training-set target mean. Instances are immutable and safe for
    concurrent prediction.
    """

    intercept: float
    shapes: tuple[ShapeFunction, ...]
    pairs: tuple[PairShapeFunction, ...]
    coarse_maps: dict[int, np.ndarray]
    bins: BinningMap
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None
    config: TrainConfig = field(default_factory=TrainConfig)
    rounds_main: int = 0
    rounds_pairs: int = 0
    val_curve_main: tuple[float, ...] = ()
    val_curve_pairs: tuple[float, ...] = ()
    train_loss_curve: tuple[float, ...] = ()

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def term_names(self) -> list[str]:
        """Canonical term order: features by index, then pairs."""
        names = [self.feature_names[sf.feature] for sf in self.shapes]
        names += [f"{self.feature_names[pt.i]} x {self.feature_names[pt.j]}"
                  for pt in self.pairs]
        return names

    def _lookups(self, X):
        """Bin ``X`` once and yield each term's per-row contribution in
        term order: shape functions by feature index, then pairs.

        This is the one place that order is written down; ``predict``,
        ``predict_with_breakdown`` and ``term_contributions`` all read
        their terms from here. :func:`apply_bins` checks the column
        count and rejects non-finite values.
        """
        Xb = apply_bins(self.bins, X)
        for sf in self.shapes:
            yield sf.values[Xb[:, sf.feature]]
        cmaps = self.coarse_maps
        for pt in self.pairs:
            yield pt.grid[cmaps[pt.i][Xb[:, pt.i]], cmaps[pt.j][Xb[:, pt.j]]]

    def term_contributions(self, X: np.ndarray) -> np.ndarray:
        """Matrix of per-term contributions, columns in term order."""
        return np.column_stack(list(self._lookups(X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forecast every row: intercept plus all table lookups.

        Each row's sum starts at the intercept and adds the terms one at
        a time in term order, the same float additions that
        ``predict_with_breakdown`` itemizes, so the two agree bit for
        bit. Non-finite inputs raise ``ValueError`` (see
        :func:`apply_bins`).

        The sum is never clamped here; clamping to [0, 1] is a
        presentation step, and doing it inside the sum would break the
        exact additivity of the breakdown.
        """
        X = np.asarray(X, dtype=np.float64)
        # ``shape[:1]``, not ``len``: a 0-d input must reach the column check.
        pred = np.full(X.shape[:1], self.intercept)
        for col in self._lookups(X):
            pred += col
        return pred

    def predict_with_breakdown(self, row) -> tuple[float, float, list[tuple[str, float]]]:
        """One row's forecast with its exact per-term decomposition.

        Returns ``(forecast, intercept, contributions)`` where summing
        the intercept and the contributions in order reproduces the
        forecast bit for bit, and equals ``predict`` on that row.
        """
        row = np.asarray(row, dtype=np.float64).reshape(1, -1)
        contrib = [c.item() for c in self._lookups(row)]
        forecast = self.intercept
        for v in contrib:
            forecast += v
        return float(forecast), self.intercept, list(zip(self.term_names(), contrib))


# ---------------------------------------------------------------------------
# The cyclic boosting engine
# ---------------------------------------------------------------------------

def _boost(terms, cells_tr, cells_va, cnts, r_train, val_err, depth, config):
    """Cyclic boosting of additive lookup-table terms.

    Term ``t`` is the feature tuple ``terms[t]`` with the training count
    table ``cnts[t]``: one axis for a shape function, two for a pair
    grid. ``cells_tr[t]``/``cells_va[t]`` give each training/validation
    row's cell as a flat index into that table. Each round visits the
    terms in order, fits a depth-``depth`` tree restricted to the term's
    features on the residual histogram, and adds ``learning_rate`` times
    its lookup table to the term, updating ``r_train`` and ``val_err``
    in place. Rounds stop at ``max_rounds`` or after
    ``early_stop_patience`` rounds whose validation RMSE fails to beat
    the best seen by ``early_stop_tol``.

    Returns the tables, the round count, the per-round validation curve
    and the per-step training loss curve.
    """
    params = TreeParams(
        max_depth=depth,
        min_samples_split=config.min_samples_split,
        min_samples_leaf=config.min_samples_leaf,
        split_criterion="sse",
    )
    tables = [np.zeros(cnt.shape) for cnt in cnts]
    # Everything a step reads that never changes is built before the
    # rounds; the boosting loop is the training hot path.
    steps =[(term, cnt, dict(zip(term, cnt.shape)), table, c_tr, c_va)
             for term, cnt, table, c_tr, c_va
             in zip(terms, cnts, tables, cells_tr, cells_va)]
    best, wait = np.inf, 0
    val_curve: list[float] = []
    loss_curve: list[float] = []
    rounds = 0
    for _ in range(config.max_rounds):
        for term, cnt, term_bins, table, c_tr, c_va in steps:
            sums = np.bincount(c_tr, weights=r_train, minlength=cnt.size
                               ).reshape(cnt.shape)
            tree = restricted_tree_from_histogram(cnt, sums, term, params)
            delta = config.learning_rate * tree_as_bin_table(tree, term_bins)
            table += delta
            flat = delta.ravel()
            r_train -= flat[c_tr]
            val_err -= flat[c_va]
            loss_curve.append(float(np.mean(r_train ** 2)))
        rounds += 1
        val_curve.append(float(np.sqrt(np.mean(val_err ** 2))))
        if best - val_curve[-1] >= config.early_stop_tol:
            best, wait = val_curve[-1], 0
        else:
            wait += 1
        if wait >= config.early_stop_patience:
            break
    return tables, rounds, val_curve, loss_curve


def _cell_counts(cells: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Rows per cell of a term's table, given each row's flat cell."""
    return (np.bincount(cells, minlength=int(np.prod(shape)))
            .astype(np.float64).reshape(shape))


def _center(tables, weights, intercept: float) -> float:
    """Shift each table in place to ``weights``-weighted mean zero and
    return ``intercept`` plus the offsets, which leaves predictions
    untouched. Shape functions and grids keep their own summation
    (``w @ t`` and ``np.sum(w * t)``), which the model bytes depend on."""
    for t, w in zip(tables, weights):
        total = w @ t if t.ndim == 1 else np.sum(w * t)
        offset = float(total / w.sum())
        t -= offset
        intercept += offset
    return intercept


# ---------------------------------------------------------------------------
# Stage 1: main effects
# ---------------------------------------------------------------------------

def train_main_effects(matrix: SupervisedMatrix, split: DataSplit,
                       bins: BinningMap, config: TrainConfig,
                       ) -> tuple[GlassBoxModel, np.ndarray]:
    """Boost the per-feature shape functions.

    The intercept starts at the training target mean; each round cycles
    the features in index order, fits a shallow single-feature tree to
    the residuals, and adds ``learning_rate`` times its lookup table to
    that feature's shape. Rounds stop at ``max_rounds`` or when
    validation NRMSE stops improving. Finally every shape is re-centered
    to training-weighted mean zero, with offsets folded into the
    intercept (which leaves predictions untouched).

    Returns the interaction-free model and the residual vector over all
    rows of ``matrix`` (input to the interaction stage).
    """
    return _train_main_effects(matrix, split, bins, config, apply_bins(bins, matrix.X))


def _train_main_effects(matrix, split, bins, config, Xb):
    """:func:`train_main_effects` on the already binned ``Xb``."""
    if split.n_rows != matrix.n_rows:
        raise ValueError("split does not match matrix row count")
    y = matrix.y
    tr, va = split.train_slice, split.val_slice
    n = matrix.n_features
    intercept = float(y[tr].mean())
    cells_tr = [np.ascontiguousarray(Xb[tr, f]) for f in range(n)]
    cells_va = [np.ascontiguousarray(Xb[va, f]) for f in range(n)]
    cnts = [_cell_counts(cells_tr[f], (bins.n_bins(f),)) for f in range(n)]
    shape_values, rounds, val_curve, loss_curve = _boost(
        [(f,) for f in range(n)], cells_tr, cells_va, cnts,
        y[tr] - intercept, y[va] - intercept, config.main_depth, config)
    intercept = _center(shape_values, cnts, intercept)

    model = GlassBoxModel(
        intercept=intercept,
        shapes=tuple(ShapeFunction(f, shape_values[f]) for f in range(n)),
        pairs=(),
        coarse_maps={},
        bins=bins,
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
        config=config,
        rounds_main=rounds,
        val_curve_main=tuple(val_curve),
        train_loss_curve=tuple(loss_curve),
    )
    residuals = y - intercept
    for f in range(n):
        residuals = residuals - shape_values[f][Xb[:, f]]
    return model, residuals


# ---------------------------------------------------------------------------
# Interaction selection
# ---------------------------------------------------------------------------

def _coarse_map(populations: np.ndarray, target_bins: int) -> np.ndarray:
    """Monotone map from main bins to at most ``target_bins`` coarse
    bins with near-equal population mass."""
    nb = len(populations)
    if nb <= target_bins:
        return np.arange(nb)
    pops = populations.astype(np.float64)
    mid = np.cumsum(pops) - pops / 2.0
    c = np.floor(mid / pops.sum() * target_bins).astype(np.int64)
    c = np.clip(c, 0, target_bins - 1)
    _, c = np.unique(c, return_inverse=True)  # compress to 0..K-1, order kept
    return c


def _coarse_maps(bins: BinningMap, pair_bins: int) -> dict[int, np.ndarray]:
    """Every feature's coarse map, from the populations its bins were
    fit on (the training rows, when ``train`` fits them)."""
    return {f: _coarse_map(pops, pair_bins) for f, pops in enumerate(bins.populations)}


def _coarse(Xb: np.ndarray, cmaps: dict[int, np.ndarray]):
    """Every row's coarse bin per feature, and each feature's coarse
    bin count."""
    n = Xb.shape[1]
    coarse = np.column_stack([cmaps[f][Xb[:, f]] for f in range(n)])
    return coarse, [int(cmaps[f].max()) + 1 for f in range(n)]


def _pair_cells(coarse: np.ndarray, sizes: list[int], pairs):
    """Yield each pair's grid shape and every row's flat cell in that
    grid, one pair at a time."""
    for i, j in pairs:
        yield (sizes[i], sizes[j]), coarse[:, i] * sizes[j] + coarse[:, j]


def _group_mean_fit(index: np.ndarray, values: np.ndarray, size: int) -> float:
    """SSE reduction of the per-group-mean model: sum of s^2/c."""
    cnt = np.bincount(index, minlength=size).astype(np.float64)
    sums = np.bincount(index, weights=values, minlength=size)
    nz = cnt > 0
    return float(np.sum(sums[nz] ** 2 / cnt[nz]))


def _rank_pairs(Xb, residuals, cmaps) -> list[tuple[int, int, float]]:
    """:func:`rank_interaction_pairs` of the binned rows ``Xb`` under
    the coarse maps ``cmaps``."""
    coarse, sizes = _coarse(Xb, cmaps)
    n = coarse.shape[1]
    marginal = [_group_mean_fit(coarse[:, f], residuals, sizes[f]) for f in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    scored = []
    for (i, j), ((si, sj), cell) in zip(pairs, _pair_cells(coarse, sizes, pairs)):
        pair_fit = _group_mean_fit(cell, residuals, si * sj)
        scored.append((i, j, pair_fit - marginal[i] - marginal[j]))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    return scored


def rank_interaction_pairs(X_binned: np.ndarray, residuals: np.ndarray,
                           pair_bins: int = 32) -> list[tuple[int, int, float]]:
    """Score every feature pair by how much 2-D structure it explains.

    For each pair, the strength is the SSE reduction of the best
    constant-per-cell model on the coarse (i, j) grid minus the
    reduction already available from each feature's own coarse-bin
    means. Purely additive structure therefore scores near zero. Pairs
    come back sorted by descending strength, ties broken by (i, j).
    Coarse bins come from ``X_binned``'s own per-bin row counts.
    """
    Xb = np.asarray(X_binned)
    r = np.asarray(residuals, dtype=np.float64)
    if Xb.ndim != 2 or len(Xb) != len(r):
        raise ValueError("X_binned must be 2-D and aligned with residuals")
    n = Xb.shape[1]
    if n < 2:
        raise ValueError("need at least two features to rank pairs")
    cmaps = {f: _coarse_map(np.bincount(Xb[:, f]), pair_bins) for f in range(n)}
    return _rank_pairs(Xb, r, cmaps)


# ---------------------------------------------------------------------------
# Stage 2: interaction terms
# ---------------------------------------------------------------------------

def train_interactions(model: GlassBoxModel, matrix: SupervisedMatrix,
                       split: DataSplit, residuals: np.ndarray,
                       selected_pairs, config: TrainConfig) -> GlassBoxModel:
    """Boost 2-D interaction grids on the main-effects residuals.

    Same cyclic schedule and early-stopping rule as the main stage, but
    each term is a feature pair fitted with pair-restricted trees over
    coarse bins: runs of main bins of near-equal ``model.bins.populations``,
    i.e. of the rows the bins were fit on. Grids are re-centered to
    training-weighted mean zero, offsets folded into the intercept.
    """
    n = model.n_features
    pairs: list[tuple[int, int]] = []
    for p in selected_pairs:
        i, j = int(p[0]), int(p[1])
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid feature pair ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in pairs:
            raise ValueError(f"duplicate pair {key}")
        pairs.append(key)
    if not pairs:
        return model

    Xb = apply_bins(model.bins, matrix.X)
    tr, va = split.train_slice, split.val_slice
    cmaps = _coarse_maps(model.bins, config.pair_bins)
    coarse, sizes = _coarse(Xb, cmaps)
    shapes, cells_tr = zip(*_pair_cells(coarse[tr], sizes, pairs))
    cells_va = [cell for _, cell in _pair_cells(coarse[va], sizes, pairs)]
    cnts = [_cell_counts(c, shape) for c, shape in zip(cells_tr, shapes)]
    r = np.asarray(residuals, dtype=np.float64)
    grids, rounds, val_curve, loss_curve = _boost(
        pairs, cells_tr, cells_va, cnts, r[tr].copy(), r[va].copy(),
        config.pair_depth, config)
    intercept = _center(grids, cnts, model.intercept)

    return replace(
        model,
        intercept=intercept,
        pairs=tuple(PairShapeFunction(i, j, g) for (i, j), g in zip(pairs, grids)),
        coarse_maps=cmaps,
        rounds_pairs=rounds,
        val_curve_pairs=tuple(val_curve),
        train_loss_curve=model.train_loss_curve + tuple(loss_curve),
    )


# ---------------------------------------------------------------------------
# Full training
# ---------------------------------------------------------------------------

def _resolve_budget(budget, n: int) -> int:
    total = n * (n - 1) // 2
    if budget == "all":
        return total
    if budget == "auto":
        return total if n <= 12 else min(10, total)
    return min(int(budget), total)


def _train_single(matrix, split, bins, config, Xb) -> GlassBoxModel:
    model, residuals = _train_main_effects(matrix, split, bins, config, Xb)
    k = _resolve_budget(config.interaction_budget, matrix.n_features)
    if k == 0 or matrix.n_features < 2:
        return model
    tr = split.train_slice
    ranked = _rank_pairs(Xb[tr], residuals[tr], _coarse_maps(bins, config.pair_bins))
    selected = [(i, j) for i, j, _ in ranked[:k]]
    return train_interactions(model, matrix, split, residuals, selected, config)


def train(matrix: SupervisedMatrix, split: DataSplit,
          config: TrainConfig | None = None,
          bins: BinningMap | None = None) -> GlassBoxModel:
    """Train the full glass-box model: binning, main effects,
    interaction selection, and interaction boosting.

    With ``bagging_count > 1`` the training rows are bootstrap-resampled
    per bag (validation rows untouched), the bagged tables averaged, and
    the result re-centered against the original training populations.
    Deterministic for a fixed config, seed, and data. ``bins`` defaults
    to bins fit on ``split.train``; coarse bins and bagged re-centering
    follow ``bins.populations``, the rows the bins were fit on.
    """
    config = config or TrainConfig()
    if bins is None:
        bins = fit_bins(matrix.X, split.train, config.max_bins)
    Xb = apply_bins(bins, matrix.X)
    if config.bagging_count == 1:
        return _train_single(matrix, split, bins, config, Xb)
    return _train_bagged(matrix, split, bins, config, Xb)


def _train_bagged(matrix, split, bins, config, Xb) -> GlassBoxModel:
    n = matrix.n_features
    lo, hi = split.train

    bag_models = []
    for b in range(config.bagging_count):
        rng = np.random.default_rng((config.seed, b))
        take = np.sort(rng.integers(lo, hi, size=hi - lo))
        order = np.concatenate([take, np.arange(hi, split.n_rows)])
        bag_matrix = SupervisedMatrix(
            X=matrix.X[order],
            y=matrix.y[order],
            feature_names=matrix.feature_names,
            norm_params=matrix.norm_params,
        )
        bag_models.append(_train_single(bag_matrix, split, bins, config, Xb[order]))

    k = 1.0 / len(bag_models)
    intercept = sum(m.intercept for m in bag_models) * k
    shape_values = [np.zeros(bins.n_bins(f)) for f in range(n)]
    for m in bag_models:
        for sf in m.shapes:
            shape_values[sf.feature] += k * sf.values

    # Every bag shares the binning, so their coarse maps and pair grids
    # line up for averaging.
    cmaps = _coarse_maps(bins, config.pair_bins)
    coarse_tr, sizes = _coarse(Xb[lo:hi], cmaps)
    pair_keys = sorted({(pt.i, pt.j) for m in bag_models for pt in m.pairs})
    grids = {p: np.zeros((sizes[p[0]], sizes[p[1]])) for p in pair_keys}
    for m in bag_models:
        for pt in m.pairs:
            grids[(pt.i, pt.j)] += k * pt.grid

    # Re-center everything against the true training populations.
    weights = [pops.astype(np.float64) for pops in bins.populations]
    weights += [_cell_counts(cell, shape)
                for shape, cell in _pair_cells(coarse_tr, sizes, pair_keys)]
    intercept = _center(shape_values + list(grids.values()), weights, intercept)

    return GlassBoxModel(
        intercept=intercept,
        shapes=tuple(ShapeFunction(f, shape_values[f]) for f in range(n)),
        pairs=tuple(PairShapeFunction(i, j, grids[(i, j)]) for (i, j) in pair_keys),
        coarse_maps=cmaps if pair_keys else {},
        bins=bins,
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
        config=config,
        rounds_main=max(m.rounds_main for m in bag_models),
        rounds_pairs=max(m.rounds_pairs for m in bag_models),
    )
