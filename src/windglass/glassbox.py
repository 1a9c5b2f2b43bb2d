"""The glass-box additive forecaster.

A trained model is an intercept plus one lookup table per feature (shape
functions) plus one 2-D lookup table per selected feature pair
(interaction terms). Prediction is the plain sum of table lookups, so
every forecast decomposes exactly into per-term contributions.

Training is cyclic gradient boosting: each round visits every term in
round-robin order, fits a shallow bin-restricted tree to the current
residuals, and adds a small multiple of the tree's lookup table into the
term. Round-robin visits stop greedy features from absorbing their
neighbours' signal, which keeps the tables honest as explanations.
Main effects are boosted to convergence first; interaction terms are
then boosted on what is left.
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

    def _check_columns(self, X: np.ndarray):
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature columns, got shape {X.shape}"
            )

    def term_contributions(self, X: np.ndarray) -> np.ndarray:
        """Matrix of per-term contributions, columns in term order."""
        X = np.asarray(X, dtype=np.float64)
        self._check_columns(X)
        Xb = apply_bins(self.bins, X)
        cols = [sf.values[Xb[:, sf.feature]] for sf in self.shapes]
        for pt in self.pairs:
            ci = self.coarse_maps[pt.i][Xb[:, pt.i]]
            cj = self.coarse_maps[pt.j][Xb[:, pt.j]]
            cols.append(pt.grid[ci, cj])
        return np.column_stack(cols)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forecast every row: intercept plus all table lookups.

        The sum is never clamped here; clamping to [0, 1] is a
        presentation step, and doing it inside the sum would break the
        exact additivity of the breakdown.
        """
        contrib = self.term_contributions(X)
        pred = np.full(len(contrib), self.intercept)
        for k in range(contrib.shape[1]):
            pred += contrib[:, k]
        return pred

    def predict_with_breakdown(self, row) -> tuple[float, float, list[tuple[str, float]]]:
        """One row's forecast with its exact per-term decomposition.

        Returns ``(forecast, intercept, contributions)`` where summing
        the intercept and the contributions in order reproduces the
        forecast bit for bit.
        """
        row = np.asarray(row, dtype=np.float64).reshape(1, -1)
        contrib = self.term_contributions(row)[0]
        forecast = self.intercept
        for v in contrib:
            forecast += v
        terms = list(zip(self.term_names(), (float(v) for v in contrib)))
        return float(forecast), self.intercept, terms


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

class _EarlyStopper:
    """Stop after `patience` consecutive rounds without an improvement
    of at least `tol` over the best validation score seen."""

    def __init__(self, tol: float, patience: int):
        self.tol = tol
        self.patience = patience
        self.best = np.inf
        self.wait = 0

    def should_stop(self, value: float) -> bool:
        if self.best - value >= self.tol:
            self.best = value
            self.wait = 0
        else:
            self.wait += 1
        return self.wait >= self.patience


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
    n_bins = [bins.n_bins(f) for f in range(n)]

    intercept = float(y[tr].mean())
    shape_values = [np.zeros(nb) for nb in n_bins]
    cols_tr = [np.ascontiguousarray(Xb[tr, f]) for f in range(n)]
    cols_va = [np.ascontiguousarray(Xb[va, f]) for f in range(n)]
    # Bin populations never change during boosting.
    cnts = [np.bincount(cols_tr[f], minlength=n_bins[f]).astype(np.float64)
            for f in range(n)]
    r_train = y[tr] - intercept
    val_err = y[va] - intercept
    params = TreeParams(
        max_depth=config.main_depth,
        min_samples_split=config.min_samples_split,
        min_samples_leaf=config.min_samples_leaf,
        split_criterion="sse",
    )
    stopper = _EarlyStopper(config.early_stop_tol, config.early_stop_patience)
    val_curve: list[float] = []
    loss_curve: list[float] = []
    rounds = 0
    for _ in range(config.max_rounds):
        for f in range(n):
            sums = np.bincount(cols_tr[f], weights=r_train, minlength=n_bins[f])
            tree = restricted_tree_from_histogram(cnts[f], sums, (f,), params)
            delta = config.learning_rate * tree_as_bin_table(tree, {f: n_bins[f]})
            shape_values[f] += delta
            r_train -= delta[cols_tr[f]]
            val_err -= delta[cols_va[f]]
            loss_curve.append(float(np.mean(r_train ** 2)))
        rounds += 1
        val_curve.append(float(np.sqrt(np.mean(val_err ** 2))))
        if stopper.should_stop(val_curve[-1]):
            break

    # Re-center: weighted by training bin populations.
    for f in range(n):
        offset = float(cnts[f] @ shape_values[f] / cnts[f].sum())
        shape_values[f] -= offset
        intercept += offset

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


def _coarse_maps_from(Xb_train: np.ndarray, n_bins: list[int],
                      pair_bins: int) -> dict[int, np.ndarray]:
    maps = {}
    for f in range(Xb_train.shape[1]):
        pops = np.bincount(Xb_train[:, f], minlength=n_bins[f])
        maps[f] = _coarse_map(pops, pair_bins)
    return maps


def _group_mean_fit(index: np.ndarray, values: np.ndarray, size: int) -> float:
    """SSE reduction of the per-group-mean model: sum of s^2/c."""
    cnt = np.bincount(index, minlength=size).astype(np.float64)
    sums = np.bincount(index, weights=values, minlength=size)
    nz = cnt > 0
    return float(np.sum(sums[nz] ** 2 / cnt[nz]))


def _rank_with_maps(coarse, residuals, sizes) -> list[tuple[int, int, float]]:
    n = coarse.shape[1]
    marginal = [_group_mean_fit(coarse[:, f], residuals, sizes[f]) for f in range(n)]
    scored = []
    for i, j in itertools.combinations(range(n), 2):
        cell = coarse[:, i] * sizes[j] + coarse[:, j]
        pair_fit = _group_mean_fit(cell, residuals, sizes[i] * sizes[j])
        scored.append((i, j, pair_fit - marginal[i] - marginal[j]))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    return scored


def rank_interaction_pairs(X_binned: np.ndarray, residuals: np.ndarray,
                           pair_bins: int = 32, n_bins=None,
                           ) -> list[tuple[int, int, float]]:
    """Score every feature pair by how much 2-D structure it explains.

    For each pair, the strength is the SSE reduction of the best
    constant-per-cell model on the coarse (i, j) grid minus the
    reduction already available from each feature's own coarse-bin
    means. Purely additive structure therefore scores near zero. Pairs
    come back sorted by descending strength, ties broken by (i, j).
    """
    Xb = np.asarray(X_binned)
    r = np.asarray(residuals, dtype=np.float64)
    if Xb.ndim != 2 or len(Xb) != len(r):
        raise ValueError("X_binned must be 2-D and aligned with residuals")
    n = Xb.shape[1]
    if n < 2:
        raise ValueError("need at least two features to rank pairs")
    if n_bins is None:
        n_bins = [int(Xb[:, f].max()) + 1 for f in range(n)]
    cmaps = _coarse_maps_from(Xb, list(n_bins), pair_bins)
    coarse = np.column_stack([cmaps[f][Xb[:, f]] for f in range(n)])
    sizes = [int(cmaps[f].max()) + 1 for f in range(n)]
    return _rank_with_maps(coarse, r, sizes)


# ---------------------------------------------------------------------------
# Stage 2: interaction terms
# ---------------------------------------------------------------------------

def train_interactions(model: GlassBoxModel, matrix: SupervisedMatrix,
                       split: DataSplit, residuals: np.ndarray,
                       selected_pairs, config: TrainConfig,
                       coarse_maps: dict[int, np.ndarray] | None = None,
                       ) -> GlassBoxModel:
    """Boost 2-D interaction grids on the main-effects residuals.

    Same cyclic schedule and early-stopping rule as the main stage, but
    each term is a feature pair fitted with pair-restricted trees over
    coarse bins. Grids are re-centered to training-weighted mean zero at
    the end, offsets folded into the intercept.
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
    n_bins = [model.bins.n_bins(f) for f in range(n)]
    tr, va = split.train_slice, split.val_slice
    if coarse_maps is None:
        coarse_maps = _coarse_maps_from(Xb[tr], n_bins, config.pair_bins)
    coarse = np.column_stack([coarse_maps[f][Xb[:, f]] for f in range(n)])
    sizes = [int(coarse_maps[f].max()) + 1 for f in range(n)]

    C_tr, C_va = coarse[tr], coarse[va]
    r_train = np.asarray(residuals, dtype=np.float64)[tr].copy()
    val_err = np.asarray(residuals, dtype=np.float64)[va].copy()
    grids = {p: np.zeros((sizes[p[0]], sizes[p[1]])) for p in pairs}
    # Flattened cell index and (constant) cell populations per pair.
    cell_tr = {(i, j): np.ascontiguousarray(C_tr[:, i] * sizes[j] + C_tr[:, j])
               for (i, j) in pairs}
    cell_va = {(i, j): np.ascontiguousarray(C_va[:, i] * sizes[j] + C_va[:, j])
               for (i, j) in pairs}
    cnts = {p: np.bincount(cell_tr[p], minlength=sizes[p[0]] * sizes[p[1]])
            .astype(np.float64).reshape(sizes[p[0]], sizes[p[1]])
            for p in pairs}
    params = TreeParams(
        max_depth=config.pair_depth,
        min_samples_split=config.min_samples_split,
        min_samples_leaf=config.min_samples_leaf,
        split_criterion="sse",
    )
    stopper = _EarlyStopper(config.early_stop_tol, config.early_stop_patience)
    val_curve: list[float] = []
    loss_curve: list[float] = []
    rounds = 0
    for _ in range(config.max_rounds):
        for (i, j) in pairs:
            sum2 = np.bincount(cell_tr[(i, j)], weights=r_train,
                               minlength=sizes[i] * sizes[j]
                               ).reshape(sizes[i], sizes[j])
            tree = restricted_tree_from_histogram(cnts[(i, j)], sum2, (i, j), params)
            delta = config.learning_rate * tree_as_bin_table(
                tree, {i: sizes[i], j: sizes[j]})
            grids[(i, j)] += delta
            flat = delta.ravel()
            r_train -= flat[cell_tr[(i, j)]]
            val_err -= flat[cell_va[(i, j)]]
            loss_curve.append(float(np.mean(r_train ** 2)))
        rounds += 1
        val_curve.append(float(np.sqrt(np.mean(val_err ** 2))))
        if stopper.should_stop(val_curve[-1]):
            break

    intercept = model.intercept
    for (i, j) in pairs:
        w = cnts[(i, j)]
        offset = float(np.sum(w * grids[(i, j)]) / w.sum())
        grids[(i, j)] -= offset
        intercept += offset

    return replace(
        model,
        intercept=intercept,
        pairs=tuple(PairShapeFunction(i, j, grids[(i, j)]) for (i, j) in pairs),
        coarse_maps={f: coarse_maps[f] for f in sorted(coarse_maps)},
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


def _train_single(matrix, split, bins, config, coarse_maps=None) -> GlassBoxModel:
    Xb = apply_bins(bins, matrix.X)
    model, residuals = _train_main_effects(matrix, split, bins, config, Xb)
    k = _resolve_budget(config.interaction_budget, matrix.n_features)
    if k == 0 or matrix.n_features < 2:
        return model
    n_bins = [bins.n_bins(f) for f in range(matrix.n_features)]
    cmaps = coarse_maps
    if cmaps is None:
        cmaps = _coarse_maps_from(Xb[split.train_slice], n_bins, config.pair_bins)
    coarse_tr = np.column_stack(
        [cmaps[f][Xb[split.train_slice, f]] for f in range(matrix.n_features)])
    sizes = [int(cmaps[f].max()) + 1 for f in range(matrix.n_features)]
    ranked = _rank_with_maps(coarse_tr, residuals[split.train_slice], sizes)
    selected = [(i, j) for i, j, _ in ranked[:k]]
    return train_interactions(model, matrix, split, residuals, selected,
                              config, coarse_maps=cmaps)


def train(matrix: SupervisedMatrix, split: DataSplit,
          config: TrainConfig | None = None,
          bins: BinningMap | None = None) -> GlassBoxModel:
    """Train the full glass-box model: binning, main effects,
    interaction selection, and interaction boosting.

    With ``bagging_count > 1`` the training rows are bootstrap-resampled
    per bag (validation rows untouched), the bagged tables averaged, and
    the result re-centered against the original training populations.
    Deterministic for a fixed config, seed, and data.
    """
    config = config or TrainConfig()
    if bins is None:
        bins = fit_bins(matrix.X, split.train, config.max_bins)
    if config.bagging_count == 1:
        return _train_single(matrix, split, bins, config)
    return _train_bagged(matrix, split, bins, config)


def _train_bagged(matrix, split, bins, config) -> GlassBoxModel:
    n = matrix.n_features
    lo, hi = split.train
    nb = [bins.n_bins(f) for f in range(n)]

    # One coarse mapping shared by every bag, from the true training
    # rows, so the bags' pair grids line up for averaging.
    Xb = apply_bins(bins, matrix.X)
    Xb_tr = Xb[split.train_slice]
    cmaps = _coarse_maps_from(Xb_tr, nb, config.pair_bins)
    sizes = [int(cmaps[f].max()) + 1 for f in range(n)]

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
        bag_models.append(_train_single(bag_matrix, split, bins, config,
                                        coarse_maps=cmaps))

    k = 1.0 / len(bag_models)
    intercept = sum(m.intercept for m in bag_models) * k
    shape_values = [np.zeros(nb[f]) for f in range(n)]
    for m in bag_models:
        for sf in m.shapes:
            shape_values[sf.feature] += k * sf.values

    pair_keys = sorted({(pt.i, pt.j) for m in bag_models for pt in m.pairs})
    grids = {p: np.zeros((sizes[p[0]], sizes[p[1]])) for p in pair_keys}
    for m in bag_models:
        for pt in m.pairs:
            grids[(pt.i, pt.j)] += k * pt.grid

    # Re-center everything against the true training populations.
    for f in range(n):
        w = np.bincount(Xb_tr[:, f], minlength=nb[f]).astype(np.float64)
        offset = float(w @ shape_values[f] / w.sum())
        shape_values[f] -= offset
        intercept += offset
    for (i, j) in pair_keys:
        w = np.bincount(cmaps[i][Xb_tr[:, i]] * sizes[j] + cmaps[j][Xb_tr[:, j]],
                        minlength=sizes[i] * sizes[j]).astype(np.float64)
        offset = float(np.sum(w.reshape(sizes[i], sizes[j]) * grids[(i, j)]) / w.sum())
        grids[(i, j)] -= offset
        intercept += offset

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
