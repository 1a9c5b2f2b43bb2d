"""The glass-box additive forecaster.

A trained model is an intercept plus one lookup table per feature (shape
functions) plus one 2-D lookup table per selected feature pair
(interaction terms). Prediction is the plain sum of table lookups, so
every forecast decomposes exactly into per-term contributions.

The term order (shape functions by feature index, then pairs) is written
once, in ``GlassBoxModel._lookups``, which reads binned rows. A forecast
starts at the intercept and adds one term's lookup at a time in that
order (``_predict_binned``); the breakdown adds the same floats in the
same order, so the two agree bit for bit. A batch is binned once per
call by :func:`apply_bins`, a few gathers over all features at once
from the binning's cell index (``BinningMap.cells``, built once per
binning). A one-row breakdown instead counts the edges each value
reaches in one comparison with the index's padded edge matrix
(:func:`bin_row`), and reads its shape terms in one gather; those
arrays and the term names are built once per model
(``GlassBoxModel._one_row``). Either way a non-finite input raises
``ValueError`` rather than landing in an edge bin.

Training is cyclic gradient boosting: each round visits every term in
round-robin order, fits a shallow bin-restricted tree's lookup table to
the current residuals' histogram (:func:`.trees.histogram_table`), and
adds a small multiple of that table into the term. Round-robin visits
stop greedy features from absorbing their neighbours' signal, which
keeps the tables honest as explanations. Main effects are boosted to
convergence first; interaction terms are then boosted on what is left.

Both stages run the same engine, :func:`_boost`, on rows :func:`train`
bins once (a bag indexes them). A term is a table of one axis (a shape
function over bins) or two (a pair grid over coarse bins, each row's
cell read from its two features' coarse maps by :func:`_pair_cells`).
A stage hands it every row's flat cell in each table and every row's
residual; it checks them against the split, counts training rows per
cell, boosts, and centers the tables with :func:`_center`, which also
serves a bagged average. A feature's coarse
bins are derived once per fit, never stored (``GlassBoxModel.coarse_maps``,
every feature's in one pass): its main bins grouped into runs of
near-equal ``BinningMap.populations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .data import (BinningMap, DataSplit, NormParams, SupervisedMatrix, _fit_binned,
                   _integer, apply_bins, bin_row)
from .trees import TreeParams, histogram_table

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


# The types each annotation of a TrainConfig field admits (never bool,
# though it is an int).
_FIELD_KINDS = {"float": (int, float, np.integer, np.floating),
                "int": (int, np.integer), "int | str": (int, np.integer, str)}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters.

    ``interaction_budget`` is the pair budget: ``"auto"`` keeps every pair
    when there are at most 12 features and the 10 strongest otherwise,
    ``"all"`` keeps every pair, an integer keeps that many (0 disables
    interactions entirely). ``bagging_count > 1`` averages that many
    boosted models fitted on bootstrap resamples of the training rows;
    the default trains a single model on the data as given.

    Each field must hold its type: an integer (Python or numpy, never a
    bool) in an integer field, and a real number (an integer included)
    in a float field. ``TypeError`` otherwise, so a model file whose
    config says ``"max_rounds": true`` or ``"seed": 1.0`` is refused.
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
        for fld in fields(self):
            value = getattr(self, fld.name)
            kinds = _FIELD_KINDS[fld.type]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{fld.name} must be {fld.type}, got {value!r}")
            # A numpy scalar is kept as the Python number it equals, which
            # the model file can hold.
            if isinstance(value, np.integer):
                object.__setattr__(self, fld.name, int(value))
            elif isinstance(value, np.floating):
                object.__setattr__(self, fld.name, float(value))
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not 0 <= self.early_stop_tol < np.inf:
            raise ValueError("early_stop_tol must be finite and >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.max_bins < 2 or self.pair_bins < 2:
            raise ValueError("bin counts must be >= 2")
        if self.bagging_count < 1:
            raise ValueError("bagging_count must be >= 1")
        if self.seed < 0 and self.bagging_count > 1:
            raise ValueError("seed must be >= 0 when bagging_count > 1")
        for depth in (self.main_depth, self.pair_depth):
            self._tree_params(depth)
        if isinstance(self.interaction_budget, str):
            if self.interaction_budget not in ("auto", "all"):
                raise ValueError(
                    "interaction_budget must be 'auto', 'all', or a count")
        elif self.interaction_budget < 0:
            raise ValueError("interaction budget must be >= 0")

    def _tree_params(self, depth: int) -> TreeParams:
        """A boosting tree's settings; TreeParams checks them."""
        return TreeParams(max_depth=depth, min_samples_split=self.min_samples_split,
                          min_samples_leaf=self.min_samples_leaf)


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
    bins: BinningMap
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None
    config: TrainConfig = field(default_factory=TrainConfig)
    rounds_main: int = 0
    rounds_pairs: int = 0
    val_curve_main: tuple[float, ...] = ()
    val_curve_pairs: tuple[float, ...] = ()

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def coarse_maps(self) -> dict[int, np.ndarray]:
        """Each feature's main bins grouped into at most ``pair_bins``
        runs of near-equal ``bins.populations``; derived on first read."""
        return _coarse_maps(self.bins.populations, self.config.pair_bins)

    def term_names(self) -> list[str]:
        """Canonical term order: features by index, then pairs."""
        names = [self.feature_names[sf.feature] for sf in self.shapes]
        names += [f"{self.feature_names[pt.i]} x {self.feature_names[pt.j]}"
                  for pt in self.pairs]
        return names

    def _lookups(self, Xb, reads=None):
        """Yield each term's per-row contribution to the binned rows
        ``Xb`` (:func:`apply_bins`) in term order: shape functions by
        feature index, then pairs. Given a feature index ``reads``, only
        the terms that read that feature are looked up; every other term
        yields ``None``.

        This is the one place that order is written down; ``predict``,
        ``term_contributions``, ``_predict_binned`` and the permutation
        scorer of :mod:`.explain` all read their terms from here, and
        :func:`_one_row_tables` lays out the same terms in the same
        order for ``predict_with_breakdown``.
        """
        for sf in self.shapes:
            if reads is None or reads == sf.feature:
                yield sf.values[Xb[:, sf.feature]]
            else:
                yield None
        for pt in self.pairs:
            if reads is None or reads == pt.i or reads == pt.j:
                ci, cj = self.coarse_maps[pt.i], self.coarse_maps[pt.j]
                yield pt.grid[ci[Xb[:, pt.i]], cj[Xb[:, pt.j]]]
            else:
                yield None

    def term_contributions(self, X: np.ndarray) -> np.ndarray:
        """Matrix of per-term contributions, columns in term order."""
        return np.column_stack(list(self._lookups(apply_bins(self.bins, X))))

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
        return self._predict_binned(apply_bins(self.bins, X))

    def _predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """:meth:`predict` of rows already binned by :func:`apply_bins`."""
        pred = np.full(len(Xb), self.intercept)
        for col in self._lookups(Xb):
            pred += col
        return pred

    def predict_with_breakdown(self, row) -> tuple[float, float, list[tuple[str, float]]]:
        """One row's forecast with its exact per-term decomposition.

        Returns ``(forecast, intercept, contributions)`` where summing
        the intercept and the contributions in order reproduces the
        forecast bit for bit, and equals ``predict`` on that row.

        The row is binned by :func:`bin_row`, which raises as
        :func:`apply_bins` does; each term reads the cell
        :meth:`_lookups` reads, in the same order.
        """
        t = self._one_row
        bins = bin_row(self.bins, row)
        contrib = t.shape_values[t.shape_starts + bins[t.shape_features]].tolist()
        bins = bins.tolist()
        contrib += [grid.item(ci[bins[i]], cj[bins[j]]) for i, j, ci, cj, grid in t.pairs]
        forecast = self.intercept
        for v in contrib:
            forecast += v
        return float(forecast), self.intercept, list(zip(t.names, contrib))

    @cached_property
    def _one_row(self) -> _OneRow:
        """What :meth:`predict_with_breakdown` reads; built on first use."""
        return _one_row_tables(self)


class _OneRow(NamedTuple):
    """A model's tables laid out for one-row breakdowns.

    Shape ``k``'s values are ``shape_values[shape_starts[k]:]``, read at
    the bin of feature ``shape_features[k]``, so every shape term is one
    gather. Each pair is ``(i, j, coarse map of i, coarse map of j,
    grid)``, the maps as lists: indexing a list with an int beats
    indexing an array.
    """

    shape_values: np.ndarray
    shape_starts: np.ndarray
    shape_features: np.ndarray
    pairs: tuple[tuple[int, int, list[int], list[int], np.ndarray], ...]
    names: tuple[str, ...]


def _one_row_tables(model: GlassBoxModel) -> _OneRow:
    values = [sf.values for sf in model.shapes]
    # Only pair terms read a coarse map: a model without any derives none.
    lists = {f: model.coarse_maps[f].tolist() for pt in model.pairs for f in (pt.i, pt.j)}
    return _OneRow(
        shape_values=np.concatenate(values),
        shape_starts=np.cumsum([0] + [len(v) for v in values], dtype=np.intp)[:-1],
        shape_features=np.array([sf.feature for sf in model.shapes], dtype=np.intp),
        pairs=tuple((pt.i, pt.j, lists[pt.i], lists[pt.j], pt.grid) for pt in model.pairs),
        names=tuple(model.term_names()),
    )


# ---------------------------------------------------------------------------
# The cyclic boosting engine
# ---------------------------------------------------------------------------

def _boost(shapes, cells, r, split, depth, config, intercept):
    """Cyclic boosting of lookup-table terms, from row cells to centered tables.

    Term ``t`` has a table of shape ``shapes[t]`` (one axis for a shape
    function, two for a pair grid); ``cells[t]`` holds every row's flat
    cell in it and ``r`` every row's residual, each with
    ``split.n_rows`` entries or ``ValueError``. Each round visits the
    terms in order, sums the training rows' residuals per cell, and
    adds ``learning_rate`` times the table of the depth-``depth`` tree
    fitted on that histogram (:func:`histogram_table`) to the term.
    Rounds stop at ``max_rounds`` or after ``early_stop_patience``
    rounds whose validation RMSE fails to beat the best seen by
    ``early_stop_tol``. The tables are then centered on the training
    rows per cell (:func:`_center`). A round whose validation RMSE is
    not finite raises ``ValueError`` naming the stage (main-effects for
    1-D tables, interaction for 2-D), the round and ``learning_rate``.

    Returns the tables, ``intercept`` plus the centering offsets, the
    round count and the validation curve.
    """
    if len(r) != split.n_rows or any(len(c) != split.n_rows for c in cells):
        raise ValueError("rows do not match the split's row count")
    tr, va = split.train_slice, split.val_slice
    params = config._tree_params(depth)
    r_train, val_err = r[tr].copy(), r[va].copy()
    cells_tr, cells_va = ([np.ascontiguousarray(c[rows]) for c in cells] for rows in (tr, va))
    cnts = [_cell_counts(c, shape) for c, shape in zip(cells_tr, shapes)]
    tables = [np.zeros(shape) for shape in shapes]
    # Everything a step reads that never changes is built before the
    # rounds; the boosting loop is the training hot path.
    steps = list(zip(cnts, tables, cells_tr, cells_va))
    best, wait = np.inf, 0
    val_curve: list[float] = []
    rounds = 0
    # A diverging fit overflows before its validation RMSE stops being
    # finite; that round raises, and no float warning comes first. Targets
    # past about 1e154 overflow the RMSE at round 1 and raise too.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_rounds):
            for cnt, table, c_tr, c_va in steps:
                sums = np.bincount(c_tr, weights=r_train, minlength=cnt.size
                                   ).reshape(cnt.shape)
                delta = config.learning_rate * histogram_table(cnt, sums, params)
                table += delta
                flat = delta.ravel()
                r_train -= flat[c_tr]
                val_err -= flat[c_va]
            rounds += 1
            val_curve.append(float(np.sqrt(np.mean(val_err ** 2))))
            if not np.isfinite(val_curve[-1]):
                stage = "interaction" if len(shapes[0]) == 2 else "main-effects"
                raise ValueError(
                    f"the {stage} stage diverged: validation RMSE {val_curve[-1]} at "
                    f"round {rounds} with learning_rate {config.learning_rate} (or "
                    f"its targets are too large to square)")
            if best - val_curve[-1] >= config.early_stop_tol:
                best, wait = val_curve[-1], 0
            else:
                wait += 1
            if wait >= config.early_stop_patience:
                break
    intercept = _center(tables, cnts, intercept)
    return tables, intercept, rounds, val_curve


def _cell_counts(cells: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Rows per cell of a term's table, given each row's flat cell."""
    return (np.bincount(cells, minlength=int(np.prod(shape)))
            .astype(np.float64).reshape(shape))


def _center(tables, weights, intercept: float) -> float:
    """Shift each table in place to ``weights``-weighted mean zero and
    return ``intercept`` plus the offsets, which leaves predictions
    untouched. Shape functions and grids keep their own summation
    (``w @ t`` and ``np.sum(w * t)``): they round differently, and the
    model bytes depend on both."""
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
    return _train_main_effects(apply_bins(bins, matrix.X), matrix.y, split, bins,
                               config, matrix)


def _train_main_effects(Xb, y, split, bins, config, matrix):
    """:func:`train_main_effects` of the binned rows ``Xb`` and targets ``y``."""
    n = Xb.shape[1]
    intercept = float(y[split.train_slice].mean())
    shape_values, intercept, rounds, val_curve = _boost(
        [(bins.n_bins(f),) for f in range(n)], Xb.T,
        y - intercept, split, config.main_depth, config, intercept)

    model = GlassBoxModel(
        intercept=intercept,
        shapes=tuple(ShapeFunction(f, shape_values[f]) for f in range(n)),
        pairs=(),
        bins=bins,
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
        config=config,
        rounds_main=rounds,
        val_curve_main=tuple(val_curve),
    )
    residuals = y - intercept
    for f in range(n):
        residuals = residuals - shape_values[f][Xb[:, f]]
    return model, residuals


# ---------------------------------------------------------------------------
# Interaction selection
# ---------------------------------------------------------------------------

def _coarse_maps(populations, target_bins: int) -> dict[int, np.ndarray]:
    """Each feature's monotone map from its main bins, counted by
    ``populations[f]``, to at most ``target_bins`` coarse bins with
    near-equal population mass.

    A feature of more bins than that is mapped in one padded pass with
    every other such feature: its counts are whole numbers, so its
    cumulative and total counts are exact whatever the zero padding.
    """
    sizes = [len(p) for p in populations]
    wide = [f for f, nb in enumerate(sizes) if nb > target_bins]
    pops = np.zeros((len(wide), max((sizes[f] for f in wide), default=0)))
    for row, f in zip(pops, wide):
        row[:sizes[f]] = populations[f]
    mid = np.cumsum(pops, axis=1) - pops / 2.0
    c = np.floor(mid / pops.sum(axis=1, keepdims=True) * target_bins).astype(np.int64)
    c = np.clip(c, 0, target_bins - 1)
    # ``c`` is non-decreasing along a row (``mid`` is, for non-negative
    # counts), so numbering its runs compresses it to 0..K-1 with the
    # order kept.
    runs = np.zeros_like(c)
    np.cumsum(np.diff(c, axis=1) != 0, axis=1, out=runs[:, 1:])
    rows = dict(zip(wide, runs))
    return {f: rows[f][:nb] if f in rows else np.arange(nb)
            for f, nb in enumerate(sizes)}


def _pair_cells(Xb: np.ndarray, cmaps: dict[int, np.ndarray], pairs):
    """Yield each pair's grid shape and every row's flat cell in that
    grid, one pair at a time, from the rows' bins ``Xb`` and the coarse
    maps ``cmaps``."""
    for i, j in pairs:
        ci, cj = cmaps[i], cmaps[j]
        sj = int(cj.max()) + 1
        yield (int(ci.max()) + 1, sj), ci[Xb[:, i]] * sj + cj[Xb[:, j]]


# Cells, and rows of cells, in one block of the pair ranker: the block
# size of ``apply_bins`` and the MAE split search.
_RANK_BLOCK = 16_384


def _rank_pairs(Xb, residuals, cmaps) -> list[tuple[int, int, float]]:
    """:func:`rank_interaction_pairs` of the binned rows ``Xb`` under
    the coarse maps ``cmaps``, unchecked.

    A grid's fit is the SSE reduction of its per-cell means, the sum
    over non-empty cells of ``s**2 / c`` (residual sum ``s``, row count
    ``c``). Each feature's coarse column is one contiguous row of ``C``,
    and every pair's cells share the stride ``S``, the largest coarse
    size, so a pair has at most ``S**2`` cells, no more than a
    ``pair_bins`` square grid. The grids are fitted in blocks
    (:func:`_block_fits`): the marginals ``k`` features at a time, each
    feature ``i``'s pairs ``k`` later features at a time, ``k`` set by
    :data:`_RANK_BLOCK`, so a block's arrays stay near that many
    entries and a fit of many rows takes one grid per block. The scores
    are exactly those of bincounts over each pair's own ``ci * sj + cj``
    grid:

    1. ``ci * S + cj`` orders the non-empty cells by ``(ci, cj)``, as
       ``ci * sj + cj`` does, so compacting them gives the same sequence.
    2. Grid ``g`` of a block has its cells offset by ``g * S**2``,
       added as the block is built, so each cell belongs to one grid,
       and ``bincount`` adds each cell's residuals in row order whatever
       the output length.
    3. The integer counts convert to float exactly below 2**53 rows; the
       square and the divide act element by element.
    4. ``np.add.reduce`` on a grid's contiguous slice of the compacted
       cells is the pairwise sum ``np.sum`` runs on that grid alone.
    """
    n, F = Xb.shape
    # A map is non-decreasing, so its last entry is its largest.
    S = max(int(cmaps[f][-1]) for f in range(F)) + 1
    size = S * S
    k = max(1, _RANK_BLOCK // max(n, size))
    C = np.empty((F, n), dtype=np.intp)
    for f in range(F):
        # Every bin indexes its coarse map, so "clip" clips nothing; it
        # only spares ``take`` a buffered copy of ``out``.
        np.take(cmaps[f], Xb[:, f], out=C[f], mode="clip")
    # One grid per block reads the residuals as they are.
    tiled = np.tile(residuals, k) if k > 1 else residuals
    # Grid g of a block starts at cell off[g] and ends before ends[g].
    off = np.arange(0, k * size, size)[:, None]
    ends = off.ravel() + size
    marginal = [fit for f in range(0, F, k) for fit in _block_fits(
        (C[f:f + k] + off[:F - f]).ravel(), tiled, ends[:F - f])]
    scored = []
    for i in range(F - 1):
        a = C[i] * S + off[:F - 1 - i]
        for j0 in range(i + 1, F, k):
            m = min(k, F - j0)
            fits = _block_fits((C[j0:j0 + m] + a[:m]).ravel(), tiled, ends[:m])
            scored += [(i, j, fit - marginal[i] - marginal[j])
                       for j, fit in zip(range(j0, j0 + m), fits)]
    # Pairs come in (i, j) order and the sort is stable: ties keep it.
    scored.sort(key=itemgetter(2), reverse=True)
    return scored


def _block_fits(cells, weights, ends) -> list[float]:
    """The fit, the sum over non-empty cells of ``s**2 / c``, of each grid
    of a block: ``cells`` holds every row's cell and the first
    ``len(cells)`` of ``weights`` their residuals; grid ``g`` holds the
    cells from ``ends[g - 1]`` (0 for the first grid) to ``ends[g]``,
    the last grid every cell after."""
    cnt = np.bincount(cells)
    nz = (cnt > 0).nonzero()[0]
    cnt = cnt.take(nz)
    s = np.bincount(cells, weights[:len(cells)]).take(nz)
    s *= s
    s /= cnt
    cuts = nz.searchsorted(ends[:-1]).tolist()
    return [float(np.add.reduce(s[a:b])) for a, b in zip([0, *cuts], [*cuts, len(s)])]


def _bin_rows(X_binned, n_bins=None) -> np.ndarray:
    """``X_binned`` as rows of bins, or ``ValueError``: a 2-D integer
    array (a bool one is not), with at least one row and no negative
    bin. Given ``n_bins``, it needs one column per entry, each bin below
    its column's entry. The one check of :func:`rank_interaction_pairs`'
    and :func:`train_interactions`' binned rows."""
    Xb = np.asarray(X_binned)
    width = "" if n_bins is None else f"{len(n_bins)} "
    if (Xb.ndim != 2 or not np.issubdtype(Xb.dtype, np.integer)
            or (n_bins is not None and Xb.shape[1] != len(n_bins))):
        raise ValueError(f"X_binned needs {width}integer columns, got {Xb.dtype} {Xb.shape}")
    if len(Xb) == 0:
        raise ValueError("X_binned has no rows")
    if n_bins is None:
        if Xb.min() < 0:
            raise ValueError("X_binned holds a negative bin")
    elif Xb.min() < 0 or np.any(Xb >= n_bins):
        raise ValueError("X_binned holds a bin outside [0, n_bins(f))")
    return Xb


def _finite_residuals(residuals) -> np.ndarray:
    """``residuals`` as floats, or ``ValueError`` if one is not finite."""
    r = np.asarray(residuals, dtype=np.float64)
    if not np.isfinite(r).all():
        raise ValueError("residuals hold a non-finite value")
    return r


def rank_interaction_pairs(X_binned: np.ndarray, residuals: np.ndarray,
                           pair_bins: int = 32) -> list[tuple[int, int, float]]:
    """Score every feature pair by how much 2-D structure it explains.

    For each pair, the strength is the SSE reduction of the best
    constant-per-cell model on the coarse (i, j) grid minus the
    reduction already available from each feature's own coarse-bin
    means. Purely additive structure therefore scores near zero. Pairs
    come back sorted by descending strength, ties broken by (i, j).
    Coarse bins come from ``X_binned``'s own per-bin row counts.

    The order is taken on ``residuals * 2.0**-k``, ``k`` the exponent of
    ``max|residuals|`` (``np.frexp``; 0 if every residual is 0), an exact
    scale under which no sum of squares overflows, so scaling the
    residuals by a power of two keeps the order. The scores returned are
    scaled back by ``2.0**(2 * k)`` and may be ``inf``.

    ``X_binned`` must be non-empty rows of non-negative integer bins with
    at least two columns, and ``residuals`` one finite value per row;
    ``pair_bins`` an integer ``>= 2`` (``TypeError`` if not an integer).
    ``ValueError`` otherwise.
    """
    pair_bins = _integer("pair_bins", pair_bins)
    if pair_bins < 2:
        raise ValueError("pair_bins must be >= 2")
    Xb = _bin_rows(X_binned)
    r = _finite_residuals(residuals)
    if r.shape != (len(Xb),):
        raise ValueError("residuals must be 1-D and aligned with X_binned")
    n = Xb.shape[1]
    if n < 2:
        raise ValueError("need at least two features to rank pairs")
    cmaps = _coarse_maps([np.bincount(Xb[:, f]) for f in range(n)], pair_bins)
    k = int(np.frexp(np.abs(r).max())[1])
    ranked = _rank_pairs(Xb, np.ldexp(r, -k), cmaps)
    with np.errstate(over="ignore"):
        scores = np.ldexp([s for _, _, s in ranked], 2 * k).tolist()
    return [(i, j, s) for (i, j, _), s in zip(ranked, scores)]


# ---------------------------------------------------------------------------
# Stage 2: interaction terms
# ---------------------------------------------------------------------------

def train_interactions(model: GlassBoxModel, X_binned: np.ndarray, split: DataSplit,
                       residuals: np.ndarray, selected_pairs) -> GlassBoxModel:
    """Boost 2-D interaction grids on the main-effects residuals.

    ``X_binned`` is every row's bins under ``model.bins``: integer, one
    column per feature, each bin in ``[0, n_bins(f))``, or ``ValueError``;
    a non-finite residual is a ``ValueError`` too. Same cyclic schedule
    and early-stopping rule as the main stage, under ``model.config``
    (for other settings pass ``replace(model, config=c)``), but each term
    is a feature pair fitted with pair-restricted trees over coarse bins:
    runs of main bins of near-equal ``model.bins.populations``, i.e. of
    the rows the bins were fit on. Grids are re-centered to
    training-weighted mean zero, offsets folded into the intercept.
    """
    n = model.n_features
    Xb = _bin_rows(X_binned, [model.bins.n_bins(f) for f in range(n)])
    r = _finite_residuals(residuals)
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

    shapes, cells = zip(*_pair_cells(Xb, model.coarse_maps, pairs))
    grids, intercept, rounds, val_curve = _boost(
        shapes, cells, r, split, model.config.pair_depth, model.config, model.intercept)

    return _with_maps(replace(
        model,
        intercept=intercept,
        pairs=tuple(PairShapeFunction(i, j, g) for (i, j), g in zip(pairs, grids)),
        rounds_pairs=rounds,
        val_curve_pairs=tuple(val_curve),
    ), model.coarse_maps)


def _with_maps(model: GlassBoxModel, maps) -> GlassBoxModel:
    """``model`` given ``maps``, the coarse maps its bins and config derive."""
    vars(model)["coarse_maps"] = maps
    return model


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


def _train_single(matrix, split, bins, config, Xb, y, maps) -> GlassBoxModel:
    model, residuals = _train_main_effects(Xb, y, split, bins, config, matrix)
    model = _with_maps(model, maps)
    k = _resolve_budget(config.interaction_budget, matrix.n_features)
    if k == 0 or matrix.n_features < 2:
        return model
    tr = split.train_slice
    ranked = _rank_pairs(Xb[tr], residuals[tr], maps)
    selected = [(i, j) for i, j, _ in ranked[:k]]
    return train_interactions(model, Xb, split, residuals, selected)


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
        # The fit bins its own rows straight into Xb (the training rows
        # come first), so only the others go through apply_bins.
        n_fit = split.train[1]
        Xb = np.empty(matrix.X.shape, dtype=np.int64)
        bins = _fit_binned(matrix.X, split.train, config.max_bins, out=Xb[:n_fit])[0]
        Xb[n_fit:] = apply_bins(bins, matrix.X[n_fit:])
    else:
        Xb = apply_bins(bins, matrix.X)
    maps = _coarse_maps(bins.populations, config.pair_bins)
    if config.bagging_count == 1:
        return _train_single(matrix, split, bins, config, Xb, matrix.y, maps)
    return _train_bagged(matrix, split, bins, config, Xb, maps)


def _train_bagged(matrix, split, bins, config, Xb, maps) -> GlassBoxModel:
    n = matrix.n_features
    lo, hi = split.train

    bag_models = []
    for b in range(config.bagging_count):
        rng = np.random.default_rng((config.seed, b))
        take = np.sort(rng.integers(lo, hi, size=hi - lo))
        order = np.concatenate([take, np.arange(hi, split.n_rows)])
        bag_models.append(_train_single(matrix, split, bins, config, Xb[order],
                                        matrix.y[order], maps))

    k = 1.0 / len(bag_models)
    intercept = sum(m.intercept for m in bag_models) * k
    shape_values = [np.zeros(bins.n_bins(f)) for f in range(n)]
    for m in bag_models:
        for sf in m.shapes:
            shape_values[sf.feature] += k * sf.values

    # Every bag shares the binning and coarse maps, so their pair grids
    # line up for averaging. A grid's weights, its training rows per
    # cell, also give its shape.
    pair_keys = sorted({(pt.i, pt.j) for m in bag_models for pt in m.pairs})
    pair_weights = [_cell_counts(cell, shape)
                    for shape, cell in _pair_cells(Xb[lo:hi], maps, pair_keys)]
    grids = {p: np.zeros(w.shape) for p, w in zip(pair_keys, pair_weights)}
    for m in bag_models:
        for pt in m.pairs:
            grids[(pt.i, pt.j)] += k * pt.grid

    # Re-center everything against the true training populations.
    weights = [pops.astype(np.float64) for pops in bins.populations] + pair_weights
    intercept = _center(shape_values + list(grids.values()), weights, intercept)

    return _with_maps(GlassBoxModel(
        intercept=intercept,
        shapes=tuple(ShapeFunction(f, shape_values[f]) for f in range(n)),
        pairs=tuple(PairShapeFunction(i, j, grids[(i, j)]) for (i, j) in pair_keys),
        bins=bins,
        feature_names=matrix.feature_names,
        norm_params=matrix.norm_params,
        config=config,
        rounds_main=max(m.rounds_main for m in bag_models),
        rounds_pairs=max(m.rounds_pairs for m in bag_models),
    ), maps)
