"""Data pipeline: CSV ingestion, supervised matrices, normalization,
chronological splitting, and quantile binning.

Everything here is deterministic and value-like: functions return new
objects and never mutate their inputs, so results are safe to share
across threads. Batch binning reads each binning's :class:`CellIndex`:
one gather to the first edge of a value's cell, then the index's fixed
number of steps of one gather, one compare and one add per block.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "CsvSchema",
    "TimeSeriesFrame",
    "SupervisedMatrix",
    "NormParams",
    "DataSplit",
    "BinningMap",
    "load_csv",
    "build_lag_features",
    "build_exogenous_features",
    "normalize_fit_apply",
    "normalize_apply",
    "chronological_split",
    "check_fractions",
    "fit_bins",
    "apply_bins",
    "bin_values",
    "bin_row",
    "bin_centers",
    "bin_boundaries",
]


# ---------------------------------------------------------------------------
# Frames and schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """Column roles for :func:`load_csv`.

    ``timestamp_format`` is ``"iso8601"`` (a stamp without a zone is
    UTC) or ``"epoch"`` (seconds).
    ``exogenous_columns=None`` takes every remaining column in header
    order; pass ``()`` for none. A column named for two roles (the
    timestamp or target as an exogenous column, say) raises ``ValueError``.
    """

    timestamp_column: str
    target_column: str
    exogenous_columns: tuple[str, ...] | None = None
    timestamp_format: str = "iso8601"
    delimiter: str = ","

    def __post_init__(self):
        roles = [self.timestamp_column, self.target_column, *(self.exogenous_columns or ())]
        for k, col in enumerate(roles):
            if col in roles[:k]:
                raise ValueError(f"column {col!r} is named for two roles")


@dataclass(frozen=True)
class TimeSeriesFrame:
    """A validated univariate power series plus optional exogenous columns.

    Invariants enforced at construction: strictly increasing timestamps,
    equal column lengths, all values (timestamps too) finite.
    ``dropped_rows`` records how many raw rows ingestion discarded.
    """

    timestamps: np.ndarray
    target: np.ndarray
    exogenous: dict[str, np.ndarray] = field(default_factory=dict)
    dropped_rows: int = 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        y = np.asarray(self.target, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "target", y)
        if ts.ndim != 1 or y.ndim != 1:
            raise ValueError("timestamps and target must be 1-D")
        if len(ts) != len(y):
            raise ValueError("timestamps and target lengths differ")
        if len(ts) == 0:
            raise ValueError("empty frame")
        if not np.all(np.isfinite(ts)):
            raise ValueError("non-finite timestamps")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("non-monotone timestamps")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite target values")
        exo = {}
        for name, col in self.exogenous.items():
            col = np.asarray(col, dtype=np.float64)
            if len(col) != len(ts):
                raise ValueError(f"exogenous column {name!r} length differs")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"non-finite values in exogenous column {name!r}")
            exo[name] = col
        object.__setattr__(self, "exogenous", exo)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class NormParams:
    """Per-column min/max fitted on a training range.

    A feature whose fitted max equals its min is a constant column; the
    transform maps every value of such a column to 0.5. A value so far
    outside the fitted range that its scaled offset overflows clamps to
    0 or 1 like any other.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    def apply_features(self, X: np.ndarray) -> np.ndarray:
        lo, hi = self.feature_min, self.feature_max
        span = hi - lo
        constant = span == 0
        safe = np.where(constant, 1.0, span)
        with np.errstate(over="ignore"):
            out = np.clip((X - lo) / safe, 0.0, 1.0)
        out[:, constant] = 0.5
        return out

    def apply_target(self, y: np.ndarray) -> np.ndarray:
        if self.target_max == self.target_min:
            return np.full_like(np.asarray(y, dtype=np.float64), 0.5)
        with np.errstate(over="ignore"):
            return np.clip(
                (y - self.target_min) / (self.target_max - self.target_min), 0.0, 1.0
            )

    def invert_feature(self, feature: int, values: np.ndarray) -> np.ndarray:
        lo = self.feature_min[feature]
        hi = self.feature_max[feature]
        return lo + np.asarray(values) * (hi - lo)


@dataclass(frozen=True)
class SupervisedMatrix:
    """Feature matrix ``X`` and aligned target ``y``.

    ``norm_params`` is ``None`` before normalization; afterwards every
    entry of ``X`` and ``y`` lies in [0, 1].
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    norm_params: NormParams | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must have at least one row and one column")
        if len(y) != X.shape[0]:
            raise ValueError("X and y row counts differ")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length does not match X columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature_names must be unique")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite values in supervised matrix")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class DataSplit:
    """Contiguous, ordered train/validation/test row ranges.

    Each range is a half-open ``(start, stop)`` pair; train precedes
    validation precedes test and together they partition ``[0, m)``.
    """

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def __post_init__(self):
        a, b, c = self.train, self.val, self.test
        if not (a[0] == 0 and a[1] == b[0] and b[1] == c[0]):
            raise ValueError("split ranges must be contiguous and ordered")
        if a[1] <= a[0] or b[1] <= b[0] or c[1] <= c[0]:
            raise ValueError("every split range needs at least one row")

    @property
    def train_slice(self) -> slice:
        return slice(*self.train)

    @property
    def val_slice(self) -> slice:
        return slice(*self.val)

    @property
    def test_slice(self) -> slice:
        return slice(*self.test)

    @property
    def n_rows(self) -> int:
        return self.test[1]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# The Unix epoch as a naive stamp: naive stamps are UTC.
_EPOCH = datetime(1970, 1, 1)


def _parse_timestamp(raw: str, fmt: str) -> float:
    if fmt == "epoch":
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"unparseable timestamp {raw!r}") from None
    if fmt == "iso8601":
        try:
            stamp = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
        except ValueError:
            raise ValueError(f"unparseable timestamp {raw!r}") from None
        # A naive timestamp is UTC, so the host's DST shifts never apply.
        # Its offset from the naive epoch is what ``.timestamp()`` of the
        # stamp in UTC computes, whole microseconds over 10**6, without
        # building an aware copy.
        if stamp.tzinfo is None:
            return (stamp - _EPOCH).total_seconds()
        return stamp.timestamp()
    raise ValueError(f"unknown timestamp format {fmt!r}")


def _parse_float(raw: str) -> float:
    # Missing or garbled numeric cells become NaN and get the row dropped.
    try:
        return float(raw)
    except (TypeError, ValueError):
        return math.nan


def load_csv(path, schema: CsvSchema) -> TimeSeriesFrame:
    """Read a time-series CSV into a validated :class:`TimeSeriesFrame`.

    Rows containing missing or non-finite values in any declared column
    are dropped and counted in ``frame.dropped_rows``. A row too short
    to hold every declared column raises, and so does a line the csv
    module cannot read (a cell over its field size limit, say), each
    naming its line. Duplicate, out-of-order or non-finite timestamps
    raise; rows are never silently reordered. A column the schema reads
    (with ``exogenous_columns=None``, every column) that the header
    names twice raises, naming it and the file.

    Parameters
    ----------
    path : str or Path
        CSV file with a header row.
    schema : CsvSchema
        Column roles, timestamp format, and delimiter.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        for col in (schema.timestamp_column, schema.target_column):
            if col not in header:
                raise ValueError(f"missing column {col!r} in {path}")
        if schema.exogenous_columns is None:
            exo_names = [
                h for h in header
                if h not in (schema.timestamp_column, schema.target_column)
            ]
        else:
            exo_names = list(schema.exogenous_columns)
            for col in exo_names:
                if col not in header:
                    raise ValueError(f"missing column {col!r} in {path}")
        for col in (schema.timestamp_column, schema.target_column, *exo_names):
            if header.count(col) > 1:
                raise ValueError(f"column {col!r} is named twice in the header of {path}")
        ts_idx = header.index(schema.timestamp_column)
        y_idx = header.index(schema.target_column)
        exo_idx = [header.index(c) for c in exo_names]
        n_fields = max(ts_idx, y_idx, *exo_idx) + 1

        timestamps: list[float] = []
        target: list[float] = []
        exo_cols: list[list[float]] = [[] for _ in exo_names]
        dropped = 0
        for row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < n_fields:
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                 f"fields, {n_fields} needed")
            ts = _parse_timestamp(row[ts_idx], schema.timestamp_format)
            y = _parse_float(row[y_idx])
            exo_vals = [_parse_float(row[i]) for i in exo_idx]
            if not math.isfinite(y) or any(not math.isfinite(v) for v in exo_vals):
                dropped += 1
                continue
            timestamps.append(ts)
            target.append(y)
            for col, v in zip(exo_cols, exo_vals):
                col.append(v)

    if not timestamps:
        raise ValueError(f"no valid data rows in {path}")
    return TimeSeriesFrame(
        timestamps=np.array(timestamps),
        target=np.array(target),
        exogenous={n: np.array(c) for n, c in zip(exo_names, exo_cols)},
        dropped_rows=dropped,
    )


def _csv_rows(reader, path):
    """The rows of ``reader``; a line it cannot read raises ``ValueError``
    naming that line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


# ---------------------------------------------------------------------------
# Supervised matrix construction
# ---------------------------------------------------------------------------

def lag_feature_names(n_lags: int) -> tuple[str, ...]:
    """Names for lag columns, oldest first: ``lag_{n-1} .. lag_0``.

    ``lag_0``, :data:`MOST_RECENT_LAG`, is the most recent observation
    and is what the persistence baseline forecasts with.
    """
    return tuple(f"lag_{k}" for k in range(n_lags - 1, -1, -1))


#: The most recent lag column's name.
MOST_RECENT_LAG = lag_feature_names(1)[-1]


def build_lag_features(frame: TimeSeriesFrame, n_lags: int,
                       horizon_steps: int) -> SupervisedMatrix:
    """Turn a series into a lag matrix: row t holds the ``n_lags`` most
    recent target values and predicts the value ``horizon_steps`` ahead.

    Row count is ``len(frame) - n_lags - horizon_steps + 1``.
    """
    if n_lags < 1:
        raise ValueError("n_lags must be >= 1")
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    y = frame.target
    m = len(y) - n_lags - horizon_steps + 1
    if m < 1:
        raise ValueError(
            f"series of length {len(y)} too short for n_lags={n_lags}, "
            f"horizon_steps={horizon_steps}"
        )
    X = np.empty((m, n_lags))
    for k in range(n_lags):
        X[:, k] = y[k:k + m]
    target = y[n_lags + horizon_steps - 1:]
    return SupervisedMatrix(X=X, y=target, feature_names=lag_feature_names(n_lags))


def build_exogenous_features(frame: TimeSeriesFrame) -> SupervisedMatrix:
    """Use the frame's exogenous columns as features, aligned with the
    same-row target (for weather-model inputs that already encode the
    forecast horizon)."""
    if not frame.exogenous:
        raise ValueError("frame has no exogenous columns")
    names = tuple(frame.exogenous.keys())
    X = np.column_stack([frame.exogenous[n] for n in names])
    return SupervisedMatrix(X=X, y=frame.target.copy(), feature_names=names)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_fit_apply(matrix: SupervisedMatrix,
                        fit_range: tuple[int, int]) -> SupervisedMatrix:
    """Min-max normalize every column of ``X`` and ``y`` to [0, 1].

    Statistics come from ``fit_range`` rows only; values outside that
    range clamp to [0, 1]. Constant columns map to 0.5 rather than
    erroring, so a flat sensor cannot abort training. A column whose
    fitted max minus min overflows to infinity raises ``ValueError``.
    """
    Xf = _fit_rows(matrix.X, fit_range)
    yf = _fit_rows(matrix.y, fit_range)
    params = NormParams(
        feature_min=Xf.min(axis=0),
        feature_max=Xf.max(axis=0),
        target_min=float(yf.min()),
        target_max=float(yf.max()),
    )
    with np.errstate(over="ignore"):
        wide = np.isinf(params.feature_max - params.feature_min)
    if wide.any():
        raise ValueError(f"feature column {matrix.feature_names[wide.argmax()]!r} "
                         "spans more than the largest float in the fit rows")
    if math.isinf(params.target_max - params.target_min):
        raise ValueError("the target spans more than the largest float in the fit rows")
    return normalize_apply(matrix, params)


def _fit_rows(rows: np.ndarray, fit_range: tuple[int, int]) -> np.ndarray:
    """Rows ``lo:hi`` of ``rows``; ``ValueError`` unless ``0 <= lo < hi <= len(rows)``."""
    lo, hi = fit_range
    if hi <= lo:
        raise ValueError(f"empty fit range {fit_range}")
    if lo < 0 or hi > len(rows):
        raise ValueError(f"fit range {fit_range} is outside the {len(rows)} rows")
    return rows[lo:hi]


def normalize_apply(matrix: SupervisedMatrix, params: NormParams) -> SupervisedMatrix:
    """Apply fixed normalization parameters (the deployment path)."""
    return SupervisedMatrix(
        X=params.apply_features(matrix.X),
        y=params.apply_target(matrix.y),
        feature_names=matrix.feature_names,
        norm_params=params,
    )


# ---------------------------------------------------------------------------
# Chronological split
# ---------------------------------------------------------------------------

def chronological_split(m: int,
                        fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
                        ) -> DataSplit:
    """Partition ``[0, m)`` into ordered train/val/test ranges.

    Sizes are ``floor(m * fraction)`` with the rounding remainder
    assigned to the test range. No shuffling: time order is the
    contract. ``fractions`` must pass :func:`check_fractions`.
    """
    check_fractions(fractions)
    n_train = int(m * fractions[0])
    n_val = int(m * fractions[1])
    n_test = m - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"m={m} too small for fractions {fractions}: every range needs a row"
        )
    return DataSplit(
        train=(0, n_train),
        val=(n_train, n_train + n_val),
        test=(n_train + n_val, m),
    )


def check_fractions(fractions) -> None:
    """Raise ``ValueError`` unless ``fractions`` is three finite positive
    numbers that sum to 1 (within 1e-9)."""
    if len(fractions) != 3 or not all(0 < f < math.inf for f in fractions):
        raise ValueError("fractions must be three finite positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")


# ---------------------------------------------------------------------------
# Quantile binning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinningMap:
    """Per-feature monotone bin edges mapping reals to histogram indices.

    ``edges[f]`` holds the strictly increasing interior cut points of
    feature ``f`` (``load_model`` refuses a file whose edges are not); a
    value lands in bin ``searchsorted(edges, v, "right")``, so anything
    outside the fitted range clamps to the extreme bins. ``populations[f]``
    counts fitting rows per bin: the glass-box model's coarse pair bins
    and its bagged re-centering weights come from it. ``vmin``/``vmax``
    record the fitted value span (used for bin centers and axis
    denormalization).

    The cell index that :func:`apply_bins`, :func:`bin_values` and
    :func:`bin_row` read (``cells``) is built by :func:`fit_bins`, or on
    first use for a loaded map; it is never stored in a model file.
    """

    edges: tuple[np.ndarray, ...]
    vmin: np.ndarray
    vmax: np.ndarray
    populations: tuple[np.ndarray, ...]
    max_bins: int

    @property
    def n_features(self) -> int:
        return len(self.edges)

    def n_bins(self, feature: int) -> int:
        return len(self.edges[feature]) + 1

    @cached_property
    def cells(self) -> CellIndex:
        """Every feature's edges laid out for binning; built on first read."""
        return _cell_index(self.edges)


def fit_bins(X: np.ndarray, fit_range: tuple[int, int], max_bins: int = 256) -> BinningMap:
    """Fit per-feature quantile bin edges on ``fit_range`` rows.

    Quantile edges give near-equal training populations per bin, which
    keeps lookup tables well supported even for skewed wind
    distributions. Duplicate quantiles collapse, so a constant column
    yields a single bin. A non-finite value in the fit rows raises the
    ``ValueError`` of :func:`apply_bins`, naming its column; a column
    whose edges would overflow (two values whose sum or difference is
    beyond the largest float) raises ``ValueError`` naming it too.

    One sort per binning: every fit column is sorted in one call, which
    runs the kernel that ``np.unique`` and ``np.sort`` run per column on
    the same values, so the edges are bit for bit those of sorting each
    column on its own (see :func:`_fit_binned`).
    """
    return _fit_binned(X, fit_range, max_bins)[0]


@np.errstate(over="ignore", invalid="ignore")
def _fit_binned(X, fit_range, max_bins, out=None) -> tuple[BinningMap, np.ndarray]:
    """:func:`fit_bins` and the bins of its fit rows, which it computes
    to count the populations: ``apply_bins(bmap, X[lo:hi])``, for
    callers that would otherwise bin those rows a second time. They are
    written into ``out`` when it is given.

    One sort of every fit column at once, along the rows of a copy of
    the transposed fit rows, replaces a per-column ``np.unique`` and
    ``np.sort``: each of those sorts a contiguous copy of the column's
    values, in row order, with the same kernel, so every sorted column
    is bit for bit the same, down to the signs of its zeros (which that
    kernel may change). The edges are then those of the per-column rule
    (:func:`_edges_of_sorted`), and the populations one ``bincount`` of
    the fit rows' bins, offset per feature.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    Xf = _fit_rows(np.asarray(X, dtype=np.float64), fit_range)
    _require_finite(Xf, range(Xf.shape[1]))
    S = Xf.T.copy()
    S.sort(axis=1)
    edges = _edges_of_sorted(S, max_bins)
    index = _cell_index(edges)  # counts the fit rows; kept with the map
    Xb = _bin(index, Xf, range(len(edges)), out)
    sizes = np.array([len(e) + 1 for e in edges], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    counts = np.bincount((Xb + offsets).ravel(), minlength=int(sizes.sum()))
    bmap = BinningMap(
        edges=edges,
        vmin=Xf.min(axis=0),
        vmax=Xf.max(axis=0),
        populations=_split(counts, sizes),
        max_bins=max_bins,
    )
    object.__setattr__(bmap, "cells", index)
    return bmap, Xb


def _edges_of_sorted(S: np.ndarray, max_bins: int) -> tuple[np.ndarray, ...]:
    """The edges of every row of ``S``, the sorted fit values of one
    feature per row, in whole-matrix passes.

    Per feature, ``uniq`` its distinct values: fewer than two give no
    edges; at most ``max_bins`` give ``np.unique`` of the midpoints of
    each two consecutive ones; more give ``np.unique`` of the type-7
    quantiles at ``1/max_bins .. (max_bins-1)/max_bins``, clipped to the
    first and last of those midpoints. A midpoint is taken across each
    boundary between two runs of equal values: the values either side
    are not equal, so when one is a zero the other is not, and the sign
    of that zero cannot change the sum. The candidates of all features
    with as many of them are sorted in one call, so each feature's are
    sorted as ``np.unique`` sorts them, by the same kernel on as many
    values, and then each loses every value equal to the one before it.
    A feature whose edges overflow raises ``ValueError`` naming it, the
    first such feature.
    """
    n_features, n = S.shape
    bound = S[:, 1:] != S[:, :-1]  # a run of equal values ends after column j
    distinct = 1 + np.count_nonzero(bound, axis=1)
    # A huge max_bins exceeds every count, so it never sizes an array.
    many = distinct > min(max_bins, n)
    n_cand = np.where(many, min(max_bins, n) - 1, distinct - 1)
    cand = np.zeros((n_features, int(n_cand.max(initial=0))))
    slot = np.arange(cand.shape[1]) < n_cand[:, None]
    # Few distinct values: cut midway between each two. The two midpoints
    # of three consecutive floats can round to one value; the dedupe
    # below collapses it and keeps the edges strictly increasing.
    few = ~many
    Sf = S[few]
    cand[slot & few[:, None]] = (0.5 * (Sf[:, :-1] + Sf[:, 1:]))[bound[few]]
    if many.any():
        # Quantiles that collapse onto the value span's endpoints (heavy
        # mass at zero output, say) would produce empty or merged extreme
        # bins; pull them strictly inside, between the first and the last
        # midpoint.
        rows = np.arange(n_features)
        first = bound.argmax(axis=1)
        last = n - 2 - bound[:, ::-1].argmax(axis=1)
        lo = 0.5 * (S[rows, first] + S[rows, first + 1])
        hi = 0.5 * (S[rows, last] + S[rows, last + 1])
        q = _linear_quantiles(S, np.arange(1, max_bins) / max_bins)
        # np.clip of a column's candidates by its two bounds as scalars:
        # a candidate equal to a bound, a zero of the other sign included,
        # stays as it is. (np.clip by bound arrays would take the bound.)
        lo, hi = lo[:, None], hi[:, None]
        cand[many] = np.where(q < lo, lo, np.where(q > hi, hi, q))[many]
    for length in np.unique(n_cand[n_cand > 0]).tolist():
        rows = np.flatnonzero(n_cand == length)
        block = cand[rows, :length]
        block.sort(axis=1)
        cand[rows, :length] = block
    overflow = (slot & ~np.isfinite(cand)).any(axis=1)
    if overflow.any():
        raise ValueError(f"feature column {overflow.argmax()} spans more than the "
                         "largest float: its bin edges overflow")
    keep = slot.copy()
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    return _split(cand[keep], keep.sum(axis=1))


def _split(flat: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """``flat`` cut into consecutive pieces of ``sizes`` values."""
    ends = np.cumsum(sizes).tolist()
    return tuple(flat[a:b] for a, b in zip([0, *ends], ends))


def _linear_quantiles(s: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(s, qs)`` (method ``linear``, Hyndman & Fan type 7)
    of each row of the sorted samples ``s``, for ``qs`` in [0, 1) and
    rows of more than one value.

    One sort instead of numpy's partition around two indices per
    quantile; the arithmetic is numpy's ``_lerp``, so the values are
    bit-identical (up to the sign of a zero edge between tied -0.0 and
    +0.0, which numpy's partition leaves unspecified).
    """
    v = (s.shape[-1] - 1) * qs
    below = np.floor(v)
    g = v - below
    k = below.astype(np.intp)
    a, b = s[..., k], s[..., k + 1]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def apply_bins(bmap: BinningMap, X: np.ndarray) -> np.ndarray:
    """Map every value to its bin index.

    A value lands in bin ``searchsorted(edges, v, "right")``, so finite
    values outside the fitted range clamp to the extreme bins. A
    non-finite value raises ``ValueError`` naming its column: NaN would
    land in the top bin and +-inf in an extreme one, giving a plausible
    forecast from no data (``load_csv`` drops such rows for the same
    reason). The bins are read from the map's cell index
    (``BinningMap.cells``), every feature at once.
    """
    return _bin(bmap.cells, _feature_rows(X, bmap.n_features), range(bmap.n_features))


def bin_row(bmap: BinningMap, row) -> np.ndarray:
    """Bin index of every value of one row: ``bin_row(bmap, x)`` equals
    ``apply_bins(bmap, x[None])[0]``, errors included.

    A value's bin is the number of edges it reaches, counted in one
    comparison of the row with the cell index's ``+inf``-padded edge
    matrix (the padding is never reached). For a row or two that beats
    the gathers of :func:`apply_bins`.
    """
    X = _feature_rows(np.asarray(row, dtype=np.float64).reshape(1, -1), bmap.n_features)
    return (bmap.cells.edges <= X.T).sum(axis=1)


def bin_values(bmap: BinningMap, feature: int, values) -> np.ndarray:
    """Bin index of every value of one feature, by the rule and the cell
    index of :func:`apply_bins`: ``bin_values(bmap, f, X[:, f])`` equals
    ``apply_bins(bmap, X)[:, f]``, and a non-finite value raises the same
    ``ValueError`` naming column ``feature``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    _require_finite(values, (feature,))
    return _bin(bmap.cells, values, (feature,))[:, 0]


def _feature_rows(X, n_features: int) -> np.ndarray:
    """``X`` as float rows of ``n_features`` finite columns, the rows every
    ``predict`` takes, or ``ValueError`` (naming a non-finite column)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got shape {X.shape}")
    _require_finite(X, range(n_features))
    return X


def _require_finite(X: np.ndarray, features) -> None:
    """Raise ``ValueError`` naming ``features[k]`` for the first column
    k of the 2-D ``X`` that holds a non-finite value."""
    finite = np.isfinite(X)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise ValueError(f"non-finite value in feature column {features[k]}")


# Uniform cells per edge of the binning's longest edge vector.
_CELLS_PER_EDGE = 4
# Most edges one cell of a feature may hold; a feature with more in a
# cell is dense and binned by a binary search.
_CELL_STEPS = 4
# Most values (rows x features) binned at once, bounding the temporaries.
_BLOCK_VALUES = 16_384


class CellIndex(NamedTuple):
    """A binning's edges laid out so that a block of rows x features
    bins in ``steps + 1`` gathers. Row ``f`` of ``edges`` holds ``f``'s edges
    padded with ``+inf`` to one column more than the longest; :func:`_cell`
    maps ``f``'s values and edges to cells ``f * n_cells`` to ``(f + 1) *
    n_cells - 1``, and ``starts[c]`` is the flat position of cell ``c``'s
    first edge in ``edges`` (narrowest unsigned dtype). ``steps`` is the
    most edges a cell holds, over the features that are not ``dense``:
    those with a cell of more than :data:`_CELL_STEPS` edges.
    """

    lo: np.ndarray
    scale: np.ndarray
    n_cells: int
    starts: np.ndarray
    edges: np.ndarray
    steps: int
    dense: np.ndarray


def _cell(V: np.ndarray, lo, scale, n_cells: int, first) -> np.ndarray:
    """Cell of every value of ``V``, column k by ``lo[k]``, ``scale[k]``
    and its first cell ``first[k]``, a whole float added after the clip.

    Each step (subtract, multiply, clip, add, truncate a non-negative
    float) rounds monotonically, so ``v <= w`` gives ``cell(v) <= cell(w)``
    and cells stay in ``first[k]`` to ``first[k] + n_cells - 1``: edges in
    earlier cells are at most ``v`` and edges in later cells exceed it. A
    far-out value's offset may overflow to +-inf and clip to an end cell.
    """
    with np.errstate(over="ignore", under="ignore"):
        c = np.subtract(V, lo)
        c *= scale
    return np.add(np.clip(c, 0, n_cells - 1, out=c), first, out=c).astype(np.intp)


def _cell_index(edges) -> CellIndex:
    """The :class:`CellIndex` of the sorted edge vectors ``edges``."""
    counts = np.array([len(e) for e in edges], dtype=np.intp)
    width = int(counts.max(initial=0)) + 1
    padded = np.full((len(edges), width), np.inf)
    padded[np.arange(width) < counts[:, None]] = np.concatenate((np.empty(0), *edges))
    n_cells = _CELLS_PER_EDGE * max(width - 1, 1)
    lo = np.where(counts > 0, padded[:, 0], 0.0)
    # A feature's last edge (+inf for one without edges) sets its scale.
    # Any finite positive scale keeps the map monotone, so one that the
    # span's width (none, overflowing or subnormal) leaves zero or
    # infinite is clipped: only the spread over the cells suffers.
    with np.errstate(over="ignore", divide="ignore"):
        scale = n_cells / (padded[np.arange(len(edges)), counts - 1] - lo)
    scale = np.clip(scale, 1e-300, 1e300)
    first = n_cells * np.arange(len(edges), dtype=float)
    cell = _cell(padded, lo[:, None], scale[:, None], n_cells, first[:, None])
    per_cell = np.bincount(cell.ravel(), minlength=len(edges) * n_cells)
    # A feature's ``width`` slots, padding included, precede the next's.
    starts = (np.cumsum(per_cell) - per_cell).astype(np.min_scalar_type(padded.size))
    per_cell = per_cell.reshape(-1, n_cells)
    per_cell[:, -1] -= width - counts  # the +inf padding lands in the last cell
    densest = per_cell.max(axis=1, initial=0)
    dense = densest > _CELL_STEPS
    return CellIndex(lo=lo, scale=scale, n_cells=n_cells, starts=starts, edges=padded,
                     steps=int(densest[~dense].max(initial=0)), dense=dense)


def _bin(index: CellIndex, X: np.ndarray, features, out=None) -> np.ndarray:
    """Bin column k of the 2-D, finite ``X`` by the edges of
    ``features[k]`` in ``index``, into ``out`` when it is given.

    A value's position in the flat edge matrix starts at its cell's
    first edge and takes ``index.steps`` steps of one gather, one compare
    and one add for a whole block of values: each step passes one more
    edge of its own cell that it reaches, and no step passes the next
    cell's first edge or the ``+inf`` padding. A dense feature is binned
    by ``searchsorted`` on its padded edge row instead.
    """
    f = np.asarray(features, dtype=np.intp)
    lo, scale = index.lo[f], index.scale[f]
    first_cell, first_edge = f * float(index.n_cells), f * index.edges.shape[1]
    edges = index.edges.ravel()
    if out is None:
        out = np.empty(X.shape, dtype=np.int64)
    rows = max(1, _BLOCK_VALUES // max(len(f), 1))
    for a in range(0, len(X), rows):
        V = X[a:a + rows]
        pos = index.starts.take(_cell(V, lo, scale, index.n_cells, first_cell))
        for _ in range(index.steps):
            pos += edges.take(pos) <= V
        np.subtract(pos, first_edge, out=out[a:a + rows])
    for k in np.flatnonzero(index.dense[f]):
        out[:, k] = index.edges[f[k]].searchsorted(X[:, k], side="right")
    return out


def bin_boundaries(bmap: BinningMap, feature: int) -> np.ndarray:
    """Value-space boundaries of every bin: ``[vmin, cuts..., vmax]``."""
    return np.concatenate((
        [bmap.vmin[feature]], bmap.edges[feature], [bmap.vmax[feature]]
    ))


def bin_centers(bmap: BinningMap, feature: int) -> np.ndarray:
    """Midpoint of every bin's value span; center j maps back to bin j."""
    b = bin_boundaries(bmap, feature)
    return 0.5 * (b[:-1] + b[1:])
