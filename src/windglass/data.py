"""Data pipeline: CSV ingestion, supervised matrices, normalization,
chronological splitting, and quantile binning.

Everything here is deterministic and value-like: functions return new
objects and never mutate their inputs, so results are safe to share
across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

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
    "fit_bins",
    "apply_bins",
    "bin_values",
    "bin_centers",
    "bin_boundaries",
    "pearson_correlation",
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
    order; pass ``()`` for none.
    """

    timestamp_column: str
    target_column: str
    exogenous_columns: tuple[str, ...] | None = None
    timestamp_format: str = "iso8601"
    delimiter: str = ","


@dataclass(frozen=True)
class TimeSeriesFrame:
    """A validated univariate power series plus optional exogenous columns.

    Invariants enforced at construction: strictly increasing timestamps,
    equal column lengths, all values finite. ``dropped_rows`` records how
    many raw rows were discarded during ingestion.
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
    transform maps every value of such a column to 0.5.
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
        out = np.clip((X - lo) / safe, 0.0, 1.0)
        out[:, constant] = 0.5
        return out

    def apply_target(self, y: np.ndarray) -> np.ndarray:
        if self.target_max == self.target_min:
            return np.full_like(np.asarray(y, dtype=np.float64), 0.5)
        return np.clip(
            (y - self.target_min) / (self.target_max - self.target_min), 0.0, 1.0
        )

    def invert_feature(self, feature: int, values: np.ndarray) -> np.ndarray:
        lo = self.feature_min[feature]
        hi = self.feature_max[feature]
        return lo + np.asarray(values) * (hi - lo)

    def invert_target(self, values: np.ndarray) -> np.ndarray:
        return self.target_min + np.asarray(values) * (self.target_max - self.target_min)


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
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
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
    to hold every declared column raises. Duplicate or out-of-order
    timestamps raise, they are never silently reordered.

    Parameters
    ----------
    path : str or Path
        CSV file with a header row.
    schema : CsvSchema
        Column roles, timestamp format, and delimiter.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
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
        ts_idx = header.index(schema.timestamp_column)
        y_idx = header.index(schema.target_column)
        exo_idx = [header.index(c) for c in exo_names]
        n_fields = max(ts_idx, y_idx, *exo_idx) + 1

        timestamps: list[float] = []
        target: list[float] = []
        exo_cols: list[list[float]] = [[] for _ in exo_names]
        dropped = 0
        for row in reader:
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


# ---------------------------------------------------------------------------
# Supervised matrix construction
# ---------------------------------------------------------------------------

def lag_feature_names(n_lags: int) -> tuple[str, ...]:
    """Names for lag columns, oldest first: ``lag_{n-1} .. lag_0``.

    ``lag_0`` is the most recent observation and is what the persistence
    baseline forecasts with.
    """
    return tuple(f"lag_{k}" for k in range(n_lags - 1, -1, -1))


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
    erroring, so a flat sensor cannot abort training.
    """
    lo, hi = fit_range
    if hi <= lo:
        raise ValueError("empty fit range")
    Xf = matrix.X[lo:hi]
    yf = matrix.y[lo:hi]
    params = NormParams(
        feature_min=Xf.min(axis=0),
        feature_max=Xf.max(axis=0),
        target_min=float(yf.min()),
        target_max=float(yf.max()),
    )
    return normalize_apply(matrix, params)


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
    contract.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be three positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
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


# ---------------------------------------------------------------------------
# Quantile binning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinningMap:
    """Per-feature monotone bin edges mapping reals to histogram indices.

    ``edges[f]`` holds the strictly increasing interior cut points of
    feature ``f``; a value lands in bin ``searchsorted(edges, v,
    "right")``, so anything outside the fitted range clamps to the
    extreme bins. ``populations[f]`` counts fitting rows per bin: the
    glass-box model's coarse pair bins and its bagged re-centering
    weights come from it. ``vmin``/``vmax`` record the fitted value span
    (used for bin centers and axis denormalization).
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


def fit_bins(X: np.ndarray, fit_range: tuple[int, int], max_bins: int = 256) -> BinningMap:
    """Fit per-feature quantile bin edges on ``fit_range`` rows.

    Quantile edges give near-equal training populations per bin, which
    keeps lookup tables well supported even for skewed wind
    distributions. Duplicate quantiles collapse, so a constant column
    yields a single bin.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    lo, hi = fit_range
    if hi <= lo:
        raise ValueError("empty fit range")
    Xf = np.asarray(X, dtype=np.float64)[lo:hi]
    qs = np.arange(1, max_bins) / max_bins
    edges = []
    pops = []
    for f in range(Xf.shape[1]):
        col = Xf[:, f]
        uniq = np.unique(col)
        if len(uniq) < 2:
            cuts = np.empty(0)
        elif len(uniq) <= max_bins:
            # Few distinct values: give each its own bin.
            cuts = 0.5 * (uniq[:-1] + uniq[1:])
        else:
            cand = _linear_quantiles(np.sort(col), qs)
            # Quantiles that collapse onto the value span's endpoints
            # (heavy mass at zero output, say) would produce empty or
            # merged extreme bins; pull them strictly inside.
            cand = np.clip(cand, 0.5 * (uniq[0] + uniq[1]),
                           0.5 * (uniq[-2] + uniq[-1]))
            cuts = np.unique(cand)
        idx = np.searchsorted(cuts, col, side="right")
        edges.append(cuts)
        pops.append(np.bincount(idx, minlength=len(cuts) + 1))
    return BinningMap(
        edges=tuple(edges),
        vmin=Xf.min(axis=0),
        vmax=Xf.max(axis=0),
        populations=tuple(pops),
        max_bins=max_bins,
    )


def _linear_quantiles(s: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(s, qs)`` (method ``linear``, Hyndman & Fan type 7)
    of the sorted sample ``s``, for ``qs`` in [0, 1) and ``len(s) > 1``.

    One sort instead of numpy's partition around two indices per
    quantile; the arithmetic is numpy's ``_lerp``, so the values are
    bit-identical (up to the sign of a zero edge between tied -0.0 and
    +0.0, which numpy's partition leaves unspecified).
    """
    v = (len(s) - 1) * qs
    below = np.floor(v)
    g = v - below
    k = below.astype(np.intp)
    a, b = s[k], s[k + 1]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def apply_bins(bmap: BinningMap, X: np.ndarray) -> np.ndarray:
    """Map every value to its bin index.

    A value lands in bin ``searchsorted(edges, v, "right")``, so finite
    values outside the fitted range clamp to the extreme bins. A
    non-finite value raises ``ValueError`` naming its column: NaN would
    land in the top bin and +-inf in an extreme one, giving a plausible
    forecast from no data (``load_csv`` drops such rows for the same
    reason).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != bmap.n_features:
        raise ValueError(
            f"expected {bmap.n_features} feature columns, got shape {X.shape}"
        )
    return _bin(bmap, X, range(bmap.n_features))


def bin_values(bmap: BinningMap, feature: int, values) -> np.ndarray:
    """Bin index of every value of one feature, by the rule of
    :func:`apply_bins`: ``bin_values(bmap, f, X[:, f])`` equals
    ``apply_bins(bmap, X)[:, f]``, and a non-finite value raises the same
    ``ValueError`` naming column ``feature``."""
    values = np.asarray(values, dtype=np.float64)
    return _bin(bmap, values.reshape(-1, 1), (feature,))[:, 0]


def _bin(bmap: BinningMap, X: np.ndarray, features) -> np.ndarray:
    """Bin column k of the 2-D ``X`` by the edges of ``features[k]``,
    raising on the first column (in that order) holding a non-finite
    value."""
    finite = np.isfinite(X)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise ValueError(f"non-finite value in feature column {features[k]}")
    out = np.empty(X.shape, dtype=np.int64)
    for k, f in enumerate(features):
        out[:, k] = bmap.edges[f].searchsorted(X[:, k], side="right")
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


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def pearson_correlation(a, b) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences.

    Raises on constant input, where the coefficient is undefined.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if len(a) < 2:
        raise ValueError("need at least two points")
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(da @ db) / denom
