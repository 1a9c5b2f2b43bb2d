"""Forecast evaluation metrics: NRMSE, NMAE, and R-squared.

All three operate on normalized forecast/actual pairs, matching the
per-unit convention used throughout the library; denormalized reporting
is a presentation concern left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EvalReport", "nrmse", "nmae", "r2", "evaluate"]


def _check_pair(forecast, actual) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(forecast, dtype=np.float64).ravel()
    a = np.asarray(actual, dtype=np.float64).ravel()
    if len(f) != len(a):
        raise ValueError(f"length mismatch: {len(f)} forecasts vs {len(a)} actuals")
    if len(f) == 0:
        raise ValueError("empty input")
    return f, a


def nrmse(forecast, actual) -> float:
    """Root mean squared error of normalized values."""
    f, a = _check_pair(forecast, actual)
    return float(np.sqrt(np.mean((f - a) ** 2)))


def nmae(forecast, actual) -> float:
    """Mean absolute error of normalized values."""
    f, a = _check_pair(forecast, actual)
    return float(np.mean(np.abs(f - a)))


def r2(forecast, actual) -> float:
    """Coefficient of determination, 1 - SSE/SST.

    SST is taken about the mean of the actuals. Constant actuals, or
    actuals so close that SST underflows to zero, make the ratio
    undefined and raise rather than returning NaN, so a degenerate
    evaluation window fails loudly.
    """
    f, a = _check_pair(forecast, actual)
    sst = float(np.sum((a - a.mean()) ** 2))
    if sst == 0.0 or np.all(a == a[0]):
        raise ValueError("zero variance in actuals: R^2 undefined")
    sse = float(np.sum((f - a) ** 2))
    return 1.0 - sse / sst


@dataclass(frozen=True)
class EvalReport:
    """Bundle of the three metrics over one forecast/actual pair."""

    nrmse: float
    nmae: float
    r2: float
    m: int
    mean_actual: float

    def to_record(self) -> dict[str, float]:
        """Flat key-value record for tabular output."""
        return {
            "nrmse": self.nrmse,
            "nmae": self.nmae,
            "r2": self.r2,
            "m": self.m,
            "mean_actual": self.mean_actual,
        }

    def __str__(self) -> str:
        return (f"NRMSE={self.nrmse:.4f} NMAE={self.nmae:.4f} "
                f"R2={self.r2:.4f} (m={self.m})")


def evaluate(forecast, actual) -> EvalReport:
    """Compute NRMSE, NMAE, and R-squared in one pass."""
    f, a = _check_pair(forecast, actual)
    return EvalReport(
        nrmse=nrmse(f, a),
        nmae=nmae(f, a),
        r2=r2(f, a),
        m=len(a),
        mean_actual=float(a.mean()),
    )
