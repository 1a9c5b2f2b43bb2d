"""Metric tests against independent naive re-implementations."""

import math

import numpy as np
import pytest

import windglass as wg


# ---------------------------------------------------------------------------
# Independent oracles: plain-Python loops, no numpy reductions
# ---------------------------------------------------------------------------

def naive_nrmse(forecast, actual):
    total = 0.0
    for f, a in zip(forecast, actual):
        total += (f - a) ** 2
    return math.sqrt(total / len(actual))


def naive_nmae(forecast, actual):
    total = 0.0
    for f, a in zip(forecast, actual):
        total += abs(f - a)
    return total / len(actual)


def naive_r2(forecast, actual):
    mean = sum(actual) / len(actual)
    sse = sum((f - a) ** 2 for f, a in zip(forecast, actual))
    sst = sum((a - mean) ** 2 for a in actual)
    return 1.0 - sse / sst


class TestHandCases:
    def test_perfect_forecast(self):
        assert wg.nrmse([0.2, 0.8], [0.2, 0.8]) == 0.0
        assert wg.nmae([0.2, 0.8], [0.2, 0.8]) == 0.0
        assert wg.r2([0.2, 0.8], [0.2, 0.8]) == 1.0

    def test_half_half_case(self):
        """forecast [0.5, 0.5] vs actual [0, 1]: 0.5 / 0.5 / 0.0 exactly."""
        assert wg.nrmse([0.5, 0.5], [0.0, 1.0]) == 0.5
        assert wg.nmae([0.5, 0.5], [0.0, 1.0]) == 0.5
        assert wg.r2([0.5, 0.5], [0.0, 1.0]) == 0.0

    def test_maximal_error(self):
        assert wg.nrmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_single_point_nmae(self):
        assert wg.nmae([0.2], [0.5]) == pytest.approx(0.3, abs=1e-15)

    def test_constant_actuals_error(self):
        with pytest.raises(ValueError, match="zero variance"):
            wg.r2([0.1, 0.2, 0.3], [0.4, 0.4, 0.4])

    def test_actuals_whose_variance_underflows_error(self):
        """Distinct actuals whose squared deviations all underflow give
        SST 0.0: an error, not a ``ZeroDivisionError``."""
        with pytest.raises(ValueError, match="zero variance"):
            wg.r2([0.0, 0.0, 0.0], [0.0, 0.0, 7e-184])

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="length mismatch"):
            wg.nrmse([0.1], [0.1, 0.2])
        with pytest.raises(ValueError, match="empty"):
            wg.nmae([], [])


class TestOracleEquivalence:
    def test_random_instances_match_naive_loops(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = rng.integers(2, 60)
            f = rng.uniform(size=m)
            a = rng.uniform(size=m)
            assert abs(wg.nrmse(f, a) - naive_nrmse(f, a)) <= 1e-12
            assert abs(wg.nmae(f, a) - naive_nmae(f, a)) <= 1e-12
            assert abs(wg.r2(f, a) - naive_r2(f, a)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(size=50)
        a = rng.uniform(size=50)
        perm = rng.permutation(50)
        assert wg.nrmse(f[perm], a[perm]) == pytest.approx(wg.nrmse(f, a), abs=1e-15)
        assert wg.nmae(f[perm], a[perm]) == pytest.approx(wg.nmae(f, a), abs=1e-15)

    def test_r2_improves_as_forecast_moves_toward_actual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = rng.uniform(size=20)
            a = rng.uniform(size=20)
            k = int(rng.integers(20))
            better = f.copy()
            better[k] = a[k] - 0.5 * (a[k] - f[k])  # halve one error
            if f[k] != a[k]:
                assert wg.r2(better, a) > wg.r2(f, a)


class TestEvaluate:
    def test_identity_forecast_bundle(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=30)
        report = wg.evaluate(a, a)
        assert (report.nrmse, report.nmae, report.r2) == (0.0, 0.0, 1.0)
        assert report.m == 30
        assert report.mean_actual == pytest.approx(a.mean())

    def test_half_half_bundle(self):
        report = wg.evaluate([0.5, 0.5], [0.0, 1.0])
        assert (report.nrmse, report.nmae, report.r2) == (0.5, 0.5, 0.0)

    def test_record_is_flat_and_complete(self):
        record = wg.evaluate([0.5, 0.5], [0.0, 1.0]).to_record()
        assert list(record) == ["nrmse", "nmae", "r2", "m", "mean_actual"]

    def test_errors_propagate(self):
        with pytest.raises(ValueError):
            wg.evaluate([0.1, 0.2], [0.5, 0.5])
