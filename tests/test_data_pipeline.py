"""Data pipeline tests: ingestion, feature building, normalization,
splitting, binning, and correlation."""

import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from conftest import write_series_csv

SCHEMA = wg.CsvSchema(timestamp_column="time", target_column="power")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def pearson_oracle(a, b):
    """Direct textbook evaluation of the sample correlation formula."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    return num / (da * db)


def np_quantile_edges(col, max_bins):
    """``fit_bins``'s edges for one column as computed with ``np.quantile``."""
    uniq = np.unique(col)
    if len(uniq) < 2:
        return np.empty(0)
    if len(uniq) <= max_bins:
        return 0.5 * (uniq[:-1] + uniq[1:])
    cand = np.quantile(col, np.arange(1, max_bins) / max_bins)
    cand = np.clip(cand, 0.5 * (uniq[0] + uniq[1]), 0.5 * (uniq[-2] + uniq[-1]))
    return np.unique(cand)


@st.composite
def bin_columns(draw):
    """Columns with ties, negative values, tiny spans and magnitudes
    from 1e-300 to 1e300 (the sign of zero is left out: numpy's
    partition may put either of a tied -0.0/+0.0 at an index)."""
    n = draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["normal", "ties", "tiny_span", "drawn"]))
    if kind == "drawn":
        values = draw(st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=False)
            | st.sampled_from([0.0, 1e-300, -1e-300, 1.0, -1.0]),
            min_size=n, max_size=n))
        return np.asarray(values) + 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    if kind == "normal":
        col = rng.standard_normal(n)
    elif kind == "ties":
        col = rng.integers(-draw(st.integers(1, 40)), 40, n).astype(np.float64)
    else:
        col = 1.0 + rng.integers(0, 600, n) * np.finfo(np.float64).eps
    return col * scale + 0.0


class TestLoadCsv:
    def test_well_formed_rows_load_identically(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600, 7200], [0.1, 0.2, 0.3])
        frame = wg.load_csv(path, SCHEMA)
        assert len(frame) == 3
        assert frame.dropped_rows == 0
        np.testing.assert_allclose(frame.target, [0.1, 0.2, 0.3])

    def test_nan_target_row_dropped_and_counted(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600, 7200],
                                [0.1, float("nan"), 0.3])
        frame = wg.load_csv(path, SCHEMA)
        assert len(frame) == 2
        assert frame.dropped_rows == 1

    def test_duplicate_timestamp_errors(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600, 3600], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="non-monotone"):
            wg.load_csv(path, SCHEMA)

    def test_missing_column_errors(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600], [0.1, 0.2])
        bad = wg.CsvSchema(timestamp_column="time", target_column="nope")
        with pytest.raises(ValueError, match="missing column"):
            wg.load_csv(path, bad)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            wg.load_csv(path, SCHEMA)

    def test_unparseable_timestamp_errors(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power\nnot-a-date,0.5\n")
        with pytest.raises(ValueError, match="unparseable timestamp"):
            wg.load_csv(path, SCHEMA)

    def test_exogenous_columns_auto_detected(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600], [0.1, 0.2],
                                exogenous={"u10": [1.0, 2.0], "v10": [3.0, 4.0]})
        frame = wg.load_csv(path, SCHEMA)
        assert list(frame.exogenous) == ["u10", "v10"]

    def test_epoch_timestamps(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power\n100,0.5\n200,0.6\n")
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch")
        frame = wg.load_csv(path, schema)
        np.testing.assert_allclose(frame.timestamps, [100.0, 200.0])

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time;power;u10\n100;0.5;1.0\n200;0.6;2.0\n")
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch", delimiter=";")
        frame = wg.load_csv(path, schema)
        assert len(frame) == 2
        np.testing.assert_allclose(frame.exogenous["u10"], [1.0, 2.0])

    def test_explicit_exogenous_subset(self, tmp_path):
        path = write_series_csv(tmp_path / "a.csv", [0, 3600], [0.1, 0.2],
                                exogenous={"u10": [1.0, 2.0], "junk": [9.0, 9.0]})
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              exogenous_columns=("u10",))
        frame = wg.load_csv(path, schema)
        assert list(frame.exogenous) == ["u10"]


    def test_short_row_errors_with_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power\n2020-01-01 00:00:00,0.5\n"
                        "2020-01-01 01:00:00\n2020-01-01 02:00:00,0.6\n")
        with pytest.raises(ValueError, match="line 3"):
            wg.load_csv(path, SCHEMA)
        path.write_text("time,power,u10\n100,0.5,1.0\n200,0.6\n")
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch")
        with pytest.raises(ValueError, match="line 3"):
            wg.load_csv(path, schema)

    def test_naive_timestamps_are_utc(self, tmp_path, monkeypatch):
        """A naive series across a local DST change keeps whole hours."""
        if not hasattr(time, "tzset"):
            pytest.skip("time.tzset is unavailable")
        path = tmp_path / "a.csv"
        path.write_text("time,power\n" + "".join(
            f"2012-03-25T{h:02d}:00:00,0.5\n" for h in range(5)))
        # Central European rules, spelled out so no zone database is needed.
        monkeypatch.setenv("TZ", "CET-1CEST,M3.5.0,M10.5.0/3")
        time.tzset()
        try:
            frame = wg.load_csv(path, SCHEMA)
        finally:
            monkeypatch.undo()
            time.tzset()
        start = datetime(2012, 3, 25, tzinfo=timezone.utc).timestamp()
        np.testing.assert_array_equal(frame.timestamps, start + 3600.0 * np.arange(5))

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power\n100,0.5\n200,0.6\n", encoding="utf-8-sig")
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch")
        np.testing.assert_allclose(wg.load_csv(path, schema).target, [0.5, 0.6])


class TestLagFeatures:
    def test_enumeration_by_definition(self):
        """series [1..6], 2 lags, horizon 1: rows (1,2)->3 ... (4,5)->6."""
        frame = wg.TimeSeriesFrame(np.arange(6.0), np.arange(1.0, 7.0))
        m = wg.build_lag_features(frame, n_lags=2, horizon_steps=1)
        np.testing.assert_allclose(m.X, [[1, 2], [2, 3], [3, 4], [4, 5]])
        np.testing.assert_allclose(m.y, [3, 4, 5, 6])
        assert m.feature_names == ("lag_1", "lag_0")

    def test_too_short_series_errors(self):
        frame = wg.TimeSeriesFrame(np.arange(3.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="too short"):
            wg.build_lag_features(frame, n_lags=3, horizon_steps=1)

    def test_single_lag_is_persistence_style(self):
        frame = wg.TimeSeriesFrame(np.arange(5.0), np.arange(5.0))
        m = wg.build_lag_features(frame, n_lags=1, horizon_steps=1)
        assert m.feature_names == ("lag_0",)
        np.testing.assert_allclose(m.X[:, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(m.y, [1, 2, 3, 4])

    def test_reconstruction_on_random_series(self):
        """Row t's target is the raw series at t + horizon."""
        rng = np.random.default_rng(7)
        y = rng.uniform(size=200)
        frame = wg.TimeSeriesFrame(np.arange(200.0), y)
        for n_lags, horizon in [(1, 1), (4, 2), (10, 8)]:
            m = wg.build_lag_features(frame, n_lags, horizon)
            assert m.n_rows == 200 - n_lags - horizon + 1
            for t in range(m.n_rows):
                assert m.y[t] == y[t + n_lags + horizon - 1]
                np.testing.assert_array_equal(m.X[t], y[t:t + n_lags])


class TestExogenousFeatures:
    def test_pass_through(self):
        rng = np.random.default_rng(0)
        exo = {f"c{k}": rng.uniform(size=100) for k in range(4)}
        frame = wg.TimeSeriesFrame(np.arange(100.0), rng.uniform(size=100),
                                   exogenous=exo)
        m = wg.build_exogenous_features(frame)
        assert m.X.shape == (100, 4)
        np.testing.assert_array_equal(m.y, frame.target)

    def test_no_exogenous_errors(self):
        frame = wg.TimeSeriesFrame(np.arange(3.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="no exogenous"):
            wg.build_exogenous_features(frame)

    def test_single_column(self):
        frame = wg.TimeSeriesFrame(np.arange(3.0), np.array([1.0, 2.0, 3.0]),
                                   exogenous={"u": np.array([5.0, 6.0, 7.0])})
        m = wg.build_exogenous_features(frame)
        assert m.n_features == 1


class TestNormalization:
    def test_direct_formula(self):
        m = wg.SupervisedMatrix(np.array([[0.0], [5.0], [10.0]]),
                                np.array([0.0, 5.0, 10.0]), ("a",))
        out = wg.normalize_fit_apply(m, (0, 3))
        np.testing.assert_allclose(out.X[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(out.y, [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_half(self):
        m = wg.SupervisedMatrix(np.array([[3.0], [3.0], [3.0]]),
                                np.array([1.0, 2.0, 3.0]), ("a",))
        out = wg.normalize_fit_apply(m, (0, 3))
        np.testing.assert_array_equal(out.X[:, 0], [0.5, 0.5, 0.5])

    def test_out_of_range_values_clamp(self):
        m = wg.SupervisedMatrix(np.array([[0.0], [10.0], [12.0]]),
                                np.array([0.0, 1.0, 2.0]), ("a",))
        out = wg.normalize_fit_apply(m, (0, 2))  # fit sees only [0, 10]
        assert out.X[2, 0] == 1.0

    def test_empty_fit_range_errors(self):
        m = wg.SupervisedMatrix(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), ("a",))
        with pytest.raises(ValueError, match="empty fit range"):
            wg.normalize_fit_apply(m, (1, 1))

    def test_idempotence(self):
        """Re-fitting on already normalized data is the identity map."""
        rng = np.random.default_rng(3)
        m = wg.SupervisedMatrix(rng.normal(size=(50, 3)) * 7 + 2,
                                rng.uniform(size=50) * 3,
                                ("a", "b", "c"))
        once = wg.normalize_fit_apply(m, (0, 40))
        twice = wg.normalize_fit_apply(once, (0, 40))
        np.testing.assert_array_equal(once.X, twice.X)
        np.testing.assert_array_equal(once.y, twice.y)

    def test_apply_with_fixed_params_matches_fit_apply(self):
        rng = np.random.default_rng(4)
        m = wg.SupervisedMatrix(rng.normal(size=(30, 2)), rng.uniform(size=30),
                                ("a", "b"))
        fitted = wg.normalize_fit_apply(m, (0, 20))
        applied = wg.normalize_apply(m, fitted.norm_params)
        np.testing.assert_array_equal(fitted.X, applied.X)


class TestChronologicalSplit:
    def test_first_80_percent_then_10_10(self):
        split = wg.chronological_split(100)
        assert split.train == (0, 80)
        assert split.val == (80, 90)
        assert split.test == (90, 100)

    def test_floor_rule_m10(self):
        split = wg.chronological_split(10)
        assert (split.train, split.val, split.test) == ((0, 8), (8, 9), (9, 10))

    def test_too_small_errors(self):
        with pytest.raises(ValueError, match="too small"):
            wg.chronological_split(5)

    @pytest.mark.parametrize("m", [10, 11, 37, 100, 1001])
    def test_partition_property(self, m):
        """Ranges cover [0, m) contiguously, in order, no overlap."""
        split = wg.chronological_split(m)
        assert split.train[0] == 0
        assert split.train[1] == split.val[0]
        assert split.val[1] == split.test[0]
        assert split.test[1] == m

    def test_remainder_goes_to_test(self):
        split = wg.chronological_split(101)
        assert split.train == (0, 80)
        assert split.test == (90, 101)


class TestBinning:
    def test_quantile_construction_near_equal_counts(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(1000, 1))
        bmap = wg.fit_bins(X, (0, 1000), max_bins=4)
        counts = bmap.populations[0]
        assert len(counts) == 4
        assert np.all(np.abs(counts - 250) <= 5)  # within 2% of 250

    def test_constant_column_single_bin(self):
        X = np.full((20, 1), 3.3)
        bmap = wg.fit_bins(X, (0, 20), max_bins=8)
        assert bmap.n_bins(0) == 1
        assert np.all(wg.apply_bins(bmap, X) == 0)

    def test_below_fitted_min_clamps_to_bin_zero(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        bmap = wg.fit_bins(X, (0, 50), max_bins=4)
        assert wg.apply_bins(bmap, np.array([[-5.0]]))[0, 0] == 0
        assert wg.apply_bins(bmap, np.array([[99.0]]))[0, 0] == bmap.n_bins(0) - 1

    def test_every_value_gets_exactly_one_bin(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 2))
        bmap = wg.fit_bins(X, (0, 200), max_bins=16)
        idx = wg.apply_bins(bmap, X)
        for f in range(2):
            assert idx[:, f].min() >= 0
            assert idx[:, f].max() < bmap.n_bins(f)

    def test_heavy_duplication_keeps_resolution(self):
        """A column that is mostly zeros still separates the nonzeros."""
        X = np.concatenate([np.zeros(900), np.linspace(0.5, 1, 100)]).reshape(-1, 1)
        bmap = wg.fit_bins(X, (0, 1000), max_bins=8)
        idx = wg.apply_bins(bmap, X)
        assert idx[0, 0] != idx[-1, 0]

    def test_max_bins_too_small_errors(self):
        with pytest.raises(ValueError, match="max_bins"):
            wg.fit_bins(np.zeros((10, 1)), (0, 10), max_bins=1)

    def test_bin_centers_map_back_to_their_bins(self):
        rng = np.random.default_rng(8)
        X = rng.exponential(size=(500, 1))
        bmap = wg.fit_bins(X, (0, 500), max_bins=13)
        centers = wg.bin_centers(bmap, 0)
        idx = wg.apply_bins(bmap, centers.reshape(-1, 1))[:, 0]
        np.testing.assert_array_equal(idx, np.arange(bmap.n_bins(0)))


@settings(max_examples=400, deadline=None)
@given(col=bin_columns(), max_bins=st.integers(2, 64))
def test_fit_bins_edges_equal_np_quantile_bit_for_bit(col, max_bins):
    bmap = wg.fit_bins(col.reshape(-1, 1), (0, len(col)), max_bins)
    assert bmap.edges[0].tobytes() == np_quantile_edges(col, max_bins).tobytes()


class TestPearson:
    def test_self_correlation_is_one(self):
        assert wg.pearson_correlation([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_exact_anti_correlation(self):
        assert wg.pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_against_direct_formula_oracle(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [1.0, 2.0, 2.0, 4.0]
        expected = pearson_oracle(a, b)
        assert expected == pytest.approx(0.9233805168766388, abs=1e-12)
        assert wg.pearson_correlation(a, b) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_errors(self):
        with pytest.raises(ValueError, match="constant"):
            wg.pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_symmetry_and_positive_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            r = wg.pearson_correlation(a, b)
            assert wg.pearson_correlation(b, a) == pytest.approx(r, abs=1e-12)
            assert wg.pearson_correlation(2.5 * a + 1, b) == pytest.approx(r, abs=1e-10)
            assert wg.pearson_correlation(a, 0.3 * b - 7) == pytest.approx(r, abs=1e-10)
