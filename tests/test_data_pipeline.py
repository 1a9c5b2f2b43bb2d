"""Data pipeline tests: ingestion, feature building, normalization,
splitting, and binning."""

import re
import time
import warnings
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import data
from conftest import write_series_csv

SCHEMA = wg.CsvSchema(timestamp_column="time", target_column="power")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def np_quantile_edges(col, max_bins):
    """``fit_bins``'s edges for one column as computed with ``np.quantile``."""
    uniq = np.unique(col)
    if len(uniq) < 2:
        return np.empty(0)
    if len(uniq) <= max_bins:
        return np.unique(0.5 * (uniq[:-1] + uniq[1:]))
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

    @pytest.mark.parametrize("ts, target, exo, twice", [
        ("time", "power", ("power", "b"), "power"),
        ("time", "power", ("b", "time"), "time"),
        ("time", "power", ("b", "c", "b"), "b"),
        ("time", "time", (), "time"),
    ])
    def test_column_named_for_two_roles_errors(self, ts, target, exo, twice):
        """The target as an exogenous column would let OLS read the
        answer (test NRMSE 4.8e-16): the schema refuses it, naming it."""
        with pytest.raises(ValueError, match=f"^column '{twice}' is named for two roles$"):
            wg.CsvSchema(timestamp_column=ts, target_column=target, exogenous_columns=exo)

    @pytest.mark.parametrize("header, exo, twice", [
        ("time,power,a,a", None, "a"),
        ("time,power,power", None, "power"),
        ("time,power,power", (), "power"),
        ("time,power,time", (), "time"),
        ("time,a,power,b,a", ("a",), "a"),
    ])
    def test_column_read_twice_errors(self, tmp_path, header, exo, twice):
        """A column the schema reads that the header names twice raises,
        naming it and the file: reading the first one would drop the
        other's values without a word."""
        path = tmp_path / "a.csv"
        width = header.count(",") + 1
        path.write_text(f"{header}\n100{',1' * (width - 1)}\n200{',2' * (width - 1)}\n")
        schema = wg.CsvSchema("time", "power", exo, timestamp_format="epoch")
        with pytest.raises(ValueError, match=f"^column '{twice}' is named twice") as err:
            wg.load_csv(path, schema)
        assert str(err.value).endswith(str(path))

    def test_duplicate_of_a_column_not_read_loads(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power,b,a,b\n100,0.5,1,2,3\n200,0.6,4,5,6\n")
        schema = wg.CsvSchema("time", "power", ("a",), timestamp_format="epoch")
        frame = wg.load_csv(path, schema)
        assert list(frame.exogenous) == ["a"]
        np.testing.assert_array_equal(frame.exogenous["a"], [2.0, 5.0])

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

    def test_oversized_cell_errors_with_line_number(self, tmp_path):
        """A cell over the csv module's field size limit is a data error
        naming its line, not a ``csv.Error``."""
        path = tmp_path / "a.csv"
        path.write_text("time,power\n2020-01-01 00:00:00,0.5\n"
                        f"2020-01-01 01:00:00,{'9' * 200_000}\n")
        with pytest.raises(ValueError, match="line 3: field larger than field limit"):
            wg.load_csv(path, SCHEMA)

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

    @settings(max_examples=500, deadline=None)
    @given(stamp=st.datetimes(min_value=datetime(1, 1, 1),
                              max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999)))
    def test_naive_stamp_seconds_are_its_utc_timestamp(self, stamp):
        """A naive stamp's offset from the naive epoch, as parsed, has the
        float bits of ``.timestamp()`` of the same stamp in UTC, from year
        1 to 9999 and to the microsecond."""
        want = stamp.replace(tzinfo=timezone.utc).timestamp()
        assert (stamp - data._EPOCH).total_seconds().hex() == want.hex()
        assert data._parse_timestamp(stamp.isoformat(), "iso8601").hex() == want.hex()

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,power\n100,0.5\n200,0.6\n", encoding="utf-8-sig")
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch")
        np.testing.assert_allclose(wg.load_csv(path, schema).target, [0.5, 0.6])

    @pytest.mark.parametrize("times", [["1", "nan", "0.5", "4"],
                                       ["1", "2", "3", "inf"]])
    def test_non_finite_timestamps_error(self, tmp_path, times):
        """A NaN stamp would hide the out-of-order row after it, and an
        infinite one passes any order check."""
        path = tmp_path / "a.csv"
        path.write_text("time,power\n" + "".join(f"{t},0.5\n" for t in times))
        schema = wg.CsvSchema(timestamp_column="time", target_column="power",
                              timestamp_format="epoch")
        with pytest.raises(ValueError, match="non-finite timestamps"):
            wg.load_csv(path, schema)


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

    def test_far_out_of_range_values_clamp_without_overflow(self):
        """A value whose offset from the fitted min, divided by a tiny
        span, overflows still clamps (warnings are errors here)."""
        m = wg.SupervisedMatrix(np.array([[0.0], [1e-300], [1e300], [-1e300]]),
                                np.array([0.0, 1e-300, 1e300, -1e300]), ("a",))
        out = wg.normalize_fit_apply(m, (0, 2))
        np.testing.assert_array_equal(out.X[:, 0], [0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(out.y, [0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("column", ["X", "y"])
    def test_span_that_overflows_errors(self, column):
        """A fitted max minus min beyond the largest float cannot scale
        the column: ``ValueError`` naming it, not NaN values."""
        huge = np.array([1e308, -1e308, 0.5])
        X = huge[:, None] if column == "X" else np.ones((3, 1))
        y = huge if column == "y" else np.ones(3)
        m = wg.SupervisedMatrix(X, y, ("a",))
        name = "feature column 'a'" if column == "X" else "the target"
        with pytest.raises(ValueError, match=f"^{name} spans more than the largest float"):
            wg.normalize_fit_apply(m, (0, 3))

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


FITS = ("normalize_fit_apply", "fit_bins", "fit_ols", "fit_rt_baseline")


def fit_outputs(name, matrix, fit_range, probe):
    """The arrays a fit named ``name`` on ``fit_range`` of ``matrix``
    produces: parameters, or the forecasts of the rows ``probe``."""
    if name == "normalize_fit_apply":
        p = wg.normalize_fit_apply(matrix, fit_range).norm_params
        return [p.feature_min, p.feature_max, p.target_min, p.target_max]
    if name == "fit_bins":
        b = wg.fit_bins(matrix.X, fit_range, max_bins=8)
        return [*b.edges, *b.populations, b.vmin, b.vmax]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # OLS on a few rows is rank-deficient
        return [getattr(wg, name)(matrix, fit_range).predict(probe)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), lo=st.integers(-3, 15), hi=st.integers(-3, 15),
       seed=st.integers(0, 2**32 - 1))
def test_every_fit_takes_the_rows_of_its_range_or_refuses_it(n, lo, hi, seed):
    """Each fit raises ``ValueError`` exactly when ``0 <= lo < hi <= n``
    fails; otherwise it equals the fit on rows ``lo:hi`` alone."""
    rng = np.random.default_rng(seed)
    m = wg.SupervisedMatrix(rng.uniform(size=(n, 2)), rng.uniform(size=n), ("a", "b"))
    for name in FITS:
        if 0 <= lo < hi <= n:
            rows = wg.SupervisedMatrix(m.X[lo:hi], m.y[lo:hi], m.feature_names)
            got = fit_outputs(name, m, (lo, hi), m.X)
            want = fit_outputs(name, rows, (0, hi - lo), m.X)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
        else:
            message = "empty fit range" if hi <= lo else f"outside the {n} rows"
            with pytest.raises(ValueError, match=message):
                fit_outputs(name, m, (lo, hi), m.X)


@pytest.mark.parametrize("fit_range", [(0, 796), (-5, -1), (306, 316)])
@pytest.mark.parametrize("name", FITS)
def test_fit_range_beyond_the_rows_errors(name, fit_range):
    """On a 296-row lag matrix these ranges once fitted all rows, the
    last four, or nothing (OLS returned all-zero weights)."""
    frame = wg.make_autocorrelated_series(300, seed=1)
    m = wg.build_lag_features(frame, n_lags=4, horizon_steps=1)
    assert m.n_rows == 296
    with pytest.raises(ValueError, match=rf"^fit range \({fit_range[0]}, {fit_range[1]}\) "
                                         "is outside the 296 rows$"):
        fit_outputs(name, m, fit_range, m.X)


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

    @pytest.mark.parametrize("fractions", [
        (0.9, 0.1, 0.1), (0.8, 0.2, 0.0), (0.8, -0.1, 0.3), (0.5, 0.5),
        (float("nan"), 0.1, 0.1), (0.8, float("inf"), 0.1), (0.8, 0.1, -float("inf")),
    ])
    def test_bad_fractions_error(self, fractions):
        """Three finite positive fractions that sum to 1, or ``ValueError``
        (``check_fractions``); NaN no longer reaches the row counts."""
        with pytest.raises(ValueError, match="fractions must"):
            data.check_fractions(fractions)
        with pytest.raises(ValueError, match="fractions must"):
            wg.chronological_split(100, fractions)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fit_value_errors(self, bad):
        """A non-finite value among the fit rows raises the ``ValueError``
        of ``apply_bins``, rather than giving NaN or infinite edges and
        spans that a saved model file cannot hold; rows outside the fit
        range are not read."""
        X = np.random.default_rng(3).uniform(size=(50, 3))
        X[7, 2] = bad
        with pytest.raises(ValueError, match="^non-finite value in feature column 2$"):
            wg.fit_bins(X, (0, 50), max_bins=8)
        assert np.isfinite(wg.fit_bins(X, (8, 50), max_bins=8).vmax).all()

    def test_midpoints_of_consecutive_floats_stay_strictly_increasing(self, tmp_path):
        """The midpoints of three consecutive floats, the first with an
        odd last bit, both round to the middle one; the repeat collapses,
        so the file of a model binned on them loads."""
        a = 1.0 + np.finfo(np.float64).eps
        X = np.array([a, np.nextafter(a, 2), np.nextafter(np.nextafter(a, 2), 2)] * 4)
        bmap = wg.fit_bins(X.reshape(-1, 1), (0, 12), max_bins=8)
        assert bmap.edges[0].tolist() == [X[1]]
        assert bmap.populations[0].tolist() == [4, 8]
        raw = wg.SupervisedMatrix(X=X.reshape(-1, 1), y=X, feature_names=["x"])
        rt = wg.fit_rt_baseline(raw, (0, 12), max_bins=8)
        wg.save_model(rt, tmp_path / "rt.json")
        assert wg.load_model(tmp_path / "rt.json").bins.edges[0].tolist() == [X[1]]

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
    assert np.all(bmap.edges[0][1:] > bmap.edges[0][:-1])


@settings(max_examples=150, deadline=None)
@given(col=bin_columns(), max_bins=st.integers(2, 64), draws=st.data())
def test_fit_bins_counts_its_fit_rows_through_its_cell_index(col, max_bins, draws):
    """``populations[f]`` is the bincount of ``apply_bins`` over the fit
    rows, and ``apply_bins`` reads the index ``fit_bins`` built; the
    binned fit rows the fit hands its callers are those bins."""
    X = np.column_stack([col, -col[::-1]])
    lo = draws.draw(st.integers(0, len(col) - 1))
    hi = draws.draw(st.integers(lo + 1, len(col)))
    with mock.patch.object(data, "_cell_index", wraps=data._cell_index) as build:
        bmap = wg.fit_bins(X, (lo, hi), max_bins)
        assert build.call_count == 1
        Xb = wg.apply_bins(bmap, X[lo:hi])
        assert build.call_count == 1
    for f in range(2):
        want = np.bincount(Xb[:, f], minlength=bmap.n_bins(f))
        assert bmap.populations[f].tobytes() == want.tobytes()
    assert data._fit_binned(X, (lo, hi), max_bins)[1].tobytes() == Xb.tobytes()


@np.errstate(over="ignore", invalid="ignore")
def reference_fit_bins(X, fit_range, max_bins):
    """``fit_bins`` one feature at a time: ``np.unique`` and ``np.sort``
    of each fit column, ``np.unique`` of its candidate edges. Returns
    the edges, populations, ``vmin``, ``vmax`` and the fit rows' bins,
    or raises the overflow ``ValueError`` for the first feature whose
    edges are not finite."""
    Xf = X[fit_range[0]:fit_range[1]]
    edges = []
    for f in range(Xf.shape[1]):
        col = Xf[:, f]
        uniq = np.unique(col)
        if len(uniq) < 2:
            cuts = np.empty(0)
        elif len(uniq) <= max_bins:
            cuts = np.unique(0.5 * (uniq[:-1] + uniq[1:]))
        else:
            s = np.sort(col)
            v = (len(s) - 1) * (np.arange(1, max_bins) / max_bins)
            below = np.floor(v)
            g = v - below
            k = below.astype(np.intp)
            d = s[k + 1] - s[k]
            cand = np.where(g >= 0.5, s[k + 1] - d * (1 - g), s[k] + d * g)
            cand = np.clip(cand, 0.5 * (uniq[0] + uniq[1]), 0.5 * (uniq[-2] + uniq[-1]))
            cuts = np.unique(cand)
        if not np.isfinite(cuts).all():
            raise ValueError(f"feature column {f} spans more than the largest float: "
                             "its bin edges overflow")
        edges.append(cuts)
    Xb = np.column_stack([np.searchsorted(e, Xf[:, f], side="right")
                          for f, e in enumerate(edges)])
    populations = [np.bincount(Xb[:, f], minlength=len(e) + 1) for f, e in enumerate(edges)]
    return edges, populations, Xf.min(axis=0), Xf.max(axis=0), Xb


SIGNED_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323]


@st.composite
def fit_matrices(draw):
    """Fit rows of one to four columns, each normal, tied, tied at its
    top, signed zeros among subnormals and other values, subnormal,
    near +-1e300 or +-1.7e308 (whose edges may overflow), constant or
    two-valued; with a fit range and a ``max_bins`` below and above
    the distinct counts, or huge."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["normal", "ties", "top_ties", "zeros", "subnormal",
                                     "huge", "constant", "two"]))
        if kind == "normal":
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
        elif kind == "ties":
            col = rng.integers(-draw(st.integers(1, 40)), 40, n) * 0.25
        elif kind == "top_ties":
            col = np.minimum(rng.standard_normal(n), rng.uniform(-0.5, 1.0))
        elif kind == "zeros":
            pool = np.concatenate([SIGNED_TINY, rng.standard_normal(draw(st.integers(0, 300)))])
            col = rng.choice(pool, n)
        elif kind == "subnormal":
            col = rng.integers(-60, 60, n) * 5e-324 * rng.choice([-1.0, 1.0], n)
        elif kind == "huge":
            col = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1e300, 1.7e308]))
        elif kind == "constant":
            col = np.full(n, draw(st.sampled_from([0.0, -0.0, 1.5, -1e300])))
        else:
            col = rng.choice(rng.standard_normal(2), n)
        columns.append(col)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    max_bins = draw(st.integers(2, 300) | st.sampled_from([2, 3, 17, 10**15]))
    return np.column_stack(columns), (lo, hi), max_bins


@settings(max_examples=600, deadline=None)
@given(case=fit_matrices())
@example(case=(np.arange(-8.0, 9.0)[:, None] * 5e-324, (0, 17), 25))
@example(case=(np.concatenate([np.arange(1, 41) / 8.0, [0.0] * 8 + [-0.0] * 8,
                               -np.arange(1, 41) / 8.0])[:, None], (0, 96), 17))
def test_fit_bins_equals_the_per_feature_loop(case):
    """The one-sort binning gives the per-feature loop's edges bit for
    bit (the sign of a zero edge included), its populations, ``vmin``,
    ``vmax`` and fit-row bins, or the same overflow refusal naming the
    same first column; a huge ``max_bins`` sizes no array.

    The examples put a -0.0 and a +0.0 side by side among 16 or more
    candidate edges, midpoints and quantiles: where the sort kernel
    reorders tied zeros of both signs (its AVX-512 form does), they
    fail a dedupe that skips the sort ``np.unique`` makes."""
    X, fit_range, max_bins = case
    try:
        want = reference_fit_bins(X, fit_range, max_bins)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            data._fit_binned(X, fit_range, max_bins)
        return
    bmap, Xb = data._fit_binned(X, fit_range, max_bins)
    edges, populations, vmin, vmax, bins = want
    assert [e.tobytes() for e in bmap.edges] == [e.tobytes() for e in edges]
    assert [p.tobytes() for p in bmap.populations] == [p.tobytes() for p in populations]
    assert bmap.vmin.tobytes() == vmin.tobytes() and bmap.vmax.tobytes() == vmax.tobytes()
    assert Xb.tobytes() == bins.tobytes()


# ---------------------------------------------------------------------------
# Batch binning through the cell index, against a binary search per feature
# ---------------------------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
HUGE = 1.7e308
SPECIAL = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -1e-310, HUGE, -HUGE]


def reference_bins(bmap, X):
    """Bin column f of ``X`` by one binary search in ``bmap.edges[f]``."""
    return np.column_stack([np.searchsorted(e, X[:, f], side="right")
                            for f, e in enumerate(bmap.edges)])


@st.composite
def edge_vectors(draw):
    """Strictly increasing edges: none, one or up to 300, spread out,
    with a cluster of 50 inside 1e-12 (more than one cell's steps), or
    over every magnitude out to +-1.7e308 with subnormals and a signed
    zero."""
    size = draw(st.sampled_from([0, 1]) | st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["spread", "cluster", "extreme"]))
    if layout == "spread":
        e = rng.standard_normal(size)
    elif layout == "cluster":
        e = np.concatenate([rng.standard_normal(max(size - 50, 0)),
                            rng.standard_normal() + np.arange(min(size, 50)) * 2e-14])
    else:
        e = np.concatenate([
            draw(st.lists(st.sampled_from(SPECIAL), max_size=min(size, 8))),
            rng.standard_normal(size) * 10.0 ** rng.integers(-320, 308, size)])
    e = np.unique(e)[:size]
    e[e == 0] = draw(st.sampled_from([0.0, -0.0]))
    return e


@st.composite
def binned_blocks(draw):
    """A binning and rows of its edges, their neighbours, +-0.0,
    +-1.7e308 and random values; sometimes more rows than one block."""
    edges = tuple(draw(st.lists(edge_vectors(), min_size=1, max_size=4)))
    n_rows = draw(st.sampled_from([1, 2, 37, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for e in edges:
        with np.errstate(over="ignore"):
            near = np.concatenate([e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf)])
        pool = np.concatenate([near[np.isfinite(near)], SPECIAL,
                               rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)])
        columns.append(rng.choice(pool, n_rows))
    bmap = wg.BinningMap(edges=edges, vmin=np.zeros(len(edges)), vmax=np.ones(len(edges)),
                         populations=tuple(np.ones(len(e) + 1, dtype=np.int64)
                                           for e in edges),
                         max_bins=512)
    return bmap, np.column_stack(columns)


@settings(max_examples=150, deadline=None)
@given(case=binned_blocks(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       draws=st.data())
def test_cell_index_bins_equal_a_binary_search(case, bad, draws):
    """Bins are exactly one ``searchsorted`` per feature, as int64, and a
    non-finite value raises naming the first column that holds one."""
    bmap, X = case
    want = reference_bins(bmap, X)
    got = wg.apply_bins(bmap, X)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    for f in range(bmap.n_features):
        got = data.bin_values(bmap, f, X[:, f])
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want[:, f])
    first = draws.draw(st.integers(0, X.shape[1] - 1))
    for f in range(first, X.shape[1]):
        X[draws.draw(st.integers(0, len(X) - 1)), f] = bad
    with pytest.raises(ValueError, match=f"^non-finite value in feature column {first}$"):
        wg.apply_bins(bmap, X)
    with pytest.raises(ValueError, match=f"^non-finite value in feature column {first}$"):
        data.bin_values(bmap, first, X[:, first])


@settings(max_examples=150, deadline=None)
@given(edges=st.lists(edge_vectors(), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_cell_map_is_monotone_and_keeps_to_its_features_cells(edges, seed):
    """Each feature's offset cell map never decreases and stays in the
    feature's own cells, ``f * n_cells`` to ``(f + 1) * n_cells - 1``, for
    +-0.0, subnormals, the largest floats, values at 1e+-300 scales and
    the edges with their neighbours: bins are exact because of it."""
    index = data._cell_index(edges)
    n = index.n_cells
    rng = np.random.default_rng(seed)
    biggest = np.finfo(float).max
    for f, e in enumerate(edges):
        with np.errstate(over="ignore"):
            near = np.concatenate([e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf)])
        values = np.sort(np.concatenate([
            near[np.isfinite(near)], SPECIAL, [biggest, -biggest],
            rng.standard_normal(40) * 10.0 ** rng.choice([-300, 300], 40)]))
        cells = data._cell(values[:, None], index.lo[[f]], index.scale[[f]], n,
                           np.array([f * n], dtype=float))[:, 0]
        assert np.all(np.diff(cells) >= 0)
        assert f * n <= cells[0] and cells[-1] <= (f + 1) * n - 1


@pytest.mark.parametrize("cell_steps", [0, 1])
@settings(max_examples=100, deadline=None)
@given(case=binned_blocks())
def test_dense_features_bin_by_binary_search_and_set_no_steps(cell_steps, case):
    """With at most 0 or 1 steps allowed, features whose densest cell
    holds more edges are dense; the rest set ``steps`` to the most edges
    one of their cells holds, cells start at each cell's first edge in the
    flat edge matrix, and every bin is still one binary search."""
    bmap, X = case
    with mock.patch.object(data, "_CELL_STEPS", cell_steps):
        index = bmap.cells
        got = wg.apply_bins(bmap, X)
    n, width = index.n_cells, index.edges.shape[1]
    most, dense = [], []
    for f, e in enumerate(bmap.edges):
        cells = data._cell(e[:, None], index.lo[[f]], index.scale[[f]], n,
                           np.array([f * n], dtype=float))[:, 0]
        per_cell = np.bincount(cells - f * n, minlength=n)
        starts = f * width + np.cumsum(per_cell) - per_cell
        np.testing.assert_array_equal(index.starts[f * n:(f + 1) * n], starts)
        most.append(int(per_cell.max()))
        dense.append(most[-1] > cell_steps)
    assert index.dense.tolist() == dense
    assert index.steps == max([m for m, d in zip(most, dense) if not d], default=0)
    want = reference_bins(bmap, X)
    np.testing.assert_array_equal(got, want)
    for f in range(bmap.n_features):
        np.testing.assert_array_equal(data.bin_values(bmap, f, X[:, f]), want[:, f])
