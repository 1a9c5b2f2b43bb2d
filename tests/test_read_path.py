"""The read path on random small fits: ``predict``, the per-term
breakdown and ``term_contributions``, plus the non-finite input policy,
the training loss curve and the derived coarse maps of the same fits,
and the one-row binning the breakdown uses.

The reference below builds the rows x terms contribution matrix from
the model's tables, one column per term in term order, and sums it from
the intercept one column at a time in that order. The read path must
give the same floats bit for bit.
"""

import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import data, glassbox
from conftest import coarse_map, fit_args, fits, small_fit, training_losses


# ---------------------------------------------------------------------------
# Reference: the contribution matrix, summed column by column
# ---------------------------------------------------------------------------

def reference_contributions(model, X):
    Xb = wg.apply_bins(model.bins, X)
    cols = [sf.values[Xb[:, sf.feature]] for sf in model.shapes]
    for pt in model.pairs:
        ci = model.coarse_maps[pt.i][Xb[:, pt.i]]
        cj = model.coarse_maps[pt.j][Xb[:, pt.j]]
        cols.append(pt.grid[ci, cj])
    return np.column_stack(cols)


def reference_predict(model, X):
    contrib = reference_contributions(model, X)
    pred = np.full(len(contrib), model.intercept)
    for k in range(contrib.shape[1]):
        pred += contrib[:, k]
    return pred


def probe_rows(model, matrix, seed):
    """The model's own rows plus rows outside the fitted range."""
    rng = np.random.default_rng(seed)
    outside = rng.uniform(-0.5, 1.5, size=(20, model.n_features))
    return np.vstack([matrix.X, outside])


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(fit=fits, seed=st.integers(0, 2**32 - 1))
def test_predict_matches_reference_bit_for_bit(fit, seed):
    model, matrix, _ = fit
    X = probe_rows(model, matrix, seed)
    assert model.pairs
    ref = reference_contributions(model, X)
    assert model.term_contributions(X).tobytes() == ref.tobytes()
    assert model.predict(X).tobytes() == reference_predict(model, X).tobytes()


@settings(max_examples=60, deadline=None)
@given(fit=fits, seed=st.integers(0, 2**32 - 1))
def test_breakdown_is_exactly_additive_and_equals_predict(fit, seed):
    model, matrix, _ = fit
    X = probe_rows(model, matrix, seed)
    pred = model.predict(X)
    ref = reference_contributions(model, X)
    names = model.term_names()
    for k, row in enumerate(X):
        forecast, intercept, terms = model.predict_with_breakdown(row)
        assert intercept == model.intercept
        assert [n for n, _ in terms] == names
        assert [v for _, v in terms] == ref[k].tolist()
        total = intercept
        for _, v in terms:
            total += v
        assert total == forecast
        assert forecast == pred[k]
        assert forecast == model.predict(row[None, :])[0]


@settings(max_examples=60, deadline=None)
@given(fit=fits)
def test_every_table_is_centered(fit):
    model, matrix, split = fit
    Xb = wg.apply_bins(model.bins, matrix.X[split.train_slice])
    for sf in model.shapes:
        w = np.bincount(Xb[:, sf.feature], minlength=len(sf.values))
        assert abs(w @ sf.values / w.sum()) <= 1e-12
    for pt in model.pairs:
        ci = model.coarse_maps[pt.i][Xb[:, pt.i]]
        cj = model.coarse_maps[pt.j][Xb[:, pt.j]]
        w = np.bincount(ci * pt.grid.shape[1] + cj, minlength=pt.grid.size)
        assert abs(w @ pt.grid.ravel() / w.sum()) <= 1e-12
    assert model.intercept == pytest.approx(
        matrix.y[split.train_slice].mean(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(kw=fit_args)
def test_training_loss_never_increases(kw):
    """Each boosting step, main effects then pairs, is a least-squares
    fit scaled by a learning rate below one, so the training MSE never
    rises (up to rounding)."""
    (model, _, _), curve = training_losses(lambda: small_fit(**kw))
    curve = np.asarray(curve)
    assert len(curve) >= 2 * model.n_features
    assert np.all(np.diff(curve) <= 1e-12)


# ---------------------------------------------------------------------------
# Coarse maps are derived from the binning, once per model
# ---------------------------------------------------------------------------

def check_coarse_maps(model, matrix, tmp_dir):
    """The model stores no coarse maps: the first read derives every
    feature's from its binning, all in one call, and nothing on the read
    path or in ``save_model`` derives them again; ``load_model`` derives
    them once for the model it reads. The file round trip re-saves byte
    for byte."""
    assert "coarse_maps" not in {f.name for f in fields(wg.GlassBoxModel)}
    want = [coarse_map(pops, model.config.pair_bins) for pops in model.bins.populations]
    fresh = replace(model)  # a new instance: nothing derived yet
    X, y = matrix.X, matrix.y
    with mock.patch.object(glassbox, "_coarse_maps", wraps=glassbox._coarse_maps) as derive:
        maps = fresh.coarse_maps
        assert derive.call_count == 1
        fresh.predict(X)
        fresh.predict_with_breakdown(X[0])
        fresh.term_contributions(X)
        wg.pfi(fresh.predict, X, y, n_repeats=1)
        wg.pdp(fresh.predict, X, 0, [0.2, 0.8])
        assert derive.call_count == 1
        first, second = tmp_dir / "a.json", tmp_dir / "b.json"
        wg.save_model(fresh, first)
        assert derive.call_count == 1
        loaded = wg.load_model(first)
        wg.save_model(loaded, second)
        assert derive.call_count == 2
    assert sorted(maps) == list(range(model.n_features))
    for f, cmap in enumerate(want):
        np.testing.assert_array_equal(maps[f], cmap)
    assert first.read_bytes() == second.read_bytes()
    for f, cmap in enumerate(want):
        np.testing.assert_array_equal(loaded.coarse_maps[f], cmap)


@settings(max_examples=30, deadline=None)
@given(fit=fits)
def test_coarse_maps_are_derived_from_the_binning_once(fit):
    model, matrix, _ = fit
    with tempfile.TemporaryDirectory() as tmp:
        check_coarse_maps(model, matrix, Path(tmp))


def test_bagged_coarse_maps_are_derived_from_the_binning_once(tmp_path):
    model, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    bagged = wg.train(matrix, split, replace(model.config, bagging_count=2))
    assert bagged.pairs
    check_coarse_maps(bagged, matrix, tmp_path)


def test_training_derives_the_coarse_maps_once(tmp_path):
    """``train`` derives the maps once, for ranking, and the pair stage
    and the model it returns keep them: saving derives none."""
    first, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    with mock.patch.object(glassbox, "_coarse_maps", wraps=glassbox._coarse_maps) as derive:
        model = wg.train(matrix, split, first.config)
        assert derive.call_count == 1
        wg.save_model(model, tmp_path / "m.json")
        assert derive.call_count == 1
        wg.load_model(tmp_path / "m.json")
        assert derive.call_count == 2
    assert model.pairs


def test_breakdown_without_pairs_derives_no_coarse_maps():
    """Only pair terms read a coarse map, so neither a forecast nor the
    first breakdown of a model without pairs derives any."""
    model, matrix, _ = small_fit(seed=9, n_features=3, rounds=2, budget=0)
    assert model.pairs == ()
    fresh = replace(model)  # a new instance: nothing derived yet
    with mock.patch.object(glassbox, "_coarse_maps", wraps=glassbox._coarse_maps) as derive:
        fresh.predict_with_breakdown(matrix.X[0])
        fresh.predict(matrix.X)
        assert derive.call_count == 0


@pytest.mark.parametrize("bagging_count", [2, 3])
def test_bagged_training_derives_the_coarse_maps_once(tmp_path, bagging_count):
    """Every bag and the averaged model share one derivation: saving
    derives none."""
    first, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    config = replace(first.config, bagging_count=bagging_count)
    with mock.patch.object(glassbox, "_coarse_maps", wraps=glassbox._coarse_maps) as derive:
        model = wg.train(matrix, split, config)
        wg.save_model(model, tmp_path / "m.json")
        assert derive.call_count == 1
    assert model.pairs


@pytest.mark.parametrize("bagging_count", [1, 2])
def test_training_bins_the_rows_once(bagging_count):
    """One ``apply_bins`` call serves the main stage, ranking, the pair
    stage and every bag, and every row is binned once: bins that
    ``train`` fits itself have already binned the training rows, so
    ``apply_bins`` takes only the others."""
    first, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    config = replace(first.config, bagging_count=bagging_count)
    for bins in (None, wg.fit_bins(matrix.X, split.train, config.max_bins)):
        with (mock.patch.object(glassbox, "apply_bins", wraps=glassbox.apply_bins) as binned,
              mock.patch.object(data, "_bin", wraps=data._bin) as each_pass):
            model = wg.train(matrix, split, config, bins=bins)
        assert binned.call_count == 1
        assert sum(len(call.args[1]) for call in each_pass.call_args_list) == matrix.n_rows
        assert model.pairs


def test_pair_stage_with_other_pair_bins_derives_its_own_maps():
    """The maps are kept only while they are the model's own: a pair
    stage on ``replace(main, config=...)`` with another ``pair_bins``
    reads maps of that many bins."""
    model, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    main, residuals = wg.train_main_effects(matrix, split, model.bins, model.config)
    main.coarse_maps  # derived: maps of the main model's pair_bins to keep or not
    config = replace(model.config, pair_bins=2)
    full = wg.train_interactions(replace(main, config=config),
                                 wg.apply_bins(model.bins, matrix.X), split, residuals,
                                 [(0, 1)])
    for f, cmap in full.coarse_maps.items():
        np.testing.assert_array_equal(cmap, coarse_map(model.bins.populations[f], 2))


# ---------------------------------------------------------------------------
# Batch binning: one cell index per binning
# ---------------------------------------------------------------------------

def test_cell_index_is_built_once_per_binning(tmp_path):
    """Training, batch predicts, PFI, a PDP and breakdowns on one model
    build its binning's cell index once; a copy of the model shares it,
    a loaded model builds its own on first use, and no file holds it."""
    first, matrix, split = small_fit(seed=9, n_features=3, rounds=2)
    X, y = matrix.X[split.test_slice], matrix.y[split.test_slice]
    with mock.patch.object(data, "_cell_index", wraps=data._cell_index) as build:
        model = wg.train(matrix, split, first.config)
        for _ in range(10):
            model.predict(matrix.X)
        wg.pfi(model.predict, X, y, n_repeats=2)
        wg.pdp(model.predict, X, 1, np.linspace(0, 1, 5))
        for row in X[:5]:
            model.predict_with_breakdown(row)
        assert build.call_count == 1
        replace(model).predict(X)
        assert build.call_count == 1
        wg.save_model(model, tmp_path / "m.json")
        loaded = wg.load_model(tmp_path / "m.json")
        wg.save_model(loaded, tmp_path / "before.json")
        assert build.call_count == 1
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
        assert build.call_count == 2
        wg.save_model(loaded, tmp_path / "after.json")
    assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "m.json").read_bytes()


def test_cell_index_of_48_by_255_edges_keeps_at_most_a_quarter_megabyte():
    """``fit_bins`` builds the index with the map, so the index that
    ``data._cell_index`` builds for the same edges is measured."""
    X = np.random.default_rng(4).standard_normal((1000, 48))
    bmap = wg.fit_bins(X, (0, 1000), max_bins=256)
    assert {len(e) for e in bmap.edges} == {255}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = data._cell_index(bmap.edges)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < kept <= 0.25 * 2**20
    assert index.edges.shape == (48, 256)


# ---------------------------------------------------------------------------
# One-row breakdowns: binning by counting edges, tables built once
# ---------------------------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
SPECIAL = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -1e-310,
           1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def binnings_and_rows(draw):
    """A binning of uneven edge counts (a constant feature has none)
    over awkward floats, and a row of values on its edges, at +-0.0,
    subnormal, beyond both extremes, or anywhere."""
    n = draw(st.integers(1, 5))
    edges = tuple(np.array(sorted(draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL), finite), max_size=6, unique=True))))
        for _ in range(n))
    row = []
    for e in edges:
        with np.errstate(over="ignore"):
            beyond = [np.nextafter(e[0], -np.inf), np.nextafter(e[-1], np.inf)] if len(e) else []
        picks = list(e) + [v for v in beyond if np.isfinite(v)] + SPECIAL
        row.append(draw(st.one_of(st.sampled_from(picks), finite)))
    bmap = wg.BinningMap(edges=edges, vmin=np.zeros(n), vmax=np.ones(n),
                         populations=tuple(np.ones(len(e) + 1, dtype=np.int64)
                                           for e in edges),
                         max_bins=16)
    return bmap, np.array(row)


@settings(max_examples=300, deadline=None)
@given(case=binnings_and_rows())
def test_bin_row_equals_apply_bins(case):
    bmap, row = case
    got = data.bin_row(bmap, row)
    want = wg.apply_bins(bmap, row[None])[0]
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_breakdown_reads_tables_built_once_per_model(served_fit):
    """A breakdown bins without ``apply_bins`` and takes its names from
    the tables, which each model builds on its first breakdown."""
    model, matrix, _ = served_fit
    fresh = replace(model)  # a new instance: nothing built yet
    rows = matrix.X[:5]
    with mock.patch.object(glassbox, "_one_row_tables",
                           wraps=glassbox._one_row_tables) as build:
        first = fresh.predict_with_breakdown(rows[0])
        with (mock.patch.object(glassbox, "apply_bins", side_effect=AssertionError),
              mock.patch.object(data, "apply_bins", side_effect=AssertionError),
              mock.patch.object(wg.GlassBoxModel, "term_names",
                                side_effect=AssertionError)):
            got = [fresh.predict_with_breakdown(row) for row in rows]
        assert build.call_count == 1
        replace(fresh).predict_with_breakdown(rows[0])
        assert build.call_count == 2
    assert got[0] == first
    pred = model.predict(rows)
    for k, (forecast, intercept, terms) in enumerate(got):
        assert forecast == pred[k] and intercept == model.intercept
        assert [n for n, _ in terms] == model.term_names()


def test_pair_stage_does_not_keep_the_breakdown_tables(served_fit):
    """The tables of a main-effects model lack the pair terms the pair
    stage adds, so its model builds its own."""
    model, matrix, split = served_fit
    main, residuals = wg.train_main_effects(matrix, split, model.bins, model.config)
    row = matrix.X[0]
    main.predict_with_breakdown(row)
    full = wg.train_interactions(main, wg.apply_bins(model.bins, matrix.X), split,
                                 residuals, [(0, 1)])
    forecast, _, terms = full.predict_with_breakdown(row)
    assert [n for n, _ in terms] == full.term_names() == main.term_names() + ["x0 x x1"]
    assert forecast == full.predict(row[None])[0]


# ---------------------------------------------------------------------------
# Non-finite inputs are rejected
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served_fit():
    return small_fit(seed=5, n_features=4, rounds=3)


@pytest.fixture
def served(served_fit):
    """The model and a fresh copy of ten of its rows to spoil."""
    model, matrix, _ = served_fit
    return model, matrix.X[:10].copy()


BAD = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_apply_bins_rejects_non_finite(served, bad):
    model, X = served
    X[3, 2] = bad
    with pytest.raises(ValueError, match="non-finite value in feature column 2"):
        wg.apply_bins(model.bins, X)


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_predict_rejects_non_finite(served, bad):
    model, X = served
    X[7, 1] = bad
    with pytest.raises(ValueError, match="column 1"):
        model.predict(X)
    with pytest.raises(ValueError, match="column 1"):
        model.term_contributions(X)


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_breakdown_rejects_non_finite(served, bad):
    model, X = served
    row = X[0]
    row[3] = bad
    with pytest.raises(ValueError, match="column 3"):
        model.predict_with_breakdown(row)


@pytest.mark.parametrize("size", [3, 5, 0])
def test_breakdown_rejects_a_row_of_another_width(served, size):
    """The breakdown names the width it wanted as ``apply_bins`` does."""
    model, _ = served
    with pytest.raises(ValueError) as want:
        wg.apply_bins(model.bins, np.zeros((1, size)))
    message = rf"^expected 4 feature columns, got shape \(1, {size}\)$"
    with pytest.raises(ValueError, match=message) as got:
        model.predict_with_breakdown(np.zeros(size))
    assert str(got.value) == str(want.value)


def test_rt_baseline_rejects_non_finite(served):
    model, X = served
    matrix = wg.SupervisedMatrix(X=X, y=np.linspace(0, 1, len(X)),
                                 feature_names=model.feature_names)
    rt = wg.fit_rt_baseline(matrix, (0, len(X)))
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="column 0"):
        rt.predict(X)


@pytest.fixture(scope="module")
def forecasters(served_fit):
    """The served glass-box model and the three baselines on its rows."""
    model, matrix, split = served_fit
    return [model, wg.fit_ols(matrix, split.train),
            wg.fit_rt_baseline(matrix, split.train, max_bins=8),
            wg.PersistenceModel(lag_column=0, feature_names=matrix.feature_names)]


@st.composite
def bad_rows(draw):
    """Rows that no forecaster of four features takes: finite rows with a
    NaN or +-inf at one to three drawn cells, rows of another width, or
    one row as a 1-D array."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["non-finite", "width", "1-D"]))
    if kind == "width":
        return rng.uniform(size=(n, draw(st.sampled_from([0, 1, 3, 5, 9]))))
    X = rng.uniform(size=(n, 4))
    if kind == "1-D":
        return X[0]
    for _ in range(draw(st.integers(1, 3))):
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, 3))] = draw(st.sampled_from(BAD))
    return X


@settings(max_examples=100, deadline=None)
@given(X=bad_rows())
def test_every_forecaster_refuses_the_rows_apply_bins_refuses(forecasters, X):
    """Glass-box, OLS, CART and persistence ``predict`` raise the
    ``ValueError`` of ``apply_bins``, word for word: the width it wanted,
    or the first column holding a non-finite value."""
    with pytest.raises(ValueError) as want:
        wg.apply_bins(forecasters[0].bins, X)
    for model in forecasters:
        with pytest.raises(ValueError) as got:
            model.predict(X)
        assert str(got.value) == str(want.value), type(model).__name__
