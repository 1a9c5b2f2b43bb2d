"""The read path on random small fits: ``predict``, the per-term
breakdown and ``term_contributions``, plus the non-finite input policy
and the training loss curve of the same fits.

The reference below builds the rows x terms contribution matrix from
the model's tables, one column per term in term order, and sums it from
the intercept one column at a time in that order. The read path must
give the same floats bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg


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


def small_fit(seed, n_features, rounds, learning_rate=0.3):
    """A ~60-row fit with every pair, its matrix and split."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(60, n_features))
    # Ties and a value repeated across rows exercise shared bins.
    X[::7, 0] = 0.5
    y = (np.sin(3 * X[:, 0]) + X[:, 1] * X[:, -1]
         + 0.1 * rng.standard_normal(60))
    raw = wg.SupervisedMatrix(X=X, y=y,
                              feature_names=[f"x{k}" for k in range(n_features)])
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    config = wg.TrainConfig(learning_rate=learning_rate, max_rounds=rounds,
                            max_bins=16, pair_bins=4, interaction_budget="all",
                            min_samples_split=2)
    return wg.train(matrix, split, config), matrix, split


fits = st.builds(small_fit, seed=st.integers(0, 2**32 - 1),
                 n_features=st.integers(2, 4), rounds=st.integers(2, 3),
                 learning_rate=st.sampled_from([0.05, 0.3, 0.9]))


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
@given(fit=fits)
def test_training_loss_never_increases(fit):
    """Each boosting step, main effects then pairs, is a least-squares
    fit scaled by a learning rate below one, so the training MSE never
    rises (up to rounding)."""
    model, _, _ = fit
    curve = np.asarray(model.train_loss_curve)
    assert len(curve) >= 2 * model.n_features
    assert np.all(np.diff(curve) <= 1e-12)


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


def test_rt_baseline_rejects_non_finite(served):
    model, X = served
    matrix = wg.SupervisedMatrix(X=X, y=np.linspace(0, 1, len(X)),
                                 feature_names=model.feature_names)
    rt = wg.fit_rt_baseline(matrix, (0, len(X)))
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="column 0"):
        rt.predict(X)

