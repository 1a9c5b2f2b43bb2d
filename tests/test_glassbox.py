"""Glass-box model tests: recovery oracles, centering, additivity,
monotone loss, interaction ranking, and determinism."""

import itertools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from conftest import FAST, coarse_map
from windglass import glassbox


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def group_means(index, values, size):
    out = np.zeros(size)
    for b in range(size):
        members = values[index == b]
        if len(members):
            out[b] = members.mean()
    return out


def backfit_oracle(b1, b2, y, nb1, nb2, iters=500):
    """Alternating projections: the least-squares additive decomposition
    of y into f1(bin1) + f2(bin2), independent of boosting."""
    a0 = y.mean()
    f1 = np.zeros(nb1)
    f2 = np.zeros(nb2)
    for _ in range(iters):
        f1 = group_means(b1, y - a0 - f2[b2], nb1)
        f2 = group_means(b2, y - a0 - f1[b1], nb2)
    # center both against their populations
    w1 = np.bincount(b1, minlength=nb1)
    w2 = np.bincount(b2, minlength=nb2)
    a0 += w1 @ f1 / w1.sum() + w2 @ f2 / w2.sum()
    f1 = f1 - w1 @ f1 / w1.sum()
    f2 = f2 - w2 @ f2 / w2.sum()
    return a0, f1, f2


def brute_pair_strength(Xb, residuals, n_bins):
    """Pair scores recomputed with explicit group loops (bins are
    assumed fine enough that no coarse re-mapping happens)."""

    def fit_reduction(index, size):
        red = 0.0
        for b in range(size):
            members = residuals[index == b]
            if len(members):
                red += len(members) * members.mean() ** 2
        return red

    n = Xb.shape[1]
    marg = [fit_reduction(Xb[:, f], n_bins[f]) for f in range(n)]
    scores = {}
    for i, j in itertools.combinations(range(n), 2):
        cell = Xb[:, i] * n_bins[j] + Xb[:, j]
        scores[(i, j)] = fit_reduction(cell, n_bins[i] * n_bins[j]) - marg[i] - marg[j]
    return scores


def matrix_from(X, y):
    names = tuple(f"x{f}" for f in range(X.shape[1]))
    return wg.SupervisedMatrix(X=X, y=y, feature_names=names)


# Recovery-oracle runs need boosting driven to convergence, not stopped
# at the validation plateau.
CONVERGED = wg.TrainConfig(
    learning_rate=0.2,
    max_rounds=800,
    early_stop_tol=1e-12,
    early_stop_patience=800,
    max_bins=32,
    pair_bins=8,
)


# ---------------------------------------------------------------------------
# Main effects
# ---------------------------------------------------------------------------

class TestMainEffects:
    def test_constant_target(self):
        """y constant: intercept is the constant, shapes vanish."""
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 2))
        matrix = matrix_from(X, np.full(200, 0.3))
        split = wg.chronological_split(200)
        bins = wg.fit_bins(matrix.X, split.train, 16)
        model, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        assert model.intercept == pytest.approx(0.3, abs=1e-9)
        for sf in model.shapes:
            assert np.max(np.abs(sf.values)) < 1e-9
        assert np.max(np.abs(residuals)) < 1e-9

    def test_single_feature_recovers_bin_function(self):
        """y deterministic per bin: the shape converges to the centered
        per-bin group means."""
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(2000, 1))
        split = wg.chronological_split(2000)
        bins = wg.fit_bins(X, split.train, 8)
        b = wg.apply_bins(bins, X)[:, 0]
        g = np.array([0.1, 0.9, 0.4, 0.3, 0.7, 0.2, 0.6, 0.5])
        matrix = matrix_from(X, g[b])
        model, _ = wg.train_main_effects(matrix, split, bins, CONVERGED)
        tr = split.train_slice
        w = np.bincount(b[tr], minlength=8)
        oracle = g - w @ g / w.sum()
        np.testing.assert_allclose(model.shapes[0].values, oracle, atol=1e-3)

    def test_two_features_match_backfitting_oracle(self):
        """Additive two-feature target: boosting agrees with the
        alternating projections solution."""
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(3000, 2))
        split = wg.chronological_split(3000)
        bins = wg.fit_bins(X, split.train, 6)
        Xb = wg.apply_bins(bins, X)
        g1 = np.array([0.0, 0.2, 0.5, 0.1, 0.8, 0.3])
        g2 = np.array([0.4, 0.0, 0.6, 0.9, 0.2, 0.7])
        y = g1[Xb[:, 0]] + g2[Xb[:, 1]]
        matrix = matrix_from(X, y)
        model, _ = wg.train_main_effects(matrix, split, bins, CONVERGED)
        tr = split.train_slice
        a0, f1, f2 = backfit_oracle(Xb[tr, 0], Xb[tr, 1], y[tr], 6, 6)
        np.testing.assert_allclose(model.shapes[0].values, f1, atol=1e-2)
        np.testing.assert_allclose(model.shapes[1].values, f2, atol=1e-2)
        assert model.intercept == pytest.approx(a0, abs=1e-2)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            wg.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("key", ["learning_rate", "early_stop_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            wg.TrainConfig(**{key: value})

    @pytest.mark.parametrize("setting", [
        {"max_rounds": True}, {"seed": 1.0}, {"max_bins": np.float64(64.0)},
        {"interaction_budget": 2.5}, {"interaction_budget": False},
        {"learning_rate": True}, {"learning_rate": "0.1"}, {"bagging_count": np.bool_(True)},
    ], ids=["bool_rounds", "float_seed", "numpy_float_bins", "fractional_budget",
            "bool_budget", "bool_learning_rate", "string_learning_rate",
            "numpy_bool_bagging"])
    def test_value_of_the_wrong_type_rejected(self, setting):
        (key, _), = setting.items()
        with pytest.raises(TypeError, match=f"{key} must be"):
            wg.TrainConfig(**setting)

    def test_numpy_scalars_and_integer_floats_accepted(self):
        config = wg.TrainConfig(learning_rate=1, early_stop_tol=np.float32(0.5),
                                max_rounds=np.int64(7), seed=np.uint8(3),
                                interaction_budget=np.int32(2))
        assert (config.learning_rate, config.max_rounds, config.seed) == (1, 7, 3)

    @pytest.mark.parametrize("setting, message", [
        ({"main_depth": -1}, "max_depth must be >= 0"),
        ({"pair_depth": -1}, "max_depth must be >= 0"),
        ({"min_samples_split": 1}, "min_samples_split must be >= 2"),
        ({"min_samples_leaf": 0}, "min_samples_leaf must be >= 1"),
    ], ids=["main_depth", "pair_depth", "min_samples_split", "min_samples_leaf"])
    def test_bad_tree_setting_rejected_when_built(self, setting, message):
        """The tree settings follow TreeParams' rules, checked before
        any training starts."""
        with pytest.raises(ValueError, match=message):
            wg.TrainConfig(**setting)

    def test_negative_seed_rejected_only_when_bagging(self):
        """A bagged fit seeds its bootstrap draws with the seed, which
        numpy refuses when negative; an unbagged fit never reads it."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            wg.TrainConfig(seed=-3, bagging_count=2)
        assert wg.TrainConfig(seed=-3).seed == -3

    @pytest.mark.parametrize("extra", [-100, 100])
    def test_split_for_other_row_count_errors(self, trained_setup, extra):
        model, matrix, _ = trained_setup
        split = wg.chronological_split(matrix.n_rows + extra)
        with pytest.raises(ValueError, match="split's row count"):
            wg.train_main_effects(matrix, split, model.bins, FAST)


class TestInteractionRanking:
    def test_product_signal_pair_ranked_first(self):
        rng = np.random.default_rng(3)
        Xb = rng.integers(0, 6, size=(4000, 4))
        residuals = (Xb[:, 1] / 5.0) * (Xb[:, 2] / 5.0)
        residuals = residuals - residuals.mean()
        ranked = wg.rank_interaction_pairs(Xb, residuals, pair_bins=8)
        assert (ranked[0][0], ranked[0][1]) == (1, 2)
        oracle = brute_pair_strength(Xb, residuals, [6, 6, 6, 6])
        for i, j, strength in ranked:
            assert strength == pytest.approx(oracle[(i, j)], abs=1e-8)

    def test_pure_noise_strengths_within_null_distribution(self):
        """Noise residuals: observed strengths sit inside the Monte Carlo
        null spread obtained by re-drawing the residuals."""
        rng = np.random.default_rng(4)
        Xb = rng.integers(0, 5, size=(1500, 3))
        residuals = rng.normal(0, 0.1, size=1500)
        observed = wg.rank_interaction_pairs(Xb, residuals, pair_bins=8)
        null_scores = []
        for rep in range(30):
            fake = rng.normal(0, 0.1, size=1500)
            null_scores += [s for _, _, s in
                            wg.rank_interaction_pairs(Xb, fake, pair_bins=8)]
        lo, hi = np.min(null_scores), np.max(null_scores)
        spread = hi - lo
        for _, _, s in observed:
            assert lo - 0.5 * spread <= s <= hi + 0.5 * spread

    def test_two_features_single_pair(self):
        Xb = np.column_stack([np.arange(20) % 2, np.arange(20) % 3])
        ranked = wg.rank_interaction_pairs(Xb, np.random.default_rng(5).normal(size=20))
        assert len(ranked) == 1
        assert (ranked[0][0], ranked[0][1]) == (0, 1)

    def test_single_feature_errors(self):
        with pytest.raises(ValueError, match="two features"):
            wg.rank_interaction_pairs(np.zeros((10, 1), dtype=int), np.zeros(10))

    @pytest.mark.parametrize("pair_bins", [1, 0, -3])
    def test_pair_bins_below_two_rejected(self, pair_bins):
        Xb = np.random.default_rng(4).integers(0, 6, size=(200, 3))
        with pytest.raises(ValueError, match="pair_bins must be >= 2"):
            wg.rank_interaction_pairs(Xb, np.ones(200), pair_bins)

    def test_deterministic_tie_break_order(self):
        Xb = np.zeros((30, 3), dtype=int)  # constant features: all ties
        ranked = wg.rank_interaction_pairs(Xb, np.ones(30))
        assert [(i, j) for i, j, _ in ranked] == [(0, 1), (0, 2), (1, 2)]

    def test_strengths_exact_under_coarse_remapping(self):
        """Fine bins (256) force real coarse re-mapping; scores must match
        group-mean loops run over the same coarse columns, mapped from
        each column's own bin counts."""
        rng = np.random.default_rng(17)
        Xb = rng.integers(0, 256, size=(4000, 4))
        r = (Xb[:, 0] / 255.0 - 0.5) * (Xb[:, 3] / 255.0 - 0.5)
        r = r - r.mean()
        ranked = wg.rank_interaction_pairs(Xb, r, pair_bins=8)
        assert (ranked[0][0], ranked[0][1]) == (0, 3)
        cmaps = [coarse_map(np.bincount(Xb[:, f], minlength=256), 8) for f in range(4)]
        coarse = np.column_stack([cmaps[f][Xb[:, f]] for f in range(4)])
        sizes = [int(cmaps[f].max()) + 1 for f in range(4)]
        assert max(sizes) == 8
        oracle = brute_pair_strength(coarse, r, sizes)
        for i, j, strength in ranked:
            assert strength == pytest.approx(oracle[(i, j)], abs=1e-8)


TINY = np.finfo(np.float64).tiny


def reference_group_mean_fit(index, values, size):
    """SSE reduction of the per-group-mean model: sum of s^2/c."""
    cnt = np.bincount(index, minlength=size).astype(np.float64)
    sums = np.bincount(index, weights=values, minlength=size)
    nz = cnt > 0
    return float(np.sum(sums[nz] ** 2 / cnt[nz]))


def reference_rank_pairs(Xb, residuals, cmaps):
    """The pair ranker the one-stride ranker replaced: two masked
    bincounts over each pair's own ``ci * sj + cj`` grid, summed by
    ``np.sum``."""
    n = Xb.shape[1]
    coarse = np.column_stack([cmaps[f][Xb[:, f]] for f in range(n)])
    sizes = [int(cmaps[f].max()) + 1 for f in range(n)]
    marginal = [reference_group_mean_fit(coarse[:, f], residuals, sizes[f])
                for f in range(n)]
    scored = []
    for i, j in itertools.combinations(range(n), 2):
        cell = coarse[:, i] * sizes[j] + coarse[:, j]
        pair_fit = reference_group_mean_fit(cell, residuals, sizes[i] * sizes[j])
        scored.append((i, j, pair_fit - marginal[i] - marginal[j]))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    return scored


@st.composite
def ranker_inputs(draw):
    """Binned rows and residuals: columns of 1 to 60 bins, some shifted
    (leading empty bins, constant columns), some copies of an earlier
    column (exactly tied scores); residuals with per-row scales drawn
    from a range inside 1e-300 .. 1e300."""
    rows, n = draw(st.integers(2, 400)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for f in range(n):
        copy = draw(st.none() | st.integers(0, f - 1)) if f else None
        if copy is None:
            width, shift = draw(st.integers(1, 60)), draw(st.sampled_from([0, 0, 3]))
            cols.append(shift + rng.integers(0, width, size=rows))
        else:
            cols.append(cols[copy])
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, min(lo + 20, 300)))
    r = rng.standard_normal(rows) * 10.0 ** rng.integers(lo, hi + 1, size=rows)
    return np.column_stack(cols), r


def score_hexes(ranked):
    return [(i, j, s.hex()) for i, j, s in ranked]


@settings(max_examples=400, deadline=None)
@given(case=ranker_inputs(), pair_bins=st.integers(2, 40))
def test_ranking_equals_the_reference_bit_for_bit(case, pair_bins):
    """Same pairs, same order, same score bits as the reference on the
    same coarse columns and the residuals scaled by ``2**-k`` (``k`` the
    exponent of the largest), its scores scaled back by ``2**(2k)``, with
    no overflow warning at 1e300 residuals. Where the reference on the
    raw residuals stays in the normal range (each score finite and zero
    or normal, each ``r * r / rows`` normal), the bits are its bits too:
    a power-of-two scale is exact there."""
    Xb, r = case
    cmaps = [coarse_map(np.bincount(Xb[:, f]), pair_bins) for f in range(Xb.shape[1])]
    got = score_hexes(wg.rank_interaction_pairs(Xb, r, pair_bins))
    k = int(np.frexp(np.abs(r).max())[1])
    with np.errstate(all="ignore"):
        scaled = reference_rank_pairs(Xb, np.ldexp(r, -k), cmaps)
        raw = reference_rank_pairs(Xb, r, cmaps)
        scores = np.array([s for _, _, s in raw])
        in_range = (np.isfinite(scores).all()
                    and ((scores == 0) | (np.abs(scores) >= TINY)).all()
                    and (r * r / len(r) >= TINY).all())
        assert got == score_hexes((i, j, float(np.ldexp(s, 2 * k))) for i, j, s in scaled)
    if in_range:
        assert got == score_hexes(raw)


@settings(max_examples=150, deadline=None)
@given(case=ranker_inputs(), pair_bins=st.integers(2, 40), data=st.data())
def test_ranking_order_is_unchanged_by_a_power_of_two_scale(case, pair_bins, data):
    """``r * 2**j`` ranks as ``r`` does, for every ``|j| <= 900`` that
    keeps each residual finite and normal."""
    Xb, r = case
    exps = np.frexp(np.abs(r[r != 0]))[1]
    j = data.draw(st.integers(max(-900, -1021 - int(exps.min())),
                              min(900, 1024 - int(exps.max()))))
    scaled = np.ldexp(r, j)
    assert np.array_equal(np.ldexp(scaled, -j), r)
    order = [(a, b) for a, b, _ in wg.rank_interaction_pairs(Xb, r, pair_bins)]
    assert order == [(a, b) for a, b, _ in wg.rank_interaction_pairs(Xb, scaled, pair_bins)]


def reference_ranking_hexes(Xb, r, pair_bins):
    """What ``rank_interaction_pairs`` must return, as ``score_hexes``:
    the reference on the residuals scaled by ``2**-k`` (``k`` the
    exponent of the largest), its scores scaled back by ``2**(2k)``."""
    cmaps = [coarse_map(np.bincount(Xb[:, f]), pair_bins) for f in range(Xb.shape[1])]
    k = int(np.frexp(np.abs(r).max())[1])
    with np.errstate(all="ignore"):
        return score_hexes((i, j, float(np.ldexp(s, 2 * k)))
                           for i, j, s in reference_rank_pairs(Xb, np.ldexp(r, -k), cmaps))


def ranking_block(Xb, pair_bins, groups, extra=0):
    """A ranker block constant that puts ``groups`` pair grids of ``Xb``
    in a block (``extra`` cells more change nothing), or the default for
    ``None``."""
    if groups is None:
        return glassbox._RANK_BLOCK
    cmaps = [coarse_map(np.bincount(Xb[:, f]), pair_bins) for f in range(Xb.shape[1])]
    grid = (max(int(m.max()) for m in cmaps) + 1) ** 2
    unit = max(len(Xb), grid)
    return 1 if groups == 1 else groups * unit + extra % unit


def ranked_under_block(Xb, r, pair_bins, block):
    """``score_hexes`` of ``rank_interaction_pairs`` with the ranker's
    block constant set to ``block``."""
    with mock.patch.object(glassbox, "_RANK_BLOCK", block):
        return score_hexes(wg.rank_interaction_pairs(Xb, r, pair_bins))


@settings(max_examples=300, deadline=None)
@given(case=ranker_inputs(), pair_bins=st.integers(2, 40), data=st.data())
def test_ranking_is_the_reference_whatever_the_block_shape(case, pair_bins, data):
    """The blocked ranker gives the reference's pairs, order and score
    bits with one grid per block, two or three grids, a count that
    splits a first feature's pairs between blocks, or the default."""
    Xb, r = case
    n = Xb.shape[1]
    groups = data.draw(st.sampled_from([1, 2, 3, None]) | st.integers(2, max(2, n - 2)))
    block = ranking_block(Xb, pair_bins, groups, data.draw(st.integers(0, 10**6)))
    assert ranked_under_block(Xb, r, pair_bins, block) == reference_ranking_hexes(Xb, r, pair_bins)


@pytest.fixture(scope="module")
def lagged_ranker_input():
    """The ranker input of a 48-lag fit: the 760 training rows of a
    1,000-row series and their residuals after one main round."""
    frame = wg.make_autocorrelated_series(1_000, seed=0)
    raw = wg.build_lag_features(frame, 48, 2)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    bins = wg.fit_bins(matrix.X, split.train)
    config = wg.TrainConfig(max_rounds=1, early_stop_patience=1)
    _, residuals = wg.train_main_effects(matrix, split, bins, config)
    rows = split.train_slice
    Xb = wg.apply_bins(bins, matrix.X[rows])
    assert Xb.shape == (760, 48)
    return Xb, residuals[rows]


@pytest.mark.parametrize("groups", [1, 3, 7, None])
def test_ranking_of_48_lags_is_the_reference(lagged_ranker_input, groups):
    """All 1,128 pairs of a 48-lag fit, at its own shape: blocks of one
    grid, of three, of seven (which split every row of pairs), and the
    default."""
    Xb, r = lagged_ranker_input
    block = ranking_block(Xb, 32, groups)
    got = ranked_under_block(Xb, r, 32, block)
    assert len(got) == 1_128
    assert got == reference_ranking_hexes(Xb, r, 32)


# The staged pair API's input rule: each bad input, one bad cell or
# residual enough, and the message that names it.
BAD_RANKER_INPUTS = {"nan_residual": "non-finite", "inf_residual": "non-finite",
                     "bool_bins": "integer columns", "float_bins": "integer columns",
                     "negative_bin": "negative bin", "no_rows": "no rows"}


def spoil(Xb, r, bad, at):
    """``Xb`` and ``r`` with the fault ``bad`` put in at cell ``at``."""
    Xb, r = Xb.copy(), r.copy()
    if bad == "nan_residual":
        r[at % len(r)] = np.nan
    elif bad == "inf_residual":
        r[at % len(r)] = -np.inf if at % 2 else np.inf
    elif bad == "bool_bins":
        Xb = Xb > 0
    elif bad == "float_bins":
        Xb = Xb.astype(np.float64)
    elif bad == "negative_bin":
        Xb.flat[at % Xb.size] = -1 - at % 3
    else:
        Xb, r = Xb[:0], r[:0]
    return Xb, r


@settings(max_examples=150, deadline=None)
@given(case=ranker_inputs(), bad=st.sampled_from(sorted(BAD_RANKER_INPUTS)),
       at=st.integers(0, 10**6))
def test_ranking_refuses_bad_input_by_name(case, bad, at):
    Xb, r = spoil(*case, bad, at)
    with pytest.raises(ValueError, match=BAD_RANKER_INPUTS[bad]):
        wg.rank_interaction_pairs(Xb, r, 8)


@settings(max_examples=60, deadline=None)
@given(case=ranker_inputs(),
       pair_bins=st.floats(2, 40) | st.booleans() | st.text(max_size=2) | st.none()
       | st.just(np.float64(8.0)))
def test_ranking_refuses_a_pair_bins_that_is_not_an_integer(case, pair_bins):
    """As ``TrainConfig`` does: ``TypeError``, a bool and a whole float
    included; a numpy integer ranks as the Python integer it equals."""
    Xb, r = case
    with pytest.raises(TypeError, match="pair_bins must be int"):
        wg.rank_interaction_pairs(Xb, r, pair_bins)
    with np.errstate(all="ignore"):
        got, want = (wg.rank_interaction_pairs(Xb, r, b) for b in (np.int32(5), 5))
    assert [(i, j, s.hex()) for i, j, s in got] == [(i, j, s.hex()) for i, j, s in want]


def reference_coarse_map(populations, target_bins):
    """The coarse map compressed by sorting, ``np.unique``'s inverse."""
    nb = len(populations)
    if nb <= target_bins:
        return np.arange(nb)
    pops = populations.astype(np.float64)
    mid = np.cumsum(pops) - pops / 2.0
    c = np.floor(mid / pops.sum() * target_bins).astype(np.int64)
    c = np.clip(c, 0, target_bins - 1)
    return np.unique(c, return_inverse=True)[1]


@settings(max_examples=300, deadline=None)
@given(pops=st.lists(st.integers(0, 3) | st.integers(0, 10_000), min_size=1, max_size=300)
       .filter(lambda p: sum(p) > 0),
       target_bins=st.integers(2, 40))
def test_coarse_map_equals_unique_inverse(pops, target_bins):
    """Numbering the runs of the non-decreasing coarse indices equals
    sorting them, zero-population bins and single-bin runs included."""
    pops = np.asarray(pops, dtype=np.int64)
    got = coarse_map(pops, target_bins)
    want = reference_coarse_map(pops, target_bins)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


# One feature's counts: zero-count bins, a single bin, and bin counts on
# both sides of ``target_bins`` (up to 60, against 2..40) all occur.
feature_counts = (st.lists(st.integers(0, 3) | st.integers(0, 10_000), min_size=1,
                           max_size=60)
                  .filter(lambda p: sum(p) > 0))


@settings(max_examples=300, deadline=None)
@given(populations=st.lists(feature_counts, min_size=1, max_size=6),
       target_bins=st.integers(2, 40))
def test_all_coarse_maps_in_one_pass_equal_the_per_feature_maps(populations,
                                                                target_bins):
    """The padded pass over every feature gives each feature the map,
    values and dtype, that deriving it on its own gives."""
    from windglass.glassbox import _coarse_maps
    populations = [np.asarray(p, dtype=np.int64) for p in populations]
    got = _coarse_maps(populations, target_bins)
    assert list(got) == list(range(len(populations)))
    for f, pops in enumerate(populations):
        want = coarse_map(pops, target_bins)
        assert got[f].dtype == want.dtype
        np.testing.assert_array_equal(got[f], want)


class TestInteractions:
    def test_zero_residuals_zero_grids(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(400, 2))
        matrix = matrix_from(X, np.full(400, 0.5))
        split = wg.chronological_split(400)
        bins = wg.fit_bins(X, split.train, 8)
        model, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        full = wg.train_interactions(model, wg.apply_bins(bins, X), split, residuals,
                                     [(0, 1)])
        assert np.max(np.abs(full.pairs[0].grid)) < 1e-9

    def test_product_surface_matches_grid_oracle(self):
        """Residuals carry a centered product term: the learned pair grid
        approximates the cell-mean surface, and training NRMSE drops."""
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(4000, 4))
        base = 0.3 * X[:, 0]
        inter = (X[:, 2] - 0.5) * (X[:, 3] - 0.5)
        matrix = matrix_from(X, base + inter)
        split = wg.chronological_split(4000)
        bins = wg.fit_bins(X, split.train, 16)
        main_model, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        Xb = wg.apply_bins(bins, X)
        full = wg.train_interactions(main_model, Xb, split, residuals, [(2, 3)])
        # grid oracle: cell means of the residuals over the coarse bins
        tr = split.train_slice
        ci = full.coarse_maps[2][Xb[tr, 2]]
        cj = full.coarse_maps[3][Xb[tr, 3]]
        grid = full.pairs[0].grid
        cell = ci * grid.shape[1] + cj
        r_tr = residuals[tr]
        oracle_flat = group_means(cell, r_tr, grid.size)
        w = np.bincount(cell, minlength=grid.size)
        oracle_flat -= w @ oracle_flat / w.sum()
        seen = w > 0
        assert np.max(np.abs(grid.ravel()[seen] - oracle_flat[seen])) < 0.05

        te = split.test_slice
        err_main = wg.nrmse(main_model.predict(matrix.X[te]), matrix.y[te])
        err_full = wg.nrmse(full.predict(matrix.X[te]), matrix.y[te])
        assert err_full < err_main - 0.01

    def test_budget_zero_equals_main_effects_model(self):
        raw = wg.make_interaction_data(1200, seed=8)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        no_pairs = wg.train(matrix, split, replace(FAST, interaction_budget=0))
        bins = wg.fit_bins(matrix.X, split.train, FAST.max_bins)
        mains, _ = wg.train_main_effects(matrix, split, bins, FAST)
        assert no_pairs.pairs == ()
        rng = np.random.default_rng(0)
        probe = rng.uniform(size=(100, matrix.n_features))
        np.testing.assert_array_equal(no_pairs.predict(probe), mains.predict(probe))

    def test_staged_public_path_equals_train(self, trained_setup):
        """train_main_effects, rank_interaction_pairs on the training
        rows, then train_interactions on the top-ranked pairs, all on
        rows binned once, rebuild train's model bit for bit, pair order
        included."""
        model, matrix, split = trained_setup
        bins = wg.fit_bins(matrix.X, split.train, FAST.max_bins)
        mains, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        Xb = wg.apply_bins(bins, matrix.X)
        tr = split.train_slice
        ranked = wg.rank_interaction_pairs(Xb[tr], residuals[tr], FAST.pair_bins)
        selected = [(i, j) for i, j, _ in ranked[:len(model.pairs)]]
        staged = wg.train_interactions(mains, Xb, split, residuals, selected)
        assert staged.intercept == model.intercept
        assert (staged.rounds_main, staged.rounds_pairs) == (
            model.rounds_main, model.rounds_pairs)
        assert len(staged.shapes) == len(model.shapes)
        for a, b in zip(staged.shapes, model.shapes):
            assert a.feature == b.feature
            np.testing.assert_array_equal(a.values, b.values)
        assert len(staged.pairs) == len(model.pairs) > 0
        for a, b in zip(staged.pairs, model.pairs):
            assert (a.i, a.j) == (b.i, b.j)
            np.testing.assert_array_equal(a.grid, b.grid)
        assert staged.coarse_maps.keys() == model.coarse_maps.keys()
        for f, cmap in model.coarse_maps.items():
            np.testing.assert_array_equal(staged.coarse_maps[f], cmap)

    def test_staged_pair_stage_records_its_config(self, trained_setup, tmp_path):
        """A staged pair stage on ``replace(mains, config=...)`` with its
        own ``pair_bins`` returns a model that records that config, so its
        coarse maps are the ones its grids were built on, in memory and
        after a file round trip."""
        model, matrix, split = trained_setup
        bins = wg.fit_bins(matrix.X, split.train, FAST.max_bins)
        mains, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        coarser = replace(FAST, pair_bins=4)
        staged = wg.train_interactions(replace(mains, config=coarser),
                                       wg.apply_bins(bins, matrix.X), split, residuals,
                                       [(0, 1)])
        assert staged.config == coarser
        assert staged.pairs[0].grid.shape == (4, 4)
        assert [int(staged.coarse_maps[f].max()) + 1 for f in (0, 1)] == [4, 4]
        wg.save_model(staged, tmp_path / "m.json")
        loaded = wg.load_model(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.predict(matrix.X), staged.predict(matrix.X))

    def test_coarse_maps_follow_the_binning_populations(self):
        """Bins fit on every row, not only the training rows: single and
        2-bag fits on those bins carry the coarse maps of the bins'
        populations, and the bagged shapes are centered on them."""
        raw = wg.make_interaction_data(1200, seed=8)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        cfg = replace(FAST, max_rounds=20, max_bins=64)
        bins = wg.fit_bins(matrix.X, (0, matrix.n_rows), cfg.max_bins)
        expected = [coarse_map(pops, cfg.pair_bins) for pops in bins.populations]
        # The training rows alone would map some feature differently.
        Xb_tr = wg.apply_bins(bins, matrix.X[split.train_slice])
        assert any(not np.array_equal(
            coarse_map(np.bincount(Xb_tr[:, f], minlength=bins.n_bins(f)),
                        cfg.pair_bins), expected[f])
            for f in range(matrix.n_features))
        single = wg.train(matrix, split, cfg, bins=bins)
        bagged = wg.train(matrix, split, replace(cfg, bagging_count=2), bins=bins)
        for model in (single, bagged):
            assert model.pairs
            assert sorted(model.coarse_maps) == list(range(matrix.n_features))
            for f, cmap in model.coarse_maps.items():
                np.testing.assert_array_equal(cmap, expected[f])
        for sf in bagged.shapes:
            pops = bins.populations[sf.feature]
            assert abs(pops @ sf.values / pops.sum()) <= 1e-12

    @pytest.mark.parametrize("extra", [-50, 50])
    def test_residuals_of_wrong_length_error(self, trained_setup, extra):
        model, matrix, split = trained_setup
        mains = replace(model, pairs=())
        with pytest.raises(ValueError, match="split's row count"):
            wg.train_interactions(mains, wg.apply_bins(model.bins, matrix.X), split,
                                  np.zeros(matrix.n_rows + extra), [(0, 1)])

    @pytest.mark.parametrize("extra", [-100, 100])
    def test_split_for_other_row_count_errors(self, trained_setup, extra):
        model, matrix, _ = trained_setup
        split = wg.chronological_split(matrix.n_rows + extra)
        with pytest.raises(ValueError, match="split's row count"):
            wg.train_interactions(replace(model, pairs=()),
                                  wg.apply_bins(model.bins, matrix.X), split,
                                  np.zeros(split.n_rows), [(0, 1)])

    def test_unknown_pair_feature_errors(self, trained_setup):
        model, matrix, split = trained_setup
        with pytest.raises(ValueError, match="invalid feature pair"):
            wg.train_interactions(model, wg.apply_bins(model.bins, matrix.X), split,
                                  np.zeros(matrix.n_rows), [(0, 99)])

    @pytest.mark.parametrize("case, message", [
        ("column_count", "integer columns"), ("float_dtype", "integer columns"),
        ("negative_bin", "outside"), ("bin_past_n_bins", "outside"),
    ])
    def test_bad_binned_rows_error(self, trained_setup, case, message):
        """Rows that are not bins of ``model.bins`` are refused; one bad
        cell is enough."""
        model, matrix, split = trained_setup
        bad = wg.apply_bins(model.bins, matrix.X)
        if case == "column_count":
            bad = bad[:, :-1]
        elif case == "float_dtype":
            bad = bad.astype(np.float64)
        else:
            bad[7, 1] = -1 if case == "negative_bin" else model.bins.n_bins(1)
        with pytest.raises(ValueError, match=message):
            wg.train_interactions(replace(model, pairs=()), bad, split,
                                  np.zeros(matrix.n_rows), [(0, 1)])


@settings(max_examples=40, deadline=None)
@given(bad=st.sampled_from(sorted(BAD_RANKER_INPUTS)), at=st.integers(0, 10**6),
       pairs=st.sampled_from([[(0, 1)], []]))
def test_pair_stage_refuses_bad_input_by_name(trained_setup, bad, at, pairs):
    """The pair stage holds the ranker's rule for binned rows and
    residuals, with no pairs to train too: a NaN residual used to give
    a NaN model that ``save_model`` wrote and ``load_model`` refused."""
    model, matrix, split = trained_setup
    mains = replace(model, pairs=())
    Xb, r = spoil(wg.apply_bins(model.bins, matrix.X), np.zeros(matrix.n_rows), bad, at)
    message = "outside" if bad == "negative_bin" else BAD_RANKER_INPUTS[bad]
    with pytest.raises(ValueError, match=message):
        wg.train_interactions(mains, Xb, split, r, pairs)


@pytest.fixture(scope="module")
def diverging_setup():
    """A 400-row fit on which a learning rate of 3 diverges."""
    raw = wg.make_interaction_data(400, 4, seed=1)
    split = wg.chronological_split(raw.n_rows)
    return wg.normalize_fit_apply(raw, split.train), split


def test_diverging_main_stage_is_refused_before_any_float_warning(diverging_setup):
    """The main stage stops at the first round whose validation RMSE is
    not finite and names it: no NaN model comes back, and no overflow
    warning fires first (every warning is an error here)."""
    matrix, split = diverging_setup
    config = wg.TrainConfig(max_rounds=200, learning_rate=3.0, early_stop_patience=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"main-effects stage diverged: validation "
                                             r"RMSE inf at round 141 with learning_rate 3\.0"):
            wg.train(matrix, split, config)


def test_diverging_pair_stage_is_refused_before_any_float_warning(diverging_setup):
    """The pair stage holds the main stage's rule."""
    matrix, split = diverging_setup
    config = wg.TrainConfig(max_rounds=20, learning_rate=0.3, max_bins=32, pair_bins=8)
    bins = wg.fit_bins(matrix.X, split.train, 32)
    model, residuals = wg.train_main_effects(matrix, split, bins, config)
    wild = replace(config, learning_rate=4.0, max_rounds=300, early_stop_patience=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"interaction stage diverged: validation "
                                             r"RMSE inf at round 119 with learning_rate 4\.0"):
            wg.train_interactions(replace(model, config=wild), wg.apply_bins(bins, matrix.X),
                                  split, residuals, [(0, 1), (1, 2), (0, 2)])


class TestModelInvariants:
    def test_additivity_exact(self, trained_setup):
        """predict equals intercept + sum of breakdown terms, <= 1e-12."""
        model, matrix, split = trained_setup
        rng = np.random.default_rng(9)
        rows = rng.uniform(size=(1000, matrix.n_features))
        pred = model.predict(rows)
        for k in range(0, 1000, 97):
            forecast, intercept, terms = model.predict_with_breakdown(rows[k])
            total = intercept + sum(v for _, v in terms)
            assert abs(forecast - total) <= 1e-12
            assert abs(forecast - pred[k]) <= 1e-12

    def test_centering_and_intercept(self, trained_setup):
        model, matrix, split = trained_setup
        Xb = wg.apply_bins(model.bins, matrix.X[split.train_slice])
        for sf in model.shapes:
            w = np.bincount(Xb[:, sf.feature], minlength=len(sf.values))
            assert abs(w @ sf.values / w.sum()) <= 1e-9
        for pt in model.pairs:
            ci = model.coarse_maps[pt.i][Xb[:, pt.i]]
            cj = model.coarse_maps[pt.j][Xb[:, pt.j]]
            w = np.bincount(ci * pt.grid.shape[1] + cj,
                            minlength=pt.grid.size).astype(float)
            assert abs(w @ pt.grid.ravel() / w.sum()) <= 1e-9
        assert model.intercept == pytest.approx(
            matrix.y[split.train_slice].mean(), abs=1e-9)

    def test_monotone_training_loss(self, trained_run):
        losses = np.asarray(trained_run[3])
        assert len(losses) > 100
        assert np.all(np.diff(losses) <= 1e-12)

    def test_determinism_bit_identical(self):
        raw = wg.make_interaction_data(900, seed=10)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        m1 = wg.train(matrix, split, FAST)
        m2 = wg.train(matrix, split, FAST)
        assert m1.intercept == m2.intercept
        for a, b in zip(m1.shapes, m2.shapes):
            np.testing.assert_array_equal(a.values, b.values)
        for a, b in zip(m1.pairs, m2.pairs):
            assert (a.i, a.j) == (b.i, b.j)
            np.testing.assert_array_equal(a.grid, b.grid)

    def test_zero_term_model_predicts_intercept(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(100, 2))
        matrix = matrix_from(X, np.full(100, 0.42))
        split = wg.chronological_split(100)
        model = wg.train(matrix, split, FAST)
        np.testing.assert_allclose(model.predict(X), np.full(100, 0.42), atol=1e-9)

    def test_dimension_mismatch_errors(self, trained_setup):
        model, _, _ = trained_setup
        with pytest.raises(ValueError, match="feature columns"):
            model.predict(np.zeros((5, 99)))

    def test_bagging_keeps_structure_and_determinism(self):
        raw = wg.make_interaction_data(800, seed=12)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        cfg = replace(FAST, bagging_count=3, max_rounds=40)
        m1 = wg.train(matrix, split, cfg)
        m2 = wg.train(matrix, split, cfg)
        np.testing.assert_array_equal(m1.shapes[0].values, m2.shapes[0].values)
        # additivity and centering survive bag averaging
        row = matrix.X[0]
        forecast, intercept, terms = m1.predict_with_breakdown(row)
        assert abs(forecast - (intercept + sum(v for _, v in terms))) <= 1e-12
        Xb = wg.apply_bins(m1.bins, matrix.X[split.train_slice])
        for sf in m1.shapes:
            w = np.bincount(Xb[:, sf.feature], minlength=len(sf.values))
            assert abs(w @ sf.values / w.sum()) <= 1e-9
        assert m1.pairs
        for pt in m1.pairs:
            ci = m1.coarse_maps[pt.i][Xb[:, pt.i]]
            cj = m1.coarse_maps[pt.j][Xb[:, pt.j]]
            w = np.bincount(ci * pt.grid.shape[1] + cj,
                            minlength=pt.grid.size).astype(float)
            assert abs(w @ pt.grid.ravel() / w.sum()) <= 1e-9


class TestBudgetResolution:
    def test_auto_keeps_all_pairs_small_n(self, trained_setup):
        model, matrix, split = trained_setup
        assert len(model.pairs) == matrix.n_features * (matrix.n_features - 1) // 2

    def test_auto_caps_large_n(self):
        from windglass.glassbox import _resolve_budget
        assert _resolve_budget("auto", 6) == 15
        assert _resolve_budget("auto", 12) == 66
        assert _resolve_budget("auto", 48) == 10
        assert _resolve_budget("all", 48) == 48 * 47 // 2
        assert _resolve_budget(3, 6) == 3
        assert _resolve_budget(0, 6) == 0
