"""Glass-box model tests: recovery oracles, centering, additivity,
monotone loss, interaction ranking, and determinism."""

import itertools

import numpy as np
import pytest

import windglass as wg
from conftest import FAST


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

    def test_deterministic_tie_break_order(self):
        Xb = np.zeros((30, 3), dtype=int)  # constant features: all ties
        ranked = wg.rank_interaction_pairs(Xb, np.ones(30))
        assert [(i, j) for i, j, _ in ranked] == [(0, 1), (0, 2), (1, 2)]

    def test_strengths_exact_under_coarse_remapping(self):
        """Fine bins (256) force real coarse re-mapping; scores must match
        group-mean loops run over the same coarse columns, mapped from
        each column's own bin counts."""
        from windglass.glassbox import _coarse_map
        rng = np.random.default_rng(17)
        Xb = rng.integers(0, 256, size=(4000, 4))
        r = (Xb[:, 0] / 255.0 - 0.5) * (Xb[:, 3] / 255.0 - 0.5)
        r = r - r.mean()
        ranked = wg.rank_interaction_pairs(Xb, r, pair_bins=8)
        assert (ranked[0][0], ranked[0][1]) == (0, 3)
        cmaps = [_coarse_map(np.bincount(Xb[:, f], minlength=256), 8) for f in range(4)]
        coarse = np.column_stack([cmaps[f][Xb[:, f]] for f in range(4)])
        sizes = [int(cmaps[f].max()) + 1 for f in range(4)]
        assert max(sizes) == 8
        oracle = brute_pair_strength(coarse, r, sizes)
        for i, j, strength in ranked:
            assert strength == pytest.approx(oracle[(i, j)], abs=1e-8)


class TestInteractions:
    def test_zero_residuals_zero_grids(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(400, 2))
        matrix = matrix_from(X, np.full(400, 0.5))
        split = wg.chronological_split(400)
        bins = wg.fit_bins(X, split.train, 8)
        model, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        full = wg.train_interactions(model, matrix, split, residuals, [(0, 1)], FAST)
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
        full = wg.train_interactions(main_model, matrix, split, residuals,
                                     [(2, 3)], FAST)
        # grid oracle: cell means of the residuals over the coarse bins
        Xb = wg.apply_bins(bins, X)
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
        from dataclasses import replace
        no_pairs = wg.train(matrix, split, replace(FAST, interaction_budget=0))
        bins = wg.fit_bins(matrix.X, split.train, FAST.max_bins)
        mains, _ = wg.train_main_effects(matrix, split, bins, FAST)
        assert no_pairs.pairs == ()
        rng = np.random.default_rng(0)
        probe = rng.uniform(size=(100, matrix.n_features))
        np.testing.assert_array_equal(no_pairs.predict(probe), mains.predict(probe))

    def test_staged_public_path_equals_train(self, trained_setup):
        """train_main_effects, rank_interaction_pairs on the training
        rows, then train_interactions on the top-ranked pairs rebuild
        train's model bit for bit, pair order included."""
        model, matrix, split = trained_setup
        bins = wg.fit_bins(matrix.X, split.train, FAST.max_bins)
        mains, residuals = wg.train_main_effects(matrix, split, bins, FAST)
        tr = split.train_slice
        ranked = wg.rank_interaction_pairs(wg.apply_bins(bins, matrix.X[tr]),
                                           residuals[tr], FAST.pair_bins)
        selected = [(i, j) for i, j, _ in ranked[:len(model.pairs)]]
        staged = wg.train_interactions(mains, matrix, split, residuals, selected, FAST)
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

    def test_coarse_maps_follow_the_binning_populations(self):
        """Bins fit on every row, not only the training rows: single and
        2-bag fits on those bins carry the coarse maps of the bins'
        populations, and the bagged shapes are centered on them."""
        from dataclasses import replace
        from windglass.glassbox import _coarse_map
        raw = wg.make_interaction_data(1200, seed=8)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        cfg = replace(FAST, max_rounds=20, max_bins=64)
        bins = wg.fit_bins(matrix.X, (0, matrix.n_rows), cfg.max_bins)
        expected = [_coarse_map(pops, cfg.pair_bins) for pops in bins.populations]
        # The training rows alone would map some feature differently.
        Xb_tr = wg.apply_bins(bins, matrix.X[split.train_slice])
        assert any(not np.array_equal(
            _coarse_map(np.bincount(Xb_tr[:, f], minlength=bins.n_bins(f)),
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

    def test_unknown_pair_feature_errors(self, trained_setup):
        model, matrix, split = trained_setup
        with pytest.raises(ValueError, match="invalid feature pair"):
            wg.train_interactions(model, matrix, split,
                                  np.zeros(matrix.n_rows), [(0, 99)], FAST)


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

    def test_monotone_training_loss(self, trained_setup):
        model, _, _ = trained_setup
        losses = np.asarray(model.train_loss_curve)
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
        from dataclasses import replace
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
