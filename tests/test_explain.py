"""Explanation tooling tests: importances, exports, PDP, PFI, and
cross-method ranking agreement."""

import numpy as np
import pytest

import windglass as wg
from conftest import FAST


class TestGlobalImportance:
    def test_constructed_lookup_tables_score_exactly(self, trained_setup):
        """Hand-built model where |f0| = 0.2 and |f1| = 0.1 pointwise."""
        model, matrix, _ = trained_setup
        from dataclasses import replace
        nb0 = model.bins.n_bins(0)
        nb1 = model.bins.n_bins(1)
        rigged = replace(
            model,
            shapes=(
                wg.ShapeFunction(0, np.full(nb0, 0.2)),
                wg.ShapeFunction(1, np.full(nb1, -0.1)),
            ) + tuple(
                wg.ShapeFunction(sf.feature, np.zeros_like(sf.values))
                for sf in model.shapes[2:]),
            pairs=(),
        )
        report = wg.global_importance(rigged, matrix.X[:500])
        scores = dict(report.terms)
        assert scores["x0"] == pytest.approx(0.2, abs=1e-12)
        assert scores["x1"] == pytest.approx(0.1, abs=1e-12)
        assert report.ordering()[:2] == ["x0", "x1"]
        assert all(scores[t] == 0.0 for t in report.ordering()[2:])

    def test_row_order_invariance(self, trained_setup):
        model, matrix, _ = trained_setup
        X = matrix.X[:400]
        rng = np.random.default_rng(1)
        shuffled = X[rng.permutation(len(X))]
        a = wg.global_importance(model, X)
        b = wg.global_importance(model, shuffled)
        assert a.ordering() == b.ordering()
        for (_, sa), (_, sb) in zip(a.terms, b.terms):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_includes_pair_terms(self, trained_setup):
        model, matrix, _ = trained_setup
        report = wg.global_importance(model, matrix.X[:200])
        assert any(" x " in name for name in report.ordering())

    def test_empty_reference_errors(self, trained_setup):
        model, _, _ = trained_setup
        with pytest.raises(ValueError, match="non-empty"):
            wg.global_importance(model, np.zeros((0, model.n_features)))


class TestLocalExplanation:
    def test_reconstruction_exact_over_rows(self, trained_setup):
        model, matrix, _ = trained_setup
        rng = np.random.default_rng(2)
        rows = rng.uniform(size=(200, matrix.n_features))
        pred = model.predict(rows)
        for k in range(0, 200, 11):
            exp = wg.local_explanation(model, rows[k])
            total = exp.intercept + sum(v for _, v in exp.contributions)
            assert abs(total - exp.forecast) <= 1e-12
            assert abs(exp.forecast - pred[k]) <= 1e-12

    def test_sorted_by_absolute_contribution(self, trained_setup):
        model, matrix, _ = trained_setup
        exp = wg.local_explanation(model, matrix.X[5], actual=matrix.y[5])
        mags = [abs(v) for _, v in exp.contributions]
        assert mags == sorted(mags, reverse=True)

    def test_breakdown_text_has_actual_and_forecast(self, trained_setup):
        model, matrix, _ = trained_setup
        exp = wg.local_explanation(model, matrix.X[9], actual=0.994)
        text = exp.as_text()
        assert text.startswith("actual(0.994), forecast(")
        assert "(intercept)" in text


class TestExports:
    def test_shape_export_is_the_internal_table(self, trained_setup):
        model, _, _ = trained_setup
        curve = wg.export_shape(model, 0)
        np.testing.assert_array_equal(curve.values, model.shapes[0].values)
        # evaluating the export at every bin center reproduces the term
        probe = np.full((len(curve.x), model.n_features), 0.5)
        probe[:, 0] = curve.x
        contrib = model.term_contributions(probe)[:, 0]
        np.testing.assert_array_equal(contrib, curve.values)

    def test_heatmap_grid_shape(self, trained_setup):
        model, _, _ = trained_setup
        pt = model.pairs[0]
        curve = wg.export_pair_heatmap(model, (pt.i, pt.j))
        assert curve.values.shape == pt.grid.shape
        assert len(curve.x) == pt.grid.shape[0]
        assert len(curve.y) == pt.grid.shape[1]

    def test_denormalized_axis_inverts_min_max(self, trained_setup):
        model, _, _ = trained_setup
        norm = wg.export_shape(model, 0, denormalize=False)
        raw = wg.export_shape(model, 0, denormalize=True)
        p = model.norm_params
        expected = p.feature_min[0] + norm.x * (p.feature_max[0] - p.feature_min[0])
        np.testing.assert_allclose(raw.x, expected, atol=1e-12)

    def test_unknown_term_errors(self, trained_setup):
        model, _, _ = trained_setup
        with pytest.raises(ValueError, match="unknown feature"):
            wg.export_shape(model, "nope")
        with pytest.raises(ValueError, match="no interaction term"):
            from dataclasses import replace
            wg.export_pair_heatmap(replace(model, pairs=()), (0, 1))


class TestPdp:
    def test_constant_predictor_flat_curve(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(50, 3))
        curve = wg.pdp(lambda Z: np.full(len(Z), 0.7), X, 1, np.linspace(0, 1, 9))
        np.testing.assert_allclose(curve.values, np.full(9, 0.7), atol=1e-12)

    def test_linear_predictor_analytic_expectation(self):
        """predictor = 2*x1 ignoring others: PDP of feature 1 is 2v."""
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(200, 3))
        grid = np.linspace(0, 1, 11)
        curve = wg.pdp(lambda Z: 2.0 * Z[:, 1], X, 1, grid)
        np.testing.assert_allclose(curve.values, 2.0 * grid, atol=1e-12)

    def test_additive_model_pdp_equals_shape_up_to_constant(self):
        """Interaction-free model: PDP at bin centers is the shape
        function plus a constant."""
        from dataclasses import replace
        raw = wg.make_interaction_data(2500, seed=5)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        model = wg.train(matrix, split, replace(FAST, interaction_budget=0))
        for f in range(matrix.n_features):
            grid = wg.bin_centers(model.bins, f)
            curve = wg.pdp(model.predict, matrix.X[:300], f, grid)
            got = curve.values - curve.values.mean()
            want = model.shapes[f].values - model.shapes[f].values.mean()
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            wg.pdp(lambda Z: Z[:, 0], np.zeros((0, 2)), 0, [0.5])
        with pytest.raises(ValueError):
            wg.pdp(lambda Z: Z[:, 0], np.zeros((5, 2)), 0, [])


class TestPfi:
    def test_ignored_feature_importance_near_zero(self):
        """Permuting a feature the predictor never reads cannot move the
        metric: importance is exactly zero across repeats."""
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(300, 3))
        y = X[:, 0].copy()
        result = wg.pfi(lambda Z: Z[:, 0], X, y, n_repeats=7, seed=1)
        assert result.importances[1] == 0.0
        assert result.importances[2] == 0.0
        assert result.stds[1] == 0.0

    def test_used_feature_importance_positive(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(300, 3))
        y = X[:, 0].copy()
        result = wg.pfi(lambda Z: Z[:, 0], X, y, n_repeats=7, seed=1)
        assert result.importances[0] > 0.1
        assert result.ordering()[0] == "x0"

    def test_same_seed_identical_output(self, trained_setup):
        model, matrix, split = trained_setup
        X = matrix.X[split.test_slice]
        y = matrix.y[split.test_slice]
        a = wg.pfi(model.predict, X, y, n_repeats=3, seed=9)
        b = wg.pfi(model.predict, X, y, n_repeats=3, seed=9)
        np.testing.assert_array_equal(a.importances, b.importances)

    @pytest.mark.parametrize("n_names", [2, 4])
    def test_feature_names_must_name_every_column(self, n_names):
        X = np.random.default_rng(9).uniform(size=(20, 3))
        names = [f"f{k}" for k in range(n_names)]
        with pytest.raises(ValueError, match=f"{n_names} feature names for 3 columns"):
            wg.pfi(lambda Z: Z[:, 0], X, X[:, 0], feature_names=names)

    def test_metric_failure_propagates(self):
        X = np.random.default_rng(8).uniform(size=(20, 2))
        y = np.full(20, 0.5)
        with pytest.raises(ValueError, match="zero variance"):
            wg.pfi(lambda Z: Z[:, 0], X, y, metric=wg.r2, n_repeats=2)


class TestRankingConsistency:
    def test_identical_orderings(self):
        res = wg.ranking_consistency(["a", "b", "c"], ["a", "b", "c"])
        assert res.exact_match
        assert res.rank_correlation == 1.0

    def test_reversed_four_items(self):
        """Spearman formula oracle: full reversal of 4 items gives -1."""
        res = wg.ranking_consistency(["a", "b", "c", "d"], ["d", "c", "b", "a"])
        assert not res.exact_match
        assert res.rank_correlation == pytest.approx(-1.0, abs=1e-12)

    def test_partial_agreement_value(self):
        # hand evaluation: ranks (0,1,2,3) vs (1,0,2,3): d2 = 1+1 = 2
        res = wg.ranking_consistency(["a", "b", "c", "d"], ["b", "a", "c", "d"])
        assert res.rank_correlation == pytest.approx(1 - 6 * 2 / (4 * 15), abs=1e-12)

    def test_mismatched_universes_error(self):
        with pytest.raises(ValueError, match="universes"):
            wg.ranking_consistency(["a", "b"], ["a", "c"])
