"""Explanation tooling tests: importances, exports, PDP, PFI, and
cross-method ranking agreement."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
import windglass.data
import windglass.explain
import windglass.glassbox
from conftest import FAST, fits, small_fit


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

    @pytest.mark.parametrize("which", ["trained", "small"])
    def test_heatmap_axes_and_values_are_the_model_terms(self, trained_setup, which):
        """Each axis is the midpoints of the coarse bins' value spans, as
        the per-bin loop it replaced computed them, and evaluating the
        model at every ``(x[r], y[c])`` gives ``grid[r, c]``."""
        model = trained_setup[0] if which == "trained" else small_fit(0, 4, 10)[0]

        def loop_centers(f):
            cmap = model.coarse_maps[f]
            b = windglass.data.bin_boundaries(model.bins, f)
            centers = np.empty(int(cmap.max()) + 1)
            for c in range(len(centers)):
                members = np.flatnonzero(cmap == c)
                centers[c] = 0.5 * (b[members[0]] + b[members[-1] + 1])
            return centers

        assert model.pairs
        for t, pt in enumerate(model.pairs):
            curve = wg.export_pair_heatmap(model, (pt.i, pt.j))
            assert curve.x.tobytes() == loop_centers(pt.i).tobytes()
            assert curve.y.tobytes() == loop_centers(pt.j).tobytes()
            probe = np.full((curve.values.size, model.n_features), 0.5)
            probe[:, pt.i] = np.repeat(curve.x, len(curve.y))
            probe[:, pt.j] = np.tile(curve.y, len(curve.x))
            contrib = model.term_contributions(probe)[:, model.n_features + t]
            np.testing.assert_array_equal(contrib.reshape(curve.values.shape), pt.grid)

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

    @pytest.mark.parametrize("feature", ["lag_0", "1", 1.0, 3, -1, None])
    def test_feature_must_be_a_column_index(self, feature):
        """A name, a float or an index outside the columns is refused with
        the value and the valid range."""
        with pytest.raises(ValueError, match=rf"feature {re.escape(repr(feature))} "
                                             r"is not a column index in 0\.\.2"):
            wg.pdp(lambda Z: Z[:, 0], np.zeros((5, 3)), feature, [0.5])

    def test_index_rule_is_shared_with_named_features(self, trained_setup):
        model, _, _ = trained_setup
        n = len(model.feature_names)
        with pytest.raises(ValueError, match=rf"feature {n} is not a column index in 0\.\.{n - 1}"):
            wg.export_shape(model, n)
        assert wg.export_shape(model, np.int64(n - 1)).name == model.feature_names[-1]

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


class TestBinSpacePath:
    """``pdp`` and ``pfi`` given a glass-box model's own bound ``predict``
    perturb the binned rows; wrapping the same ``predict`` in a lambda
    takes the generic path, which re-bins every perturbed copy. Both must
    give the same floats and the same errors."""

    @settings(max_examples=40, deadline=None)
    @given(fit=fits, seed=st.integers(0, 2**32 - 1), n_repeats=st.integers(1, 3))
    def test_pfi_matches_generic_path_bit_for_bit(self, fit, seed, n_repeats):
        model, matrix, _ = fit
        X, y = matrix.X, matrix.y
        a = wg.pfi(model.predict, X, y, n_repeats=n_repeats, seed=seed)
        b = wg.pfi(lambda Z: model.predict(Z), X, y, n_repeats=n_repeats, seed=seed)
        assert a.importances.tobytes() == b.importances.tobytes()
        assert a.stds.tobytes() == b.stds.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(fit=fits, data=st.data())
    def test_pdp_matches_generic_path_bit_for_bit(self, fit, data):
        """Grids reach outside the fitted [0, 1] range, so they clamp to
        the extreme bins, and may repeat values and bin edges."""
        model, matrix, _ = fit
        f = data.draw(st.integers(0, model.n_features - 1))
        edges = model.bins.edges[f].tolist()
        value = st.floats(-1.0, 2.0) | (st.sampled_from(edges) if edges else st.just(0.5))
        grid = data.draw(st.lists(value, min_size=1, max_size=12))
        a = wg.pdp(model.predict, matrix.X, f, grid)
        b = wg.pdp(lambda Z: model.predict(Z), matrix.X, f, grid)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.x.tobytes() == b.x.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(fit=fits, data=st.data())
    def test_pdp_non_finite_grid_value_raises_the_same_error(self, fit, data):
        model, matrix, _ = fit
        f = data.draw(st.integers(0, model.n_features - 1))
        grid = data.draw(st.lists(st.floats(-1.0, 2.0), min_size=0, max_size=4))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        grid.insert(data.draw(st.integers(0, len(grid))), bad)
        with pytest.raises(ValueError) as bound:
            wg.pdp(model.predict, matrix.X, f, grid)
        with pytest.raises(ValueError) as wrapped:
            wg.pdp(lambda Z: model.predict(Z), matrix.X, f, grid)
        assert str(bound.value) == str(wrapped.value)
        assert str(bound.value) == f"non-finite value in feature column {f}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_pdp_never_reads_the_swept_column(self, trained_setup, bad):
        """The swept column is overwritten before anything is binned, so
        a non-finite value there is no error on either path."""
        model, matrix, _ = trained_setup
        X = matrix.X[:200].copy()
        X[5, 2] = bad
        grid = np.linspace(0.0, 1.0, 5)
        a = wg.pdp(model.predict, X, 2, grid)
        b = wg.pdp(lambda Z: model.predict(Z), X, 2, grid)
        assert a.values.tobytes() == b.values.tobytes()
        with pytest.raises(ValueError, match="non-finite value in feature column 2"):
            wg.pdp(model.predict, X, 1, grid)

    @pytest.fixture
    def bin_calls(self, monkeypatch):
        """Count every ``apply_bins`` call made by the model or by the
        explanation tools."""
        calls = []
        real = wg.apply_bins

        def counted(bmap, X):
            calls.append(len(X))
            return real(bmap, X)

        for mod in (windglass.glassbox, windglass.explain):
            monkeypatch.setattr(mod, "apply_bins", counted)
        return calls

    @pytest.mark.parametrize("n_repeats", [1, 3])
    def test_pfi_bins_the_rows_at_most_twice(self, trained_setup, bin_calls, n_repeats):
        model, matrix, split = trained_setup
        X = matrix.X[split.test_slice]
        y = matrix.y[split.test_slice]
        wg.pfi(model.predict, X, y, n_repeats=n_repeats)
        assert 1 <= len(bin_calls) <= 2
        # The generic path, for contrast, bins every permuted copy.
        bin_calls.clear()
        wg.pfi(lambda Z: model.predict(Z), X, y, n_repeats=n_repeats)
        assert len(bin_calls) == 1 + n_repeats * model.n_features

    @pytest.mark.parametrize("n_points", [1, 7, 40])
    def test_pdp_bins_the_rows_once_whatever_the_grid(self, trained_setup, bin_calls,
                                                      n_points):
        model, matrix, _ = trained_setup
        for f in range(model.n_features):
            bin_calls.clear()
            wg.pdp(model.predict, matrix.X[:300], f, np.linspace(-0.2, 1.2, n_points))
            assert len(bin_calls) == 1


def scorer_fit(seed, n_features, budget, bagging_count, reload):
    """A small fit under any pair budget, bagged or not, and optionally
    as read back from its model file, with its matrix."""
    model, matrix, _ = small_fit(seed, n_features, rounds=2, budget=budget,
                                 bagging_count=bagging_count)
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            wg.save_model(model, path)
            model = wg.load_model(path)
    return model, matrix


# Budget 1 of 3 to 5 features leaves features in no pair; budget 0 none
# in any pair; "all" every feature in every pair.
scorer_fits = st.builds(scorer_fit, seed=st.integers(0, 2**32 - 1),
                        n_features=st.integers(2, 5),
                        budget=st.sampled_from([0, 1, "all"]),
                        bagging_count=st.sampled_from([1, 2]), reload=st.booleans())


class TestTermScorer:
    """The glass-box path re-adds only the terms that read the perturbed
    feature, from a running sum of the terms before them: the same floats
    as the generic path for every feature (first, last, in no pair),
    pair budget, bagged model and reloaded model."""

    @settings(max_examples=60, deadline=None)
    @given(fit=scorer_fits, seed=st.integers(0, 2**32 - 1), n_repeats=st.integers(1, 3))
    def test_pfi_matches_generic_path_bit_for_bit(self, fit, seed, n_repeats):
        model, matrix = fit
        X, y = matrix.X, matrix.y
        a = wg.pfi(model.predict, X, y, n_repeats=n_repeats, seed=seed)
        b = wg.pfi(lambda Z: model.predict(Z), X, y, n_repeats=n_repeats, seed=seed)
        assert a.importances.tobytes() == b.importances.tobytes()
        assert a.stds.tobytes() == b.stds.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(fit=scorer_fits, grid=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=6))
    def test_pdp_of_every_feature_matches_generic_path_bit_for_bit(self, fit, grid):
        model, matrix = fit
        for f in range(model.n_features):
            a = wg.pdp(model.predict, matrix.X, f, grid)
            b = wg.pdp(lambda Z: model.predict(Z), matrix.X, f, grid)
            assert a.values.tobytes() == b.values.tobytes()

    def test_budgets_leave_features_in_no_pair(self):
        """The property tests above reach a feature that no pair reads."""
        model, _ = scorer_fit(seed=3, n_features=4, budget=1, bagging_count=1,
                              reload=False)
        paired = {f for pt in model.pairs for f in (pt.i, pt.j)}
        assert len(model.pairs) == 1 and len(paired) == 2

    @pytest.fixture
    def spied(self, trained_setup, monkeypatch):
        """Record every full prediction from binned rows, and every 2-D
        array made from the binned rows that is not a view of them."""
        predicted, copies = [], []
        real_predict = wg.GlassBoxModel._predict_binned
        real_bins = windglass.explain.apply_bins

        def predict_binned(model, Xb):
            predicted.append(len(Xb))
            return real_predict(model, Xb)

        class Binned(np.ndarray):
            def __array_finalize__(self, obj):
                if (isinstance(obj, Binned) and self.ndim == 2
                        and not np.may_share_memory(self, obj)):
                    copies.append(self.shape)

        monkeypatch.setattr(wg.GlassBoxModel, "_predict_binned", predict_binned)
        monkeypatch.setattr(windglass.explain, "apply_bins",
                            lambda bmap, X: real_bins(bmap, X).view(Binned))
        return trained_setup, predicted, copies

    def test_spy_sees_a_copy_of_the_binned_rows(self, spied):
        (model, matrix, _), _, copies = spied
        Xb = windglass.explain.apply_bins(model.bins, matrix.X[:50])
        Xb.copy()
        assert copies == [Xb.shape]

    @pytest.mark.parametrize("n_repeats", [1, 3])
    def test_pfi_makes_no_copy_or_full_prediction_per_permutation(self, spied, n_repeats):
        (model, matrix, split), predicted, copies = spied
        X, y = matrix.X[split.test_slice], matrix.y[split.test_slice]
        wg.pfi(model.predict, X, y, n_repeats=n_repeats)
        assert predicted == [len(X)]  # the unpermuted score, through predict
        assert copies == []

    def test_pdp_makes_no_copy_or_full_prediction_per_grid_point(self, spied):
        (model, matrix, _), predicted, copies = spied
        wg.pdp(model.predict, matrix.X[:300], 0, np.linspace(0.0, 1.0, 7))
        assert predicted == []
        assert copies == []


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
