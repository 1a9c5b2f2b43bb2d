"""Tree tests: brute-force split oracles for both fitters (absolute
error on rows, squared error on histograms), partition property, lookup
table equivalence, and determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass.trees import MIN_GAIN, histogram_table, restricted_tree_from_histogram
from conftest import n_leaves, tree_depth
from test_histogram_kernel import PARAMS, histograms


def histograms_of(Xb, y, allowed):
    """The count and residual-sum histograms of rows ``Xb`` over one
    feature or a pair."""
    cols = tuple(Xb[:, f] for f in allowed)
    shape = tuple(int(c.max()) + 1 for c in cols)
    cell = np.ravel_multi_index(cols, shape)
    size = int(np.prod(shape))
    cnt = np.bincount(cell, minlength=size).astype(np.float64).reshape(shape)
    sums = np.bincount(cell, weights=y, minlength=size).reshape(shape)
    return cnt, sums


def hist_tree(Xb, y, allowed, params):
    """The pair kernel's tree on the histograms of rows ``Xb``."""
    return restricted_tree_from_histogram(*histograms_of(Xb, y, allowed),
                                          tuple(allowed), params)


def hist_table(Xb, y, allowed, params):
    """``histogram_table`` of the histograms of rows ``Xb``."""
    return histogram_table(*histograms_of(Xb, y, allowed), params)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def sse_of(v):
    return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0


def abs_dev_of(v):
    return float(np.sum(np.abs(v - np.median(v)))) if len(v) else 0.0


def brute_best_split(Xb, y, allowed, n_bins, min_leaf, criterion="sse"):
    """Enumerate every (feature, threshold) candidate and recompute the
    criterion from scratch."""
    node_cost = sse_of(y) if criterion == "sse" else abs_dev_of(y)
    best = None  # (gain, feature, threshold)
    for f in allowed:
        for t in range(n_bins[f] - 1):
            left = y[Xb[:, f] <= t]
            right = y[Xb[:, f] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            if criterion == "sse":
                gain = node_cost - sse_of(left) - sse_of(right)
            else:
                gain = node_cost - abs_dev_of(left) - abs_dev_of(right)
            if best is None or gain > best[0] + 1e-9:
                best = (gain, f, t)
    return best


class TestFitCart:
    """The regression-tree baseline's absolute-error fitter."""

    def test_params_hold_stopping_rules_only(self):
        """Each fitter fixes its criterion, so the params name none."""
        assert [f.name for f in dataclasses.fields(wg.TreeParams)] == [
            "max_depth", "min_samples_split", "min_samples_leaf"]
        with pytest.raises(TypeError):
            wg.TreeParams(split_criterion="mae")

    def test_depth_zero_single_leaf_median(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        Xb = np.zeros((4, 1), dtype=int)
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=0))
        assert n_leaves(tree) == 1
        assert tree.nodes[0].value == 2.5

    def test_binary_feature_perfect_split(self):
        """One binary-binned feature, y = bin: one split, leaves 0 and 1."""
        Xb = np.repeat([[0], [1]], 10, axis=0)
        y = Xb[:, 0].astype(float)
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=3))
        assert tree_depth(tree) == 1
        assert n_leaves(tree) == 2
        pred = wg.predict_tree(tree, Xb)
        assert np.sum(np.abs(pred - y)) == 0.0

    def test_min_samples_split_stops(self):
        Xb = np.arange(4).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=3, min_samples_split=5))
        assert n_leaves(tree) == 1

    def test_empty_data_errors(self):
        with pytest.raises(ValueError, match="empty"):
            wg.fit_cart(np.zeros((0, 1), dtype=int), np.zeros(0), wg.TreeParams())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_non_integer_bins_error(self, dtype):
        """Rows are routed on the bins as given, so a fractional bin would
        reach a leaf the search never counted it in."""
        Xb = np.array([0, .5, 1, 1.7, 2, 3]).astype(dtype).reshape(-1, 1)
        with pytest.raises(ValueError, match="integer bin indices"):
            wg.fit_cart(Xb, np.arange(6.0), wg.TreeParams(max_depth=2))

    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            m = int(rng.integers(20, 80))
            Xb = np.column_stack([rng.integers(0, rng.integers(2, 9), size=m)
                                  for _ in range(3)])
            y = rng.normal(size=m)
            tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=1, min_samples_leaf=2))
            n_bins = Xb.max(axis=0) + 1
            oracle = brute_best_split(Xb, y, [0, 1, 2], n_bins, 2, "mae")
            if oracle is None or oracle[0] <= MIN_GAIN:
                assert n_leaves(tree) == 1
                continue
            root = tree.nodes[0]
            assert (root.feature, root.threshold) == (oracle[1], oracle[2])

    def test_mae_criterion_leaf_values_are_medians(self):
        rng = np.random.default_rng(5)
        Xb = rng.integers(0, 6, size=(300, 2))
        y = rng.normal(size=300)
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=2))
        pred = wg.predict_tree(tree, Xb)
        for value in np.unique(pred):
            members = y[pred == value]
            assert value == pytest.approx(np.median(members), abs=1e-9)
        assert tree_depth(tree) <= 2

    def test_deterministic_fit(self):
        rng = np.random.default_rng(6)
        Xb = rng.integers(0, 10, size=(200, 4))
        y = rng.normal(size=200)
        t1 = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=4))
        t2 = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=4))
        assert t1 == t2

    def test_mae_split_cost_optimal_under_heavy_ties(self):
        """Integer targets force many exact value ties; the chosen split's
        cost must still match the brute-force optimum."""
        rng = np.random.default_rng(99)
        for _ in range(60):
            m = int(rng.integers(5, 60))
            nb = int(rng.integers(2, 7))
            xb = rng.integers(0, nb, size=m)
            y = rng.integers(-3, 4, size=m).astype(float)
            tree = wg.fit_cart(xb.reshape(-1, 1), y, wg.TreeParams(max_depth=1))
            best = None
            for t in range(nb - 1):
                left, right = y[xb <= t], y[xb > t]
                if len(left) < 1 or len(right) < 1:
                    continue
                cost = abs_dev_of(left) + abs_dev_of(right)
                best = cost if best is None else min(best, cost)
            if best is None or abs_dev_of(y) - best <= MIN_GAIN:
                assert n_leaves(tree) == 1
            else:
                root = tree.nodes[0]
                got = (abs_dev_of(y[xb <= root.threshold])
                       + abs_dev_of(y[xb > root.threshold]))
                assert got == pytest.approx(best, abs=1e-9)


class TestPredictTree:
    def test_single_leaf_constant(self):
        tree = wg.fit_cart(np.zeros((5, 1), dtype=int), np.full(5, 0.4),
                           wg.TreeParams(max_depth=0))
        np.testing.assert_array_equal(
            wg.predict_tree(tree, np.zeros((7, 1), dtype=int)), np.full(7, 0.4))

    def test_routing_by_construction(self):
        Xb = np.repeat([[0], [1]], 10, axis=0)
        y = Xb[:, 0].astype(float)
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=1))
        assert wg.predict_tree(tree, np.array([[1]]))[0] == 1.0
        assert wg.predict_tree(tree, np.array([[0]]))[0] == 0.0

    def test_out_of_range_bins_route_without_error(self):
        Xb = np.repeat([[0], [1]], 10, axis=0)
        tree = wg.fit_cart(Xb, Xb[:, 0].astype(float), wg.TreeParams(max_depth=1))
        pred = wg.predict_tree(tree, np.array([[99], [-3]]))
        assert pred[0] == 1.0  # clamps into the high branch
        assert pred[1] == 0.0

    def test_partition_property_fuzz(self):
        """Every row reaches exactly one leaf and takes its value."""
        rng = np.random.default_rng(11)
        Xb = rng.integers(0, 12, size=(1000, 5))
        y = rng.normal(size=1000)
        tree = wg.fit_cart(Xb, y, wg.TreeParams(max_depth=4))
        pred = wg.predict_tree(tree, Xb)
        leaf_values = sorted(nd.value for nd in tree.nodes if nd.is_leaf)
        assert np.isin(pred, leaf_values).all()


class TestRestrictedTrees:
    """The squared-error histogram kernel, the boosting weak learner."""

    def test_reproduces_per_bin_means(self):
        """Deterministic per-bin residuals: table equals the bin means."""
        rng = np.random.default_rng(13)
        bins = rng.integers(0, 4, size=500)
        g = np.array([0.3, -0.1, 0.8, 0.2])
        y = g[bins]
        Xb = np.column_stack([bins, rng.integers(0, 4, size=500)])
        table = hist_table(Xb, y, [0], wg.TreeParams(max_depth=2))
        np.testing.assert_allclose(table, g, atol=1e-9)

    def test_signal_on_disallowed_feature_gives_flat_tree(self):
        """Residuals depend only on feature 1; restricted to feature 0 the
        best split gain is the noise floor and the tree stays near-flat."""
        rng = np.random.default_rng(14)
        Xb = np.column_stack([rng.integers(0, 4, size=2000),
                              rng.integers(0, 4, size=2000)])
        y = Xb[:, 1].astype(float)
        table = hist_table(Xb, y, [0], wg.TreeParams(max_depth=2))
        oracle = brute_best_split(Xb, y, [0], [4, 4], 1)
        assert oracle[0] < 0.05 * sse_of(y)  # brute force confirms tiny gain
        assert np.all(np.abs(table - y.mean()) < 0.1)

    def test_zero_residuals_single_leaf_zero(self):
        """No split gains anything, so one leaf of value zero fills the
        table."""
        Xb = np.arange(8).reshape(-1, 1) % 4
        table = hist_table(Xb, np.zeros(8), [0], wg.TreeParams())
        assert table.tobytes() == np.zeros(4).tobytes()

    def test_root_split_matches_brute_force(self):
        """On every single feature and every pair, the root split is the
        best squared-error candidate of an exhaustive search over rows.
        Bins are drawn from a subset of each range, so empty bins make
        equal-gain thresholds and the lowest one must win."""
        rng = np.random.default_rng(17)
        for trial in range(40):
            m = int(rng.integers(6, 60))
            Xb = np.column_stack([rng.choice(rng.permutation(8)[:k], size=m)
                                  for k in rng.integers(2, 6, size=3)])
            y = rng.normal(size=m)
            n_bins = Xb.max(axis=0) + 1
            min_leaf = int(rng.integers(1, 4))
            params = wg.TreeParams(max_depth=1, min_samples_leaf=min_leaf)
            for allowed in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                oracle = brute_best_split(Xb, y, allowed, n_bins, min_leaf)
                if len(allowed) == 1:
                    # A depth-1 table is one leaf, or two of different
                    # means that meet right after the threshold bin.
                    steps = np.flatnonzero(np.diff(hist_table(Xb, y, allowed, params)))
                    split = [(allowed[0], int(t)) for t in steps]
                else:
                    tree = hist_tree(Xb, y, allowed, params)
                    split = [(nd.feature, nd.threshold) for nd in tree.nodes[:1]
                             if not nd.is_leaf]
                if oracle is None or oracle[0] <= MIN_GAIN:
                    assert split == []
                    continue
                assert split == [(oracle[1], oracle[2])]

    def test_chosen_gain_dominates_every_candidate(self):
        """The SSE invariant: no enumerated candidate beats the chosen split."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(30, 90))
            Xb = np.column_stack([rng.integers(0, 6, size=m) for _ in range(2)])
            y = rng.normal(size=m)
            tree = hist_tree(Xb, y, [0, 1], wg.TreeParams(max_depth=1))
            if n_leaves(tree) == 1:
                continue
            root = tree.nodes[0]
            left = y[Xb[:, root.feature] <= root.threshold]
            right = y[Xb[:, root.feature] > root.threshold]
            chosen_gain = sse_of(y) - sse_of(left) - sse_of(right)
            for f in range(2):
                for t in range(5):
                    lo = y[Xb[:, f] <= t]
                    hi = y[Xb[:, f] > t]
                    if len(lo) < 1 or len(hi) < 1:
                        continue
                    cand = sse_of(y) - sse_of(lo) - sse_of(hi)
                    assert cand <= chosen_gain + 1e-9

    def test_leaf_values_are_leaf_means(self):
        rng = np.random.default_rng(4)
        Xb = rng.integers(0, 8, size=(1000, 3))
        y = rng.normal(size=1000)
        tree = hist_tree(Xb, y, [0, 2], wg.TreeParams(max_depth=3))
        pred = wg.predict_tree(tree, Xb)
        # group rows by leaf through their prediction value
        for value in np.unique(pred):
            members = y[pred == value]
            assert value == pytest.approx(members.mean(), abs=1e-9)

    def test_empty_histogram_errors(self):
        for cnt in (np.zeros(4), np.zeros((3, 2))):
            with pytest.raises(ValueError, match="no rows"):
                restricted_tree_from_histogram(cnt, np.zeros_like(cnt),
                                               tuple(range(cnt.ndim)), wg.TreeParams())
            with pytest.raises(ValueError, match="no rows"):
                histogram_table(cnt, np.zeros_like(cnt), wg.TreeParams())


class TestBinTable:
    """A pair step's table is its tree's lookup table: looking up any
    cell gives the tree's own prediction for it."""

    def test_pair_grid_matches_predictions_exhaustively(self):
        rng = np.random.default_rng(19)
        Xb = np.column_stack([rng.integers(0, 3, size=400),
                              rng.integers(0, 3, size=400)])
        y = rng.normal(size=400) + Xb[:, 0] * Xb[:, 1]
        params = wg.TreeParams(max_depth=3)
        grid = hist_table(Xb, y, [0, 1], params)
        assert grid.shape == (3, 3)
        combos = np.array([[a, b] for a in range(3) for b in range(3)])
        np.testing.assert_array_equal(
            grid[combos[:, 0], combos[:, 1]],
            wg.predict_tree(hist_tree(Xb, y, [0, 1], params), combos))

    def test_depth_zero_constant_table(self):
        cnt = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 2.0]])
        table = histogram_table(cnt, 0.75 * cnt, wg.TreeParams(max_depth=0))
        np.testing.assert_array_equal(table, np.full((2, 3), 0.75))

    @settings(max_examples=150, deadline=None)
    @given(hist=histograms(32, 2), params=PARAMS)
    def test_exhaustive_equivalence_on_larger_tables(self, hist, params):
        cnt, sums = hist
        table = histogram_table(cnt, sums, params)
        assert table.shape == cnt.shape
        cells = np.indices(cnt.shape).reshape(2, -1).T
        tree = restricted_tree_from_histogram(cnt, sums, (0, 1), params)
        np.testing.assert_array_equal(table[tuple(cells.T)], wg.predict_tree(tree, cells))
