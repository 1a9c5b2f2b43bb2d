"""Property tests: the histogram tree kernels against the
node-at-a-time recursion they replaced.

The references below grow one node at a time and score each node's
candidate splits on its own cumulative histogram. The pair kernel
(level-wise) must give the same nodes, in the same order, with the same
field values. ``histogram_table``, which builds no tree for one feature,
must give the reference tree's lookup table byte for byte.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import trees
from windglass.trees import (MIN_GAIN, TreeNode, histogram_table,
                             restricted_tree_from_histogram)


# ---------------------------------------------------------------------------
# Reference: depth-first recursion over the histogram
# ---------------------------------------------------------------------------

def _interval_split(cnt_cum, sum_cum, lo, hi, min_leaf):
    """Best SSE split of bin interval [lo, hi) given cumulative
    histogram counts/sums (index k holds the total of bins < k)."""
    c_tot = cnt_cum[hi] - cnt_cum[lo]
    s_tot = sum_cum[hi] - sum_cum[lo]
    if hi - lo < 2:
        return None
    c_left = cnt_cum[lo + 1:hi] - cnt_cum[lo]
    s_left = sum_cum[lo + 1:hi] - sum_cum[lo]
    c_right = c_tot - c_left
    s_right = s_tot - s_left
    valid = (c_left >= min_leaf) & (c_right >= min_leaf)
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (s_left ** 2 / c_left + s_right ** 2 / c_right
                - s_tot ** 2 / c_tot)
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))
    return float(gain[k]), lo + k


def reference_grow_1d(cnt, sums, feature, params):
    cnt_cum = np.concatenate(([0.0], np.cumsum(cnt)))
    sum_cum = np.concatenate(([0.0], np.cumsum(sums)))
    nodes = []

    def grow(lo, hi, depth):
        c = cnt_cum[hi] - cnt_cum[lo]
        s = sum_cum[hi] - sum_cum[lo]
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, s / c, int(c)))
        if depth >= params.max_depth or c < params.min_samples_split:
            return nid
        found = _interval_split(cnt_cum, sum_cum, lo, hi,
                                params.min_samples_leaf)
        if found is None or found[0] <= MIN_GAIN:
            return nid
        _, t = found
        left = grow(lo, t + 1, depth + 1)
        right = grow(t + 1, hi, depth + 1)
        nodes[nid] = TreeNode(feature, t, left, right, nodes[nid].value, int(c))
        return nid

    grow(0, len(cnt), 0)
    return tuple(nodes)


def reference_grow_2d(cnt2, sum2, fi, fj, params):
    nodes = []

    def grow(lo0, hi0, lo1, hi1, depth):
        sub_c = cnt2[lo0:hi0, lo1:hi1]
        sub_s = sum2[lo0:hi0, lo1:hi1]
        c = sub_c.sum()
        s = sub_s.sum()
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, s / c, int(c)))
        if depth >= params.max_depth or c < params.min_samples_split:
            return nid
        best = None  # (gain, axis, threshold)
        for axis in (0, 1):
            mc = sub_c.sum(axis=1 - axis)
            ms = sub_s.sum(axis=1 - axis)
            cc = np.concatenate(([0.0], np.cumsum(mc)))
            cs = np.concatenate(([0.0], np.cumsum(ms)))
            found = _interval_split(cc, cs, 0, len(mc), params.min_samples_leaf)
            if found is None:
                continue
            gain, k = found
            offset = lo0 if axis == 0 else lo1
            if gain > MIN_GAIN and (best is None or gain > best[0]):
                best = (gain, axis, offset + k)
        if best is None:
            return nid
        _, axis, t = best
        if axis == 0:
            left = grow(lo0, t + 1, lo1, hi1, depth + 1)
            right = grow(t + 1, hi0, lo1, hi1, depth + 1)
        else:
            left = grow(lo0, hi0, lo1, t + 1, depth + 1)
            right = grow(lo0, hi0, t + 1, hi1, depth + 1)
        nodes[nid] = TreeNode(fi if axis == 0 else fj, t, left, right,
                              nodes[nid].value, int(c))
        return nid

    grow(0, cnt2.shape[0], 0, cnt2.shape[1], 0)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Random histograms
# ---------------------------------------------------------------------------

PARAMS = st.builds(
    lambda depth, split, leaf: wg.TreeParams(
        max_depth=depth, min_samples_split=split, min_samples_leaf=leaf),
    st.integers(0, 4), st.integers(2, 12), st.integers(1, 6))


@st.composite
def histograms(draw, max_side, n_axes):
    """Counts and residual sums on a random grid, at least one row in all.

    ``style`` picks the tie-heavy cases: whole-number sums, all-zero
    sums, and empty lines of bins, besides continuous sums. ``flat``
    gives every bin one mean, so every gain is rounding noise around
    zero and only ``MIN_GAIN`` stops a split.
    """
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(n_axes))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    style = draw(st.sampled_from(["normal", "integer", "zero", "sparse", "flat"]))
    rng = np.random.default_rng(seed)
    cnt = rng.integers(0, 6, size=shape).astype(np.float64)
    if style == "sparse":
        for axis in range(n_axes):
            empty = rng.random(shape[axis]) < 0.4
            index = [slice(None)] * n_axes
            index[axis] = empty
            cnt[tuple(index)] = 0.0
    if cnt.sum() == 0:
        cnt.flat[int(rng.integers(cnt.size))] = 1.0
    if style == "normal":
        sums = rng.normal(size=shape) * cnt
    elif style == "integer":
        sums = rng.integers(-3, 4, size=shape) * cnt
    elif style == "zero":
        sums = np.zeros(shape)
    elif style == "flat":
        sums = cnt * 0.1
    else:
        sums = rng.normal(size=shape) * np.sqrt(cnt)
    return cnt, sums


def reference_table(cnt, sums, params):
    """The lookup table of the reference tree on a 1- or 2-D histogram,
    its axes taken as features 0 (and 1)."""
    if cnt.ndim == 1:
        nodes = reference_grow_1d(cnt, sums, 0, params)
    else:
        nodes = reference_grow_2d(cnt, sums, 0, 1, params)
    tree = wg.RegressionTree(nodes=nodes, params=params)
    return wg.tree_as_bin_table(tree, dict(enumerate(cnt.shape)))


@settings(max_examples=300, deadline=None)
@given(hist=st.one_of(histograms(256, 1), histograms(32, 2)), params=PARAMS)
def test_histogram_table_matches_reference_tree(hist, params):
    cnt, sums = hist
    table = histogram_table(cnt, sums, params)
    assert table.tobytes() == reference_table(cnt, sums, params).tobytes()


@settings(max_examples=300, deadline=None)
@given(hist=histograms(256, 1), params=PARAMS, feature=st.integers(0, 5))
def test_1d_kernel_matches_recursion(hist, params, feature):
    """A one-feature table is the reference tree's, whatever feature
    index the tree names."""
    cnt, sums = hist
    ref_tree = wg.RegressionTree(nodes=reference_grow_1d(cnt, sums, feature, params),
                                 params=params)
    table = wg.tree_as_bin_table(ref_tree, {feature: len(cnt)})
    assert histogram_table(cnt, sums, params).tobytes() == table.tobytes()


@settings(max_examples=300, deadline=None)
@given(hist=histograms(32, 2), params=PARAMS)
def test_2d_kernel_matches_recursion(hist, params):
    cnt, sums = hist
    tree = restricted_tree_from_histogram(cnt, sums, (2, 5), params)
    ref = reference_grow_2d(cnt, sums, 2, 5, params)
    assert tree.nodes == ref
    ref_tree = wg.RegressionTree(nodes=ref, params=tree.params)
    feature_bins = {2: cnt.shape[0], 5: cnt.shape[1]}
    table = wg.tree_as_bin_table(tree, feature_bins)
    assert table.tobytes() == wg.tree_as_bin_table(ref_tree, feature_bins).tobytes()


def test_no_tree_for_one_feature():
    """``restricted_tree_from_histogram`` refuses a one-feature
    histogram, and a fit of shape functions alone builds no tree."""
    with pytest.raises(ValueError, match="pair"):
        restricted_tree_from_histogram(np.ones(4), np.zeros(4), (0,), wg.TreeParams())
    raw = wg.make_interaction_data(300, seed=3)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    config = wg.TrainConfig(learning_rate=0.1, max_rounds=5, interaction_budget=0)
    with mock.patch.object(trees, "TreeNode", wraps=TreeNode) as node, \
            mock.patch.object(trees, "RegressionTree", wraps=wg.RegressionTree) as tree:
        model = wg.train(matrix, split, config)
        assert model.rounds_main == 5 and not model.pairs
        assert node.call_count == tree.call_count == 0
        # The same wrappers see the trees of a pair stage.
        wg.train(matrix, split, replace(config, interaction_budget=1))
        assert node.call_count > 0 and tree.call_count > 0
