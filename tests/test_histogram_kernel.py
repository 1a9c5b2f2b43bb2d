"""Property test: the histogram tree kernel against the node-at-a-time
recursion it replaced.

The reference below grows one node at a time and scores each node's
candidate splits on its own cumulative histogram. The kernel (level-wise
for pair trees) must give the same nodes, in the same order, with the
same field values, and so the same lookup tables byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass.trees import MIN_GAIN, TreeNode, restricted_tree_from_histogram


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
    sums, and empty lines of bins, besides continuous sums.
    """
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(n_axes))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    style = draw(st.sampled_from(["normal", "integer", "zero", "sparse"]))
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
    else:
        sums = rng.normal(size=shape) * np.sqrt(cnt)
    return cnt, sums


def _same_as_reference(tree, ref_nodes, feature_bins):
    assert tree.nodes == ref_nodes
    ref_tree = wg.RegressionTree(nodes=ref_nodes, params=tree.params)
    table = wg.tree_as_bin_table(tree, feature_bins)
    assert table.tobytes() == wg.tree_as_bin_table(ref_tree, feature_bins).tobytes()


@settings(max_examples=300, deadline=None)
@given(hist=histograms(256, 1), params=PARAMS, feature=st.integers(0, 5))
def test_1d_kernel_matches_recursion(hist, params, feature):
    cnt, sums = hist
    tree = restricted_tree_from_histogram(cnt, sums, (feature,), params)
    ref = reference_grow_1d(cnt, sums, feature, params)
    _same_as_reference(tree, ref, {feature: len(cnt)})


@settings(max_examples=300, deadline=None)
@given(hist=histograms(32, 2), params=PARAMS)
def test_2d_kernel_matches_recursion(hist, params):
    cnt, sums = hist
    tree = restricted_tree_from_histogram(cnt, sums, (2, 5), params)
    ref = reference_grow_2d(cnt, sums, 2, 5, params)
    _same_as_reference(tree, ref, {2: cnt.shape[0], 5: cnt.shape[1]})
