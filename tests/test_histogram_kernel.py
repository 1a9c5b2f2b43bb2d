"""Property tests: the histogram tree kernels against the
node-at-a-time recursion they replaced.

The references below grow one node at a time and score each node's
candidate splits on its own cumulative histogram. The pair kernel
(level-wise) must give its nodes in level order, and renumbered into
preorder they must be the reference's, field for field.
``histogram_table``, which builds no tree for one feature,
must give the reference tree's lookup table byte for byte; the
reference table is filled by the recursive fill the kernel's iterative
one replaced, and the kernel's fused split gains are held to the
unfused formula bit for bit.
"""

import pickle
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

def reference_split_gains(cum, min_leaf):
    """``trees._split_gains`` as one unfused formula: the left, right and
    parent terms each squared and divided on their own."""
    cc, cs = cum
    c_left, s_left = cc[:, :-1], cs[:, :-1]
    c_tot, s_tot = cc[:, -1:], cs[:, -1:]
    c_right = c_tot - c_left
    s_right = s_tot - s_left
    gain = (s_left ** 2 / c_left + s_right ** 2 / c_right
            - s_tot ** 2 / c_tot)
    gain[np.minimum(c_left, c_right) < min_leaf] = -np.inf
    return gain


def reference_fill(nodes, shape, first_feature):
    """The lookup table of a 1- or 2-feature tree's ``nodes`` by a
    recursion over bin rectangles, narrowing each child's to the table."""
    table = np.zeros(shape)
    grid = table if table.ndim == 2 else table[:, None]

    def fill(nid, lo0, hi0, lo1, hi1):
        nd = nodes[nid]
        if nd.is_leaf:
            grid[lo0:hi0, lo1:hi1] = nd.value
            return
        cut = nd.threshold + 1
        if nd.feature == first_feature:
            if lo0 < cut:
                fill(nd.left, lo0, min(hi0, cut), lo1, hi1)
            if cut < hi0:
                fill(nd.right, max(lo0, cut), hi0, lo1, hi1)
        else:
            if lo1 < cut:
                fill(nd.left, lo0, hi0, lo1, min(hi1, cut))
            if cut < hi1:
                fill(nd.right, lo0, hi0, max(lo1, cut), hi1)

    fill(0, 0, grid.shape[0], 0, grid.shape[1])
    return table


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
    return reference_fill(nodes, cnt.shape, 0)


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
    table = reference_fill(reference_grow_1d(cnt, sums, feature, params), cnt.shape, feature)
    assert histogram_table(cnt, sums, params).tobytes() == table.tobytes()


def preorder(nodes):
    """``nodes`` renumbered into preorder, as a depth-first recursion
    numbers them."""
    out = []

    def visit(nid):
        new = len(out)
        out.append(nodes[nid])
        if not nodes[nid].is_leaf:
            left, right = visit(nodes[nid].left), visit(nodes[nid].right)
            out[new] = out[new]._replace(left=left, right=right)
        return new

    visit(0)
    return tuple(out)


def assert_level_order(nodes):
    """The root first, then each depth left to right: the k-th split's
    children are nodes ``2k + 1`` and ``2k + 2``, after it, next to each
    other and in the order of their parents."""
    splits = [nd for nd in nodes if not nd.is_leaf]
    assert [(nd.left, nd.right) for nd in splits] == [(2 * k + 1, 2 * k + 2)
                                                      for k in range(len(splits))]
    depth = [0] * len(nodes)
    for k, nd in enumerate(nodes):
        if not nd.is_leaf:
            depth[nd.left] = depth[nd.right] = depth[k] + 1
    assert depth == sorted(depth)


@settings(max_examples=300, deadline=None)
@given(hist=histograms(32, 2), params=PARAMS)
def test_2d_kernel_matches_recursion(hist, params):
    cnt, sums = hist
    tree = restricted_tree_from_histogram(cnt, sums, (2, 5), params)
    assert_level_order(tree.nodes)
    assert preorder(tree.nodes) == reference_grow_2d(cnt, sums, 2, 5, params)


def test_no_tree_for_one_feature():
    """``restricted_tree_from_histogram`` refuses a one-feature
    histogram, a fit of shape functions alone builds no tree, and a pair
    fit calls it once per pair step."""
    with pytest.raises(ValueError, match="pair"):
        restricted_tree_from_histogram(np.ones(4), np.zeros(4), (0,), wg.TreeParams())
    raw = wg.make_interaction_data(300, seed=3)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    config = wg.TrainConfig(learning_rate=0.1, max_rounds=5, interaction_budget=0)
    with mock.patch.object(trees, "TreeNode", wraps=TreeNode) as node, \
            mock.patch.object(trees, "RegressionTree", wraps=wg.RegressionTree) as tree, \
            mock.patch.object(trees, "restricted_tree_from_histogram",
                              wraps=restricted_tree_from_histogram) as pair_tree:
        model = wg.train(matrix, split, config)
        assert model.rounds_main == 5 and not model.pairs
        assert node.call_count == tree.call_count == pair_tree.call_count == 0
        # The same wrappers see the trees of a pair stage: one pair tree
        # per pair step, fitted through the module attribute.
        model = wg.train(matrix, split, replace(config, interaction_budget=2))
        assert model.rounds_pairs > 0 and len(model.pairs) == 2
        assert pair_tree.call_count == model.rounds_pairs * len(model.pairs)
        assert node.call_count > 0 and tree.call_count == pair_tree.call_count


# ---------------------------------------------------------------------------
# Fused split gains and the iterative table fill
# ---------------------------------------------------------------------------

BIN_SUMS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e150, 1e150))


@st.composite
def cumulative_margins(draw):
    """``(2, rows, width)`` cumulative counts and sums as the split
    search reads them: whole counts from bins of 0 to 4 rows (so empty
    bins and empty sides), sums from bins of up to 1e150 and signed
    zeros, some rows padded at the end with their last value."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    cnt = np.array(draw(st.lists(st.integers(0, 4), min_size=rows * width,
                                 max_size=rows * width)), dtype=np.float64)
    sums = np.array(draw(st.lists(BIN_SUMS, min_size=rows * width, max_size=rows * width)))
    margins = np.stack((cnt, sums)).reshape(2, rows, width)
    for row in range(rows):
        used = draw(st.integers(1, width))
        margins[:, row, used:] = 0.0
    return margins.cumsum(axis=2)


@settings(max_examples=300, deadline=None)
@given(cum=cumulative_margins(), min_leaf=st.integers(1, 5))
def test_fused_split_gains_match_the_unfused_formula(cum, min_leaf):
    with np.errstate(all="ignore"):
        reference = reference_split_gains(cum, min_leaf)
        fused = trees._split_gains(cum, min_leaf)
    assert fused.tobytes() == reference.tobytes()


@st.composite
def pair_trees(draw):
    """A random pair tree's nodes with its table's shape, in the domain of
    the pair kernel's trees: a split on feature 0 cuts axis 0, one on
    feature 1 axis 1, each strictly inside its node's box. The nodes are
    numbered in preorder or, as the kernel hands them to ``_fill_table``,
    in level order (``right == left + 1``)."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    nodes = []

    def grow(box, depth):
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, float(nid + 1), 1))
        axes = [axis for axis in (0, 1) if box[2 * axis + 1] - box[2 * axis] > 1]
        if depth < 4 and axes and draw(st.booleans()):
            axis = draw(st.sampled_from(axes))
            cut = draw(st.integers(box[2 * axis] + 1, box[2 * axis + 1] - 1))
            left, right = list(box), list(box)
            left[2 * axis + 1] = right[2 * axis] = cut
            nodes[nid] = TreeNode(axis, cut - 1, grow(left, depth + 1),
                                  grow(right, depth + 1), 0.0, 1)
        return nid

    grow((0, shape[0], 0, shape[1]), 0)
    if draw(st.booleans()):
        order = [0]
        for nid in order:  # grows as it goes: a breadth-first walk
            if not nodes[nid].is_leaf:
                order += [nodes[nid].left, nodes[nid].right]
        new = {old: k for k, old in enumerate(order)}
        nodes = [nodes[old] if nodes[old].is_leaf else
                 nodes[old]._replace(left=new[nodes[old].left], right=new[nodes[old].right])
                 for old in order]
        assert_level_order(nodes)
    return tuple(nodes), shape


@settings(max_examples=300, deadline=None)
@given(drawn=pair_trees())
def test_fill_table_matches_the_recursive_fill(drawn):
    nodes, shape = drawn
    table = trees._fill_table(nodes, shape)
    assert table.shape == shape
    assert table.tobytes() == reference_fill(nodes, shape, 0).tobytes()


def test_tree_node_is_an_immutable_named_tuple():
    leaf, split = TreeNode(-1, -1, -1, -1, 0.5, 3), TreeNode(2, 4, 1, 2, 0.25, 7)
    with pytest.raises(AttributeError):
        split.threshold = 5
    assert leaf.is_leaf and not split.is_leaf
    assert split == (2, 4, 1, 2, 0.25, 7) and split.value == 0.25
    tree = wg.RegressionTree(nodes=(split, leaf, leaf), params=wg.TreeParams())
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and type(again.nodes[0]) is TreeNode
