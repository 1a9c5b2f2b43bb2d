"""Property test: the node-level MAE split search against the
per-feature search it replaced.

The reference below scores one feature at a time, every threshold
``0 .. n_bins - 2``, and finds each threshold's order statistics with
compare-and-``argmax`` passes over a thresholds x rows matrix. The
node-level search inside ``fit_cart`` must grow the same trees: same
nodes, in the same order, with the same field values.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import trees
from windglass.trees import MIN_GAIN, TreeNode


# ---------------------------------------------------------------------------
# Reference: one feature at a time
# ---------------------------------------------------------------------------

REFERENCE_CHUNK_CELLS = 1_000_000


def _abs_dev_around_median(prefix_fn, m, total):
    """Sum |v - median| for a sorted multiset given its prefix sums.

    With h = m // 2, the cost is (sum of the h largest) minus (sum of
    the h smallest); any middle element cancels.
    """
    h = m // 2
    return total - prefix_fn(m - h) - prefix_fn(h)


def reference_best_split_mae(xb, y, n_bins, min_leaf):
    """Best (gain, threshold) of one feature under absolute error."""
    n = len(y)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    bs = xb[order]
    vcum = np.cumsum(ys)
    grand_total = vcum[-1]

    def prefix_all(k):
        k = np.asarray(k)
        return np.where(k >= 1, vcum[np.maximum(k, 1) - 1], 0.0)

    parent_cost = _abs_dev_around_median(prefix_all, n, grand_total)

    thresholds = np.arange(n_bins - 1)
    best_cost = np.inf
    best_t = -1
    chunk = max(1, REFERENCE_CHUNK_CELLS // max(n, 1))
    for start in range(0, len(thresholds), chunk):
        ts = thresholds[start:start + chunk]
        member = bs[None, :] <= ts[:, None]
        cnt = np.cumsum(member, axis=1)
        vsum = np.cumsum(np.where(member, ys, 0.0), axis=1)
        m_left = cnt[:, -1]
        m_right = n - m_left
        total_left = vsum[:, -1]
        total_right = grand_total - total_left

        def prefix_left(k):
            pos = (cnt >= np.maximum(k, 1)[:, None]).argmax(axis=1)
            vals = np.take_along_axis(vsum, pos[:, None], axis=1)[:, 0]
            return np.where(k >= 1, vals, 0.0)

        cnt_right = np.arange(1, n + 1)[None, :] - cnt
        vsum_right = vcum[None, :] - vsum

        def prefix_right(k):
            pos = (cnt_right >= np.maximum(k, 1)[:, None]).argmax(axis=1)
            vals = np.take_along_axis(vsum_right, pos[:, None], axis=1)[:, 0]
            return np.where(k >= 1, vals, 0.0)

        cost = (_abs_dev_around_median(prefix_left, m_left, total_left)
                + _abs_dev_around_median(prefix_right, m_right, total_right))
        cost = np.where((m_left >= min_leaf) & (m_right >= min_leaf), cost, np.inf)
        i = int(np.argmin(cost))
        if cost[i] < best_cost:  # strict: lowest threshold wins ties
            best_cost = float(cost[i])
            best_t = int(ts[i])
    if best_t < 0 or not np.isfinite(best_cost):
        return None
    return parent_cost - best_cost, best_t


def reference_fit_cart_mae(Xb, y, params):
    """``fit_cart``'s recursion, one feature search per column."""
    y = np.asarray(y, dtype=np.float64)
    n_bins = Xb.max(axis=0) + 1
    nodes = []

    def grow(idx, depth):
        y_node = y[idx]
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, float(np.median(y_node)), len(idx)))
        if depth >= params.max_depth or len(idx) < params.min_samples_split:
            return nid
        best = None  # (gain, feature, threshold)
        for f in range(Xb.shape[1]):
            found = reference_best_split_mae(Xb[idx, f], y_node, n_bins[f],
                                             params.min_samples_leaf)
            if found is None:
                continue
            gain, t = found
            if gain > MIN_GAIN and (best is None or gain > best[0]):
                best = (gain, f, t)
        if best is None:
            return nid
        _, bf, bt = best
        go_left = Xb[idx, bf] <= bt
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        nodes[nid] = TreeNode(bf, bt, left, right, nodes[nid].value, len(idx))
        return nid

    grow(np.arange(len(y)), 0)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Random binned data
# ---------------------------------------------------------------------------

PARAMS = st.builds(
    lambda depth, split, leaf: wg.TreeParams(
        max_depth=depth, min_samples_split=split, min_samples_leaf=leaf,
        split_criterion="mae"),
    st.integers(0, 5), st.integers(2, 8), st.integers(1, 5))


@st.composite
def binned_data(draw):
    """Bins and targets.

    Each feature draws its bins from a random subset of its range, so
    bins go missing inside nodes and at the top of the range; in some
    cases every bin is shifted down by 2, so some fall below 0. Targets
    are continuous, continuous over six orders of magnitude (so sums
    round), whole numbers, or three values with heavy ties.
    """
    m = draw(st.integers(1, 90))
    n_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = rng.integers(1, 13, size=n_features)
    columns = []
    for w in widths:
        used = np.flatnonzero(rng.random(w) < 0.6)
        if not len(used):
            used = np.array([int(rng.integers(w))])
        columns.append(rng.choice(used, size=m))
    Xb = np.column_stack(columns).astype(np.int64) - draw(st.sampled_from([0, 0, 0, 2]))
    style = draw(st.sampled_from(["normal", "scaled", "integer", "tied"]))
    if style == "normal":
        y = rng.normal(size=m)
    elif style == "scaled":
        y = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
    elif style == "integer":
        y = rng.integers(-3, 4, size=m).astype(np.float64)
    else:
        y = rng.choice([0.0, 0.1, 1.0], p=[0.6, 0.3, 0.1], size=m)
    return Xb, y


def _assert_same_tree(data, params):
    Xb, y = data
    tree = wg.fit_cart(Xb, y, params)
    assert tree.nodes == reference_fit_cart_mae(Xb, y, params)


@settings(max_examples=400, deadline=None)
@given(data=binned_data(), params=PARAMS)
def test_node_search_matches_per_feature_search(data, params):
    _assert_same_tree(data, params)


@settings(max_examples=200, deadline=None)
@given(data=binned_data(), params=PARAMS, cells=st.integers(1, 300))
def test_small_blocks_match(data, params, cells):
    """Blocks of a few candidates: results combine across blocks."""
    with mock.patch.object(trees, "_MAE_BLOCK_CELLS", cells):
        _assert_same_tree(data, params)
