"""CART regression trees over binned features.

Trees split on bin indices (histogram splits), never on raw values:
a sample goes left when ``bin <= threshold``. That makes every tree
restricted to one or two features an exact lookup table over its bins,
which is what the additive model's shape functions are built from.

One fitter per criterion:

* squared error, mean leaves: :func:`restricted_tree_from_histogram`,
  the boosting engine's weak learner on one feature or a pair. Mean
  leaves are what make each boosting step non-increasing in training
  MSE.
* absolute error, median leaves: :func:`fit_cart`, the standalone
  regression-tree baseline on rows of every column.

Tie-breaking is deterministic: among equal-gain splits the lowest
feature index wins, then the lowest threshold bin.

The boosting engine fits its weak learners straight from residual
histograms (:func:`restricted_tree_from_histogram`), where per-tree
interpreter overhead, not rows, sets the cost. Pair trees therefore
grow level-wise, scoring every node of a depth in one vectorised pass;
single-feature trees, with at most three internal nodes at the default
depth, grow depth-first. Both reproduce a node-at-a-time recursion bit
for bit (the exactness rule is in that function's docstring).

The regression-tree baseline's absolute-error search scores a node's
features together: it sorts the node's targets once and scores every
(feature, threshold) candidate on masked prefix sums in sorted-value
order, a block of candidates at a time. Only thresholds at bins present
in the node are scored, since any other threshold repeats the left set,
and so the cost, of the present bin below it. Every cost is bit for bit
that of scoring each feature's every threshold on its own, so the same
trees come out (the rule is in :func:`_best_split_mae_node`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TreeParams",
    "TreeNode",
    "RegressionTree",
    "fit_cart",
    "restricted_tree_from_histogram",
    "predict_tree",
    "tree_as_bin_table",
]

# Gains at or below this are treated as zero (stops splitting).
MIN_GAIN = 1e-12

# Cap on the candidates x rows cells one block of the MAE split search
# holds. Larger blocks save per-block overhead only on nodes of
# thousands of rows, and raise peak memory.
_MAE_BLOCK_CELLS = 16_384


@dataclass(frozen=True)
class TreeParams:
    """Stopping rules and split criterion for tree induction."""

    max_depth: int = 2
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    split_criterion: str = "sse"

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.split_criterion not in ("sse", "mae"):
            raise ValueError(f"unknown split criterion {self.split_criterion!r}")


@dataclass(frozen=True)
class TreeNode:
    """One node in the flat node list; ``feature == -1`` marks a leaf."""

    feature: int
    threshold: int
    left: int
    right: int
    value: float
    count: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class RegressionTree:
    """Fitted tree: node 0 is the root; leaves carry constant values."""

    nodes: tuple[TreeNode, ...]
    params: TreeParams

    def features_used(self) -> set[int]:
        return {nd.feature for nd in self.nodes if not nd.is_leaf}


# ---------------------------------------------------------------------------
# Split searches
# ---------------------------------------------------------------------------

def _best_split_mae_node(cols, idx, y_node, min_leaf):
    """Best (row of ``cols``, threshold) under absolute error, or None.

    ``cols`` holds the binned columns, one row per feature; ``idx``
    selects the node's samples and ``y_node`` is their targets. A
    side's cost is the sum of absolute deviations around its median:
    with ``h = m // 2`` it is its total minus the sum of its ``m - h``
    smallest values minus the sum of its ``h`` smallest, read off prefix
    sums in sorted-value order. Every feature is scored in one pass over
    blocks of (feature, threshold) candidates x rows.

    Only thresholds at bins present in the node are candidates, minus
    its top bin: a threshold between two present bins has the same left
    set, and so the same cost, as the lower one, and one at or above the
    top bin leaves the right side empty. The search returns what scoring
    every threshold ``0 .. max bin - 1`` one feature at a time does: the
    first minimum cost per feature, then the first maximum gain over
    features. Its costs are bit for bit those of that search, because a
    side's prefix sums come from the same sums: the left side's from
    the ``cumsum`` of the node's values masked to its members, the right
    side's as the ``cumsum`` of all values minus that, and the right
    total as the grand total minus the left one.
    """
    n = len(y_node)
    order = np.argsort(y_node, kind="stable")
    ys = y_node[order]
    bs = cols[:, idx[order]]

    # A candidate is the lowest threshold >= 0 with a given left set, one
    # that leaves both sides non-empty: a present bin, or 0 for bins
    # below 0.
    top = bs.max(axis=1)
    width = max(int(top.max()), 1)
    present = np.zeros((len(bs), width), dtype=bool)
    present[np.arange(len(bs))[:, None], np.clip(bs, 0, width - 1)] = True
    t = np.arange(width)
    present &= (t >= np.maximum(bs.min(axis=1), 0)[:, None]) & (t < top[:, None])
    feat, thr = np.nonzero(present)
    if not len(thr):
        return None
    vcum = np.cumsum(ys)
    grand_total = vcum[-1]
    h = n // 2  # >= 1: a candidate leaves a row on each side
    parent_cost = grand_total - vcum[n - h - 1] - vcum[h - 1]

    cost = np.empty(len(thr))
    step = max(1, _MAE_BLOCK_CELLS // n)
    for s in range(0, len(thr), step):
        member = bs[feat[s:s + step]] <= thr[s:s + step, None]
        vsum = np.where(member, ys, 0.0)
        np.cumsum(vsum, axis=1, out=vsum)
        flat = vsum.ravel()
        m_left = np.count_nonzero(member, axis=1)
        m_right = n - m_left
        # Flat positions of each row's members (and non-members) in
        # order, so the k-th one of row r sits at ``start[r] + k - 1``.
        pos_left = np.flatnonzero(member)
        pos_right = np.flatnonzero(~member)
        start_left = np.cumsum(m_left) - m_left
        start_right = np.cumsum(m_right) - m_right

        def prefix_left(k):
            return flat[pos_left[start_left + k - 1]]

        def prefix_right(k):
            pos = pos_right[start_right + k - 1]
            return vcum[pos % n] - flat[pos]

        h_left, h_right = m_left // 2, m_right // 2
        total_left = vsum[:, -1]
        cost_left = (total_left - prefix_left(m_left - h_left)
                     - np.where(h_left >= 1, prefix_left(h_left), 0.0))
        cost_right = ((grand_total - total_left) - prefix_right(m_right - h_right)
                      - np.where(h_right >= 1, prefix_right(h_right), 0.0))
        cost[s:s + step] = np.where(
            (m_left >= min_leaf) & (m_right >= min_leaf), cost_left + cost_right, np.inf)

    first = np.flatnonzero(np.diff(feat, prepend=-1))
    gain = parent_cost - np.minimum.reduceat(cost, first)
    i = int(np.argmax(gain))  # first max: lowest feature wins ties
    if not gain[i] > MIN_GAIN:
        return None
    lo = first[i]
    hi = first[i + 1] if i + 1 < len(first) else len(cost)
    return int(feat[lo]), int(thr[lo + np.argmin(cost[lo:hi])])


# ---------------------------------------------------------------------------
# Fitting and prediction
# ---------------------------------------------------------------------------

def fit_cart(X_binned: np.ndarray, y: np.ndarray, params: TreeParams) -> RegressionTree:
    """Grow the regression-tree baseline: an absolute-error CART tree
    with median leaves, by greedy best-split recursion on binned data.

    Recursion stops on ``max_depth``, ``min_samples_split``, or when no
    candidate split improves the criterion. Deterministic given inputs.
    One search per node scores every column at once, skipping
    thresholds at bins absent from the node (see
    :func:`_best_split_mae_node`). The lowest threshold, then the
    lowest feature, wins ties, and a split needs a gain above
    ``MIN_GAIN``.

    Parameters
    ----------
    X_binned : int array, shape (m, n)
        Bin indices per feature. To restrict the tree to some columns,
        pass ``X_binned[:, cols]``.
    y : float array, shape (m,)
        Targets.
    params : TreeParams
        Must use the ``"mae"`` criterion; squared-error trees come from
        :func:`restricted_tree_from_histogram`.
    """
    if params.split_criterion != "mae":
        raise ValueError("fit_cart supports the mae criterion only; fit "
                         "squared-error trees with restricted_tree_from_histogram")
    Xb = np.asarray(X_binned)
    y = np.asarray(y, dtype=np.float64)
    if Xb.ndim != 2 or len(Xb) != len(y):
        raise ValueError("X_binned must be 2-D and aligned with y")
    if len(y) == 0:
        raise ValueError("empty data")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets")
    cols = np.ascontiguousarray(Xb.T, dtype=np.int64)
    nodes: list[TreeNode] = []

    def grow(idx: np.ndarray, depth: int) -> int:
        y_node = y[idx]
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, float(np.median(y_node)), len(idx)))
        if depth >= params.max_depth or len(idx) < params.min_samples_split:
            return nid
        best = _best_split_mae_node(cols, idx, y_node, params.min_samples_leaf)
        if best is None:
            return nid
        bf, bt = best
        go_left = Xb[idx, bf] <= bt
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        nodes[nid] = TreeNode(bf, bt, left, right, nodes[nid].value, len(idx))
        return nid

    grow(np.arange(len(y)), 0)
    return RegressionTree(nodes=tuple(nodes), params=params)


def _split_gains(cum, min_leaf):
    """SSE gain of every candidate split in every row.

    ``cum[0]``/``cum[1]`` hold cumulative counts/sums, one row per node
    and axis: column k is the total of the node's first k+1 bins along
    that axis, and the row is padded at the end with its last value.
    Column k of the result scores the split after the node's bin k; a
    padded column leaves the right side empty, so it is never valid.
    Invalid candidates score ``-inf``.
    """
    cc, cs = cum
    c_left, s_left = cc[:, :-1], cs[:, :-1]
    c_tot, s_tot = cc[:, -1:], cs[:, -1:]
    c_right = c_tot - c_left
    s_right = s_tot - s_left
    gain = (s_left ** 2 / c_left + s_right ** 2 / c_right
            - s_tot ** 2 / c_tot)
    gain[np.minimum(c_left, c_right) < min_leaf] = -np.inf
    return gain


def _grow_1d(cnt, sums, feature, params) -> tuple[TreeNode, ...]:
    """Single-feature SSE tree grown depth-first on the histogram.

    Every node is a bin interval, so its cumulative counts and sums are
    slices of the histogram's global ones minus their first value. A
    depth-2 tree has at most three internal nodes: growing it
    level-wise saves one scoring pass but spends more than that
    gathering the nodes into padded rows.
    """
    cum = np.zeros((2, len(cnt) + 1))
    np.cumsum(np.stack((cnt, sums)), axis=1, out=cum[:, 1:])
    cnt_cum, sum_cum = cum
    nodes: list[TreeNode] = []

    def grow(lo, hi, depth):
        c = cnt_cum[hi] - cnt_cum[lo]
        s = sum_cum[hi] - sum_cum[lo]
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, s / c, int(c)))
        if depth >= params.max_depth or c < params.min_samples_split or hi - lo < 2:
            return nid
        gains = _split_gains(cum[:, None, lo + 1:hi + 1] - cum[:, None, lo:lo + 1],
                             params.min_samples_leaf)[0]
        k = int(gains.argmax())
        if gains[k] <= MIN_GAIN:
            return nid
        left = grow(lo, lo + k + 1, depth + 1)
        right = grow(lo + k + 1, hi, depth + 1)
        nodes[nid] = TreeNode(feature, lo + k, left, right, nodes[nid].value, int(c))
        return nid

    grow(0, len(cnt), 0)
    return tuple(nodes)


def _grow_2d(cnt2, sum2, total, fi, fj, params) -> tuple[TreeNode, ...]:
    """Feature-pair SSE tree grown level-wise on the 2-D histogram.

    Every node is a bin rectangle ``(lo0, hi0, lo1, hi1)``. At each
    depth the open nodes' marginal counts and sums along both axes go
    into one zero-padded array, one row per (node, axis), and every
    candidate is scored in one pass. A node takes the first maximum
    over its axis-0 thresholds followed by its axis-1 thresholds, so
    the lowest axis and then the lowest threshold win ties. The nodes
    come back in preorder, as a depth-first recursion makes them.
    """
    both = np.stack((cnt2, sum2))
    level = [(0, cnt2.shape[0], 0, cnt2.shape[1], total)]
    # One entry per node, in level order: [feature, threshold, left, right, value, count].
    grown: list[list] = []
    for depth in range(params.max_depth + 1):
        first = len(grown)
        grown += ([-1, -1, -1, -1, sum2[lo0:hi0, lo1:hi1].sum() / c, int(c)]
                  for lo0, hi0, lo1, hi1, c in level)
        if depth == params.max_depth:
            break
        scored = [i for i, node in enumerate(level)
                  if node[4] >= params.min_samples_split]
        boxes = [level[i][:4] for i in scored]
        width = max([max(hi0 - lo0, hi1 - lo1) for lo0, hi0, lo1, hi1 in boxes],
                    default=0)
        if width < 2:
            break
        margins = np.zeros((2, 2 * len(boxes), width))
        for row, (lo0, hi0, lo1, hi1) in enumerate(boxes):
            sub = both[:, lo0:hi0, lo1:hi1]
            sub.sum(axis=2, out=margins[:, 2 * row, :hi0 - lo0])
            sub.sum(axis=1, out=margins[:, 2 * row + 1, :hi1 - lo1])
        cum = margins.cumsum(axis=2)
        gains = _split_gains(cum, params.min_samples_leaf).reshape(
            len(scored), 2 * (width - 1))
        children = []
        for row, (i, k) in enumerate(zip(scored, gains.argmax(axis=1).tolist())):
            if not gains[row, k] > MIN_GAIN:
                continue
            axis, t = divmod(k, width - 1)
            lo0, hi0, lo1, hi1, c = level[i]
            c_left = float(cum[0, 2 * row + axis, t])
            child = first + len(level) + len(children)
            if axis == 0:
                cut = lo0 + t + 1
                children += [(lo0, cut, lo1, hi1, c_left), (cut, hi0, lo1, hi1, c - c_left)]
            else:
                cut = lo1 + t + 1
                children += [(lo0, hi0, lo1, cut, c_left), (lo0, hi0, cut, hi1, c - c_left)]
            grown[first + i][:4] = (fi, fj)[axis], cut - 1, child, child + 1
        if not children:
            break
        level = children

    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if grown[i][0] >= 0:
            stack += (grown[i][3], grown[i][2])
    position = {old: new for new, old in enumerate(order)}
    position[-1] = -1
    return tuple(TreeNode(f, t, position[left], position[right], value, count)
                 for f, t, left, right, value, count in map(grown.__getitem__, order))


def restricted_tree_from_histogram(cnt, sums, features, params: TreeParams,
                                   ) -> RegressionTree:
    """Fit a 1- or 2-feature SSE tree straight from residual histograms.

    ``cnt``/``sums`` are the per-bin (or per bin-pair) row counts and
    residual sums; ``features`` maps histogram axes to global feature
    indices. This is the boosting engine's weak learner: it fits the
    squared-error tree of those features without touching rows.

    A pair tree grows level-wise: all open nodes of one depth are
    scored in a single vectorised pass. A single-feature tree grows
    depth-first. Either way the nodes come back in preorder and are
    bit-for-bit those of a recursion that scores one node at a time.
    Exactness rests on one rule: counts are whole numbers, so they may
    be summed in any order, but residual sums keep the recursion's
    order. A 1-D node's sums are differences of the histogram's
    cumulative sums. A 2-D node's marginal sums are its slice's
    ``sum(axis)``, accumulated by ``cumsum``, and its value is the
    slice's ``sum()`` over its count. Zero padding after the end of a
    marginal is exact; a summed-area table of the sums is not, since it
    rounds differently.
    """
    if params.split_criterion != "sse":
        raise ValueError("histogram fitting supports the sse criterion only")
    total = float(cnt.sum())
    if total <= 0:
        raise ValueError("histogram holds no rows")
    with np.errstate(divide="ignore", invalid="ignore"):
        if cnt.ndim == 1:
            (f,) = features
            nodes = _grow_1d(cnt, sums, f, params)
        else:
            fi, fj = features
            nodes = _grow_2d(cnt, sums, total, fi, fj, params)
    return RegressionTree(nodes=nodes, params=params)


def predict_tree(tree: RegressionTree, X_binned: np.ndarray) -> np.ndarray:
    """Route every row to its leaf and return the leaf constants.

    Bin indices outside the fitted range route through the ordinary
    comparisons (clamped routing); they never error.
    """
    Xb = np.atleast_2d(np.asarray(X_binned))
    for nd in tree.nodes:
        if not nd.is_leaf and nd.feature >= Xb.shape[1]:
            raise ValueError("tree references feature index beyond input columns")
    out = np.empty(len(Xb))
    stack = [(0, np.arange(len(Xb)))]
    while stack:
        nid, idx = stack.pop()
        if len(idx) == 0:
            continue
        nd = tree.nodes[nid]
        if nd.is_leaf:
            out[idx] = nd.value
        else:
            go_left = Xb[idx, nd.feature] <= nd.threshold
            stack.append((nd.left, idx[go_left]))
            stack.append((nd.right, idx[~go_left]))
    return out


def tree_as_bin_table(tree: RegressionTree, feature_bins: dict[int, int]) -> np.ndarray:
    """Collapse a 1- or 2-feature tree into its exact lookup table.

    Leaf regions of a bin-split tree are axis-aligned bin rectangles, so
    the table is filled by interval narrowing; looking it up reproduces
    ``predict_tree`` for every bin combination. The 1-D and 2-D fills
    stay separate: this runs once per boosting step, and one n-D fill
    measured slower per call.
    """
    feats = sorted(feature_bins)
    if len(feats) not in (1, 2):
        raise ValueError("feature_bins must describe 1 or 2 features")
    if not tree.features_used() <= set(feats):
        raise ValueError("tree references a feature outside feature_bins")

    if len(feats) == 1:
        f0 = feats[0]
        table = np.zeros(feature_bins[f0])

        def fill(nid, lo, hi):
            if lo >= hi:
                return
            nd = tree.nodes[nid]
            if nd.is_leaf:
                table[lo:hi] = nd.value
                return
            cut = nd.threshold + 1
            fill(nd.left, lo, min(hi, cut))
            fill(nd.right, max(lo, cut), hi)

        fill(0, 0, feature_bins[f0])
        return table

    f0, f1 = feats
    grid = np.zeros((feature_bins[f0], feature_bins[f1]))

    def fill(nid, lo0, hi0, lo1, hi1):
        if lo0 >= hi0 or lo1 >= hi1:
            return
        nd = tree.nodes[nid]
        if nd.is_leaf:
            grid[lo0:hi0, lo1:hi1] = nd.value
            return
        cut = nd.threshold + 1
        if nd.feature == f0:
            fill(nd.left, lo0, min(hi0, cut), lo1, hi1)
            fill(nd.right, max(lo0, cut), hi0, lo1, hi1)
        else:
            fill(nd.left, lo0, hi0, lo1, min(hi1, cut))
            fill(nd.right, lo0, hi0, max(lo1, cut), hi1)

    fill(0, 0, feature_bins[f0], 0, feature_bins[f1])
    return grid
