"""CART regression trees over binned features.

Trees split on bin indices (histogram splits), never on raw values:
a sample goes left when ``bin <= threshold``. That makes every tree
restricted to one or two features an exact lookup table over its bins,
which is what the additive model's shape functions are built from.

One fitter per criterion (:class:`TreeParams` names none):

* squared error, mean leaves: :func:`histogram_table`, the boosting
  engine's weak learner on one feature or a pair, fitted straight from
  residual histograms into its lookup table. Mean leaves are what make
  each boosting step non-increasing in training MSE.
* absolute error, median leaves: :func:`fit_cart`, the standalone
  regression-tree baseline on rows of every column.

Tie-breaking is deterministic: among equal-gain splits the lowest
feature index wins, then the lowest threshold bin.

On histograms, per-step interpreter overhead, not rows, sets the cost.
A single-feature step builds no tree: it grows depth-first, at most
three internal nodes at the default depth, straight into its table. A
pair step grows its tree level-wise, scoring every node of a depth in
one vectorised pass (:func:`restricted_tree_from_histogram`), keeps its
nodes in the order that pass makes them, and fills its table from them
in one pass in that level order (:func:`_fill_table`). Both reproduce a
node-at-a-time recursion bit for bit. Their sums call ``np.add.reduce``
and ``np.add.accumulate`` directly: the ufunc methods that
``ndarray.sum`` and ``cumsum`` call, so the same sums, without the
wrappers' Python frames.

The regression-tree baseline sorts its targets once, at the root, and
every node keeps its rows in that order: a node's median is the middle
of its sorted targets, and the absolute-error search reads prefix sums
in sorted-value order. The search scores a node's features together,
(feature, threshold) candidates on masked prefix sums, a block of
candidates at a time. Only thresholds at bins present in the node are
candidates, since any other threshold repeats the left set, and so the
cost, of the present bin below it. A large node prunes: a side's cost,
its sum of absolute deviations about its median, never falls when rows
join it, so a threshold between two scored ones ``a < t < b`` of a
feature costs at least ``cost_left(a) + cost_right(b)``. A first pass
scores every 8th candidate of each feature and its last; a second
scores only the runs between them whose bound comes within a rounding
margin of the best scored cost. Every scored cost is bit for bit that
of scoring each feature's every threshold on its own, and no skipped
candidate could have been chosen, so the same trees come out (the rule
is in :func:`_best_split_mae_node`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TreeParams",
    "TreeNode",
    "RegressionTree",
    "fit_cart",
    "restricted_tree_from_histogram",
    "histogram_table",
    "predict_tree",
]

# Gains at or below this are treated as zero (stops splitting).
MIN_GAIN = 1e-12

# Cap on the candidates x rows cells one block of the MAE split search
# holds. Larger blocks save per-block overhead only on nodes of
# thousands of rows, and raise peak memory.
_MAE_BLOCK_CELLS = 16_384
# Nodes of at least this many candidates x rows prune the MAE split
# search; smaller ones score every candidate, since there a second pass
# costs more than the cells it skips.
_MAE_PRUNE_CELLS = 32_768
# The pruned search's first pass scores every this-many-th candidate
# threshold of each feature (and its last).
_MAE_PRUNE_STRIDE = 8


@dataclass(frozen=True)
class TreeParams:
    """Stopping rules for tree induction; the fitter fixes the criterion."""

    max_depth: int = 2
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


class TreeNode(NamedTuple):
    """One node in the flat node list, a named tuple; ``feature == -1`` marks a leaf."""

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


# ---------------------------------------------------------------------------
# Split searches
# ---------------------------------------------------------------------------

def _mae_costs(bs, ys, vcum, feat, thr, min_leaf):
    """Cost of every candidate ``(feat[k], thr[k])``, with the left and
    right side costs it sums, as ``(cost, cost_left, cost_right)``.

    ``bs`` and ``ys`` are the node's bins and targets in sorted-value
    order and ``vcum`` the ``cumsum`` of ``ys``. A candidate that leaves
    a side below ``min_leaf`` rows costs ``+inf``; its side costs are
    kept. Each row of a block is its own masked ``cumsum``, so a cost
    does not depend on which candidates share its block.
    """
    n = len(ys)
    grand_total = vcum[-1]
    cost_left = np.empty(len(thr))
    cost_right = np.empty(len(thr))
    valid = np.empty(len(thr), dtype=bool)
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
        cost_left[s:s + step] = (total_left - prefix_left(m_left - h_left)
                                 - np.where(h_left >= 1, prefix_left(h_left), 0.0))
        cost_right[s:s + step] = ((grand_total - total_left) - prefix_right(m_right - h_right)
                                  - np.where(h_right >= 1, prefix_right(h_right), 0.0))
        valid[s:s + step] = (m_left >= min_leaf) & (m_right >= min_leaf)
    return np.where(valid, cost_left + cost_right, np.inf), cost_left, cost_right


def _sad_margin(ys):
    """Rounding margin of the pruning test ``bound - margin > best``: a
    candidate it skips would have had a computed gain strictly below the
    best. ``+inf``, so no pruning, when ``sum(|ys|)`` is too large for
    the rounding to be bounded.

    Let ``n = len(ys)``, ``S = sum(|ys|)`` and ``u = eps / 2`` the unit
    roundoff. Every prefix sum, total and side cost is at most ``S`` in
    magnitude, and a sequential sum of ``k <= n`` terms errs by at most
    ``k * u * S``. A left side's cost takes two such sums from its masked
    ``cumsum`` and two subtractions: error ``<= 3nuS + 5uS``. A right
    side's sums are differences of two ``cumsum`` values: ``<= 6nuS +
    11uS``. A candidate's cost adds one rounding, so it is within ``9nuS
    + 18uS`` of exact, and so is a bound ``cost_left(a) + cost_right(b)``
    that adds two computed sides. A computed cost is therefore at least
    the computed bound minus ``(18n + 36)uS``. For ``parent_cost - cost``
    to round strictly below ``parent_cost - best`` it suffices that
    ``cost - best > 6uS`` (each gain is below ``3S`` and rounds by at
    most ``u`` of itself), and the test ``bound - margin > best`` rounds
    by at most ``2uS`` more. The margin, ``16(n + 4)(eps S + d)`` with
    ``d`` the smallest subnormal, is ``(32n + 128)uS`` plus room for
    the absolute rounding of subnormal sums: it covers ``(18n + 44)uS``
    with a wide berth. ``S`` above a quarter of the largest float could
    make a sum overflow, where no relative bound holds.
    """
    fp = np.finfo(np.float64)
    with np.errstate(over="ignore"):
        total = np.abs(ys).sum()
    if not total <= fp.max / 4:
        return np.inf
    return 16.0 * (len(ys) + 4) * (fp.eps * total + fp.smallest_subnormal)


def _pruned_mae_costs(bs, ys, vcum, feat, thr, min_leaf, margin):
    """Candidate costs as :func:`_mae_costs` gives them, except ``+inf``
    for candidates that provably cannot be the chosen split.

    Each feature's candidates run in threshold order. The first pass
    scores every ``_MAE_PRUNE_STRIDE``-th of each run, starting at its
    first, and its last one, so every other candidate lies between two
    scored ones ``a < t < b``. The second pass scores only the gaps whose
    bound ``cost_left(a) + cost_right(b)`` comes within
    :func:`_sad_margin` of the best scored cost.
    """
    n_cand = len(thr)
    first = np.flatnonzero(np.diff(feat, prepend=-1))
    run = np.diff(first, append=n_cand)
    rank = np.arange(n_cand) - np.repeat(first, run)
    sampled = rank % _MAE_PRUNE_STRIDE == 0
    sampled[first + run - 1] = True
    at = np.flatnonzero(sampled)
    cost = np.full(n_cand, np.inf)
    cost[at], cost_left, cost_right = _mae_costs(bs, ys, vcum, feat[at], thr[at], min_leaf)

    # A gap lies inside one feature's run: each run's last candidate is
    # sampled, so the next sample starts the next run, with no gap.
    gap = np.diff(at) > 1
    gap &= ~(cost_left[:-1] + cost_right[1:] - margin > cost[at].min())
    lo, size = at[:-1][gap] + 1, np.diff(at)[gap] - 1
    rest = np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(size.sum())
    cost[rest] = _mae_costs(bs, ys, vcum, feat[rest], thr[rest], min_leaf)[0]
    return cost


def _best_split_mae_node(bs, ys, min_leaf):
    """Best (row of ``bs``, threshold) under absolute error, or None.

    ``ys`` holds the node's targets in ascending order (a stable sort)
    and ``bs`` the binned columns of the same rows in the same order, one
    row per feature. A side's cost is the sum of absolute deviations
    around its median (SAD): with ``h = m // 2`` it is its total minus
    the sum of its ``m - h`` smallest values minus the sum of its ``h``
    smallest, read off prefix sums in sorted-value order
    (:func:`_mae_costs`, a block of (feature, threshold) candidates x
    rows at a time).

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

    A node of at least ``_MAE_PRUNE_CELLS`` candidates x rows skips the
    candidates that cannot win (:func:`_pruned_mae_costs`). A side's SAD
    never falls when rows join it, so for thresholds ``a < t < b`` of one
    feature ``cost(t) >= cost_left(a) + cost_right(b)``. A candidate is
    skipped only when that bound, less a margin for rounding
    (:func:`_sad_margin`), exceeds a scored candidate's cost. Then its
    cost exceeds the best one, and its gain rounds strictly below the
    best gain: it is neither its feature's first minimum where that
    feature could win, nor can it lift an earlier feature into a tie for
    the first maximum gain. The search result is that of scoring every
    candidate.
    """
    n = len(ys)
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
    h = n // 2  # >= 1: a candidate leaves a row on each side
    parent_cost = vcum[-1] - vcum[n - h - 1] - vcum[h - 1]
    margin = _sad_margin(ys) if len(thr) * n >= _MAE_PRUNE_CELLS else np.inf
    if margin < np.inf:
        cost = _pruned_mae_costs(bs, ys, vcum, feat, thr, min_leaf, margin)
    else:
        cost = _mae_costs(bs, ys, vcum, feat, thr, min_leaf)[0]

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

def _sorted_median(ys: np.ndarray) -> float:
    """``np.median`` of the ascending ``ys``, bit for bit up to the sign
    of a zero: its middle value, or the mean of its two middle values."""
    h = len(ys) // 2
    return float(ys[h] if len(ys) % 2 else (ys[h - 1] + ys[h]) / 2)


def fit_cart(X_binned: np.ndarray, y: np.ndarray, params: TreeParams) -> RegressionTree:
    """Grow the regression-tree baseline: an absolute-error CART tree
    with median leaves, by greedy best-split recursion on binned data.

    Recursion stops on ``max_depth``, ``min_samples_split``, or when no
    candidate split improves the criterion. Deterministic given inputs.
    One search per node scores every column at once, skipping
    thresholds at bins absent from the node and, on large nodes, those
    that cannot beat the best split (see :func:`_best_split_mae_node`).
    Among equal gains the lowest feature wins, at its lowest threshold,
    and a split needs a gain above ``MIN_GAIN``.

    Parameters
    ----------
    X_binned : int array, shape (m, n)
        Bin indices per feature; any other dtype raises ``ValueError``.
        To restrict the tree to some columns, pass ``X_binned[:, cols]``.
    y : float array, shape (m,)
        Targets.
    params : TreeParams
        Stopping rules; squared-error tables come from
        :func:`histogram_table`.
    """
    Xb = np.asarray(X_binned)
    y = np.asarray(y, dtype=np.float64)
    if Xb.ndim != 2 or len(Xb) != len(y):
        raise ValueError("X_binned must be 2-D and aligned with y")
    if not np.issubdtype(Xb.dtype, np.integer):
        raise ValueError(f"X_binned must hold integer bin indices, got {Xb.dtype}")
    if len(y) == 0:
        raise ValueError("empty data")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets")
    cols = np.ascontiguousarray(Xb.T, dtype=np.int64)
    nodes: list[TreeNode] = []

    def grow(idx: np.ndarray, depth: int) -> int:
        # ``idx`` lists the node's rows by ascending target, ties in row
        # order (the root's stable sort), an order every subset keeps.
        ys = y[idx]
        nid = len(nodes)
        nodes.append(TreeNode(-1, -1, -1, -1, _sorted_median(ys), len(idx)))
        if depth >= params.max_depth or len(idx) < params.min_samples_split:
            return nid
        best = _best_split_mae_node(cols[:, idx], ys, params.min_samples_leaf)
        if best is None:
            return nid
        bf, bt = best
        go_left = cols[bf, idx] <= bt
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        nodes[nid] = TreeNode(bf, bt, left, right, nodes[nid].value, len(idx))
        return nid

    grow(np.argsort(y, kind="stable"), 0)
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
    c_left = cc[:, :-1]
    c_right = cc[:, -1:] - c_left
    # One pass gives the left terms and, in the last column, the parent's.
    terms = cs * cs / cc
    gain = cs[:, -1:] - cs[:, :-1]
    gain *= gain
    gain /= c_right
    np.add(terms[:, :-1], gain, out=gain)
    gain -= terms[:, -1:]
    gain[np.minimum(c_left, c_right) < min_leaf] = -np.inf
    return gain


def _grow_2d(cnt2, sum2, total, fi, fj, params) -> tuple[TreeNode, ...]:
    """Feature-pair SSE tree grown level-wise on the 2-D histogram.

    Every node is a bin rectangle ``(lo0, hi0, lo1, hi1)``. At each
    depth the open nodes' marginal counts and sums along both axes go
    into one zero-padded array, one row per (node, axis), and every
    candidate is scored in one pass. A node takes the first maximum
    over its axis-0 thresholds followed by its axis-1 thresholds, so
    the lowest axis and then the lowest threshold win ties. The nodes
    come back in level order, as the depths are grown. Slice sums, not
    differences of cumulative sums, keep it exact.
    """
    add = np.add
    both = np.array((cnt2, sum2))
    level = [(0, cnt2.shape[0], 0, cnt2.shape[1], total)]
    # One entry per node, in level order: [feature, threshold, left, right, value, count].
    grown: list[list] = []
    for depth in range(params.max_depth + 1):
        first = len(grown)
        grown += ([-1, -1, -1, -1, add.reduce(sum2[lo0:hi0, lo1:hi1], axis=None) / c,
                   int(c)] for lo0, hi0, lo1, hi1, c in level)
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
            add.reduce(sub, axis=2, out=margins[:, 2 * row, :hi0 - lo0])
            add.reduce(sub, axis=1, out=margins[:, 2 * row + 1, :hi1 - lo1])
        cum = add.accumulate(margins, axis=2)
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

    return tuple(TreeNode(*node) for node in grown)


def restricted_tree_from_histogram(cnt, sums, features, params: TreeParams,
                                   ) -> RegressionTree:
    """Fit a feature-pair SSE tree straight from residual histograms.

    ``cnt``/``sums`` are the per bin-pair row counts and residual sums;
    ``features`` maps the two histogram axes to global feature indices.
    The tree grows level-wise: all open nodes of one depth are scored
    in a single vectorised pass. Its nodes come back in that order:

    * the root first, then each depth from left to right;
    * a split's children come after it, next to each other
      (``right == left + 1``);
    * renumbered into preorder, they are bit for bit the nodes of a
      recursion that scores one node at a time.

    :func:`predict_tree` and the node count do not depend on the order.
    Exactness rests on one rule: counts are whole numbers, so they may
    be summed in any order, but residual sums keep the recursion's
    order. A node's marginal sums are its slice's ``sum(axis)``,
    accumulated by ``cumsum``, and its value is the slice's ``sum()``
    over its count, each called as the ufunc method it wraps
    (``np.add.reduce``, ``np.add.accumulate``). Zero padding after the
    end of a marginal is exact; a summed-area table of the sums is not,
    since it rounds differently.
    A one-feature histogram raises ``ValueError``: its table comes from
    :func:`histogram_table`, with no tree.
    """
    total = float(np.add.reduce(cnt, axis=None))
    if total <= 0:
        raise ValueError("histogram holds no rows")
    if cnt.ndim != 2:
        raise ValueError("a histogram tree is fit on a feature pair only")
    fi, fj = features
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _fill_table(nodes, shape):
    """The table of a pair tree from :func:`histogram_table`: a split on
    feature 0 cuts axis 0 and one on feature 1 axis 1, each strictly
    inside its node's box.

    One pass over the nodes in their order, which puts every split
    before its children (level order, or preorder): a node's box is
    known when the pass reaches it, and a split hands each child its
    part of that box.
    """
    table = np.zeros(shape)
    boxes = {0: (0, shape[0], 0, shape[1])}
    for nid, (feature, threshold, left, right, value, _) in enumerate(nodes):
        lo0, hi0, lo1, hi1 = boxes.pop(nid)
        cut = threshold + 1
        if feature < 0:
            table[lo0:hi0, lo1:hi1] = value
        elif feature == 0:
            boxes[left], boxes[right] = (lo0, cut, lo1, hi1), (cut, hi0, lo1, hi1)
        else:
            boxes[left], boxes[right] = (lo0, hi0, lo1, cut), (lo0, hi0, cut, hi1)
    return table


def histogram_table(cnt, sums, params: TreeParams) -> np.ndarray:
    """The lookup table of the SSE tree fitted on a residual histogram,
    the boosting engine's one tree-layer call per step.

    ``cnt``/``sums`` are the row counts and residual sums per bin of one
    feature, or per cell of a pair's grid; the table has their shape. A
    pair's table is filled from the nodes of its
    :func:`restricted_tree_from_histogram` tree. A feature's builds no
    tree: a depth-first recursion over
    bin intervals scores each node on differences of the histogram's
    cumulative counts and sums, and each leaf, reached left to right,
    repeats its mean across its interval. Either table is bit for bit
    that of the tree a node-at-a-time recursion grows.
    """
    if cnt.ndim == 2:
        tree = restricted_tree_from_histogram(cnt, sums, (0, 1), params)
        return _fill_table(tree.nodes, cnt.shape)
    cum = np.zeros((2, len(cnt) + 1))
    np.add.accumulate(np.array((cnt, sums)), axis=1, out=cum[:, 1:])
    cnt_cum, sum_cum = cum
    if not cnt_cum[-1] > 0:
        raise ValueError("histogram holds no rows")
    values, widths = [], []

    def grow(lo, hi, depth):
        c = cnt_cum[hi] - cnt_cum[lo]
        if depth < params.max_depth and c >= params.min_samples_split and hi - lo > 1:
            gains = _split_gains(cum[:, None, lo + 1:hi + 1] - cum[:, None, lo:lo + 1],
                                 params.min_samples_leaf)[0]
            k = int(gains.argmax())
            if gains[k] > MIN_GAIN:
                grow(lo, lo + k + 1, depth + 1)
                grow(lo + k + 1, hi, depth + 1)
                return
        values.append((sum_cum[hi] - sum_cum[lo]) / c)
        widths.append(hi - lo)

    with np.errstate(divide="ignore", invalid="ignore"):
        grow(0, len(cnt), 0)
    return np.repeat(values, widths)
