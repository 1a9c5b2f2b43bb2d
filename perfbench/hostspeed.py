"""A fixed probe of how fast the host runs code like windglass's.

On a shared host the speed of single-threaded Python and small-array
numpy code drifts by tens of percent over minutes, as other tenants
come and go. The benchmark runs :func:`probe` between the workload's
calls and scales its timings by ``REFERENCE_S / probe time``, so that
a drift of the host moves the probe and the workload together and
cancels out, while a change to windglass moves only the workload.

The probe does what the workloads spend their time on, with no code
from windglass: it grows small trees on 2-D histograms (``np.bincount``,
slicing, cumulative sums and a Python recursion that builds frozen
dataclasses) and round-trips the nodes through JSON. Its work is fixed
and deterministic. Changing it changes every scaled timing, so it is
part of the benchmark and is left alone by changes to the program.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

# Fastest probe time on the reference host (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4) in a quiet hour. It only sets the scale: a scaled
# timing reads as the time the reference host would take when quiet.
REFERENCE_S = 0.006

_BINS = 32
_ROWS = 2_000
_FITS = 12
_rng = np.random.default_rng(0)
_CELL = (_rng.integers(0, _BINS, _ROWS) * _BINS + _rng.integers(0, _BINS, _ROWS))
_RESIDUALS = _rng.standard_normal(_ROWS)


@dataclass(frozen=True)
class _Node:
    axis: int
    threshold: int
    left: int
    right: int
    value: float
    count: int


def _best_split(cc, cs):
    n, s = cc[-1], cs[-1]
    nl, sl = cc[1:-1], cs[1:-1]
    ok = (nl > 0) & (nl < n)
    if not ok.any():
        return None
    gain = np.where(ok, sl * sl / np.maximum(nl, 1)
                    + (s - sl) ** 2 / np.maximum(n - nl, 1), -1.0)
    k = int(np.argmax(gain))
    return float(gain[k]), k


def _grow(cnt, sums, nodes, lo0, hi0, lo1, hi1, depth):
    sub_c, sub_s = cnt[lo0:hi0, lo1:hi1], sums[lo0:hi0, lo1:hi1]
    c, s = sub_c.sum(), sub_s.sum()
    nid = len(nodes)
    nodes.append(_Node(-1, -1, -1, -1, float(s / max(c, 1.0)), int(c)))
    if depth >= 3 or c < 5:
        return nid
    best = None
    for axis in (0, 1):
        cc = np.concatenate(([0.0], np.cumsum(sub_c.sum(axis=1 - axis))))
        cs = np.concatenate(([0.0], np.cumsum(sub_s.sum(axis=1 - axis))))
        found = _best_split(cc, cs)
        if found and (best is None or found[0] > best[0]):
            best = (found[0], axis, (lo0 if axis == 0 else lo1) + found[1])
    if best is None:
        return nid
    _, axis, t = best
    if axis == 0:
        left = _grow(cnt, sums, nodes, lo0, t + 1, lo1, hi1, depth + 1)
        right = _grow(cnt, sums, nodes, t + 1, hi0, lo1, hi1, depth + 1)
    else:
        left = _grow(cnt, sums, nodes, lo0, hi0, lo1, t + 1, depth + 1)
        right = _grow(cnt, sums, nodes, lo0, hi0, t + 1, hi1, depth + 1)
    nodes[nid] = _Node(axis, t, left, right, nodes[nid].value, int(c))
    return nid


def probe() -> float:
    """Run the fixed probe once and return its wall time in seconds."""
    t0 = time.perf_counter()
    residuals = _RESIDUALS.copy()
    cnt = np.bincount(_CELL, minlength=_BINS * _BINS).astype(np.float64)
    cnt = cnt.reshape(_BINS, _BINS)
    for _ in range(_FITS):
        sums = np.bincount(_CELL, weights=residuals, minlength=_BINS * _BINS)
        nodes: list[_Node] = []
        _grow(cnt, sums.reshape(_BINS, _BINS), nodes, 0, _BINS, 0, _BINS, 0)
        residuals = residuals * 0.999
    json.loads(json.dumps([asdict(node) for node in nodes] * 20))
    return time.perf_counter() - t0
