"""Shared fixtures: small trained models, their per-step training
losses, and CSV scaffolding."""

import csv
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import windglass as wg
from windglass import glassbox

# Fast-converging settings for fixture models (the paper-default
# learning rate needs thousands of rounds; tests don't).
FAST = wg.TrainConfig(
    learning_rate=0.05,
    max_rounds=150,
    early_stop_patience=15,
    max_bins=32,
    pair_bins=8,
)


@pytest.fixture(scope="session")
def trained_run():
    """A small trained glass-box model, its data and split, and the
    training MSE after each of its boosting steps."""
    raw = wg.make_interaction_data(3000, seed=11)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    model, losses = training_losses(lambda: wg.train(matrix, split, FAST))
    return model, matrix, split, losses


@pytest.fixture(scope="session")
def trained_setup(trained_run):
    """A small trained glass-box model with its data and split."""
    return trained_run[:3]


def training_losses(train_call):
    """``train_call()``'s result and the training MSE after each boosting
    step it made, in order: main effects, then pairs.

    The engine keeps no loss, so this replays each step's residual
    update, the float operations of ``glassbox._boost``, as the step's
    table is made. ``_boost`` is wrapped to read each stage's training
    residuals and cells, ``histogram_table`` to read each table; no
    table is kept.
    """
    boost, make_table = glassbox._boost, glassbox.histogram_table
    losses, stage = [], {}

    def start_stage(shapes, cells, r, split, depth, config, intercept):
        tr = split.train_slice
        stage.update(r_train=r[tr].copy(), cells_tr=[c[tr] for c in cells],
                     rate=config.learning_rate, step=0)
        return boost(shapes, cells, r, split, depth, config, intercept)

    def replay_step(cnt, sums, params):
        table = make_table(cnt, sums, params)
        cells_tr = stage["cells_tr"]
        r_train = stage["r_train"]
        r_train -= (stage["rate"] * table).ravel()[cells_tr[stage["step"] % len(cells_tr)]]
        losses.append(float(np.mean(r_train ** 2)))
        stage["step"] += 1
        return table

    with mock.patch.object(glassbox, "_boost", wraps=start_stage), \
            mock.patch.object(glassbox, "histogram_table", wraps=replay_step):
        result = train_call()
    return result, losses


def small_fit(seed, n_features, rounds, learning_rate=0.3, budget="all",
              bagging_count=1):
    """A ~60-row fit, with every pair unless ``budget`` says otherwise,
    its matrix and split."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(60, n_features))
    # Ties and a value repeated across rows exercise shared bins.
    X[::7, 0] = 0.5
    y = (np.sin(3 * X[:, 0]) + X[:, 1] * X[:, -1]
         + 0.1 * rng.standard_normal(60))
    raw = wg.SupervisedMatrix(X=X, y=y,
                              feature_names=[f"x{k}" for k in range(n_features)])
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    config = wg.TrainConfig(learning_rate=learning_rate, max_rounds=rounds,
                            max_bins=16, pair_bins=4, interaction_budget=budget,
                            min_samples_split=2, bagging_count=bagging_count)
    return wg.train(matrix, split, config), matrix, split


_FIT_ARGS = dict(seed=st.integers(0, 2**32 - 1), n_features=st.integers(2, 4),
                 rounds=st.integers(2, 3),
                 learning_rate=st.sampled_from([0.05, 0.3, 0.9]))
fits = st.builds(small_fit, **_FIT_ARGS)
# The keyword arguments of a ``fits`` draw, for a test that makes the fit
# itself (under ``training_losses``, say).
fit_args = st.fixed_dictionaries(_FIT_ARGS)


def coarse_map(populations, target_bins):
    """One feature's coarse map, derived on its own: the reference for
    the library's one pass over every feature (``glassbox._coarse_maps``).
    A monotone map from main bins to at most ``target_bins`` coarse bins
    with near-equal population mass."""
    nb = len(populations)
    if nb <= target_bins:
        return np.arange(nb)
    pops = populations.astype(np.float64)
    mid = np.cumsum(pops) - pops / 2.0
    c = np.floor(mid / pops.sum() * target_bins).astype(np.int64)
    c = np.clip(c, 0, target_bins - 1)
    # ``c`` is non-decreasing (``mid`` is, for non-negative counts), so
    # numbering its runs compresses it to 0..K-1 with the order kept.
    return np.concatenate(([0], np.cumsum(np.diff(c) != 0))).astype(np.int64)


def write_series_csv(path, timestamps, target, exogenous=None, delimiter=","):
    """Write a wind-power style CSV with ISO timestamps."""
    import datetime as dt

    exogenous = exogenous or {}
    header = ["time", "power", *exogenous.keys()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for k, (ts, y) in enumerate(zip(timestamps, target)):
            stamp = dt.datetime(2012, 1, 1) + dt.timedelta(seconds=float(ts))
            row = [stamp.isoformat(), _fmt(y)]
            row += [_fmt(exogenous[name][k]) for name in exogenous]
            writer.writerow(row)
    return path


def tree_depth(tree, nid=0):
    """Edges on the longest path from node ``nid`` of a tree to a leaf."""
    nd = tree.nodes[nid]
    if nd.is_leaf:
        return 0
    return 1 + max(tree_depth(tree, nd.left), tree_depth(tree, nd.right))


def n_leaves(tree):
    return sum(nd.is_leaf for nd in tree.nodes)


def resign_model_file(path, edit):
    """Apply ``edit`` to a saved model document and re-sign it, so only
    the payload's contents, not its checksum, are wrong."""
    from windglass.model_io import _digest, _encode_leaves

    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    doc["checksum"] = _digest(_encode_leaves(doc))
    path.write_text(json.dumps(doc))


def _fmt(v):
    return "" if v is None or (isinstance(v, float) and np.isnan(v)) else repr(float(v))
