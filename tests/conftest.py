"""Shared fixtures: small trained models and CSV scaffolding."""

import csv
import json

import numpy as np
import pytest
from hypothesis import strategies as st

import windglass as wg

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
def trained_setup():
    """A small trained glass-box model with its data and split."""
    raw = wg.make_interaction_data(3000, seed=11)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    model = wg.train(matrix, split, FAST)
    return model, matrix, split


def small_fit(seed, n_features, rounds, learning_rate=0.3):
    """A ~60-row fit with every pair, its matrix and split."""
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
                            max_bins=16, pair_bins=4, interaction_budget="all",
                            min_samples_split=2)
    return wg.train(matrix, split, config), matrix, split


fits = st.builds(small_fit, seed=st.integers(0, 2**32 - 1),
                 n_features=st.integers(2, 4), rounds=st.integers(2, 3),
                 learning_rate=st.sampled_from([0.05, 0.3, 0.9]))


def write_series_csv(path, timestamps, target, exogenous=None, delimiter=","):
    """Write a wind-power style CSV with ISO timestamps."""
    import datetime as dt

    exogenous = exogenous or {}
    header = ["time", "power", *exogenous.keys()]
    with open(path, "w", newline="") as fh:
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
