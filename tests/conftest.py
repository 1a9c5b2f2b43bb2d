"""Shared fixtures: small trained models and CSV scaffolding."""

import csv
import json

import numpy as np
import pytest

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
