"""The single-pass model writer and the loader's checksum against the
two-pass layout they replaced.

The reference below is the old body of ``save_model``: the checksum is
SHA-256 over the sorted compact text, and the file is
``json.dump(..., indent=1)`` with the checksum appended, then a newline.
The writer must give the same bytes for any JSON document and for every
model kind, and the loader the same checksum for any parsed document.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import model_io


def reference_checksum(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def reference_bytes(doc: dict, path) -> bytes:
    full = dict(doc)
    full["checksum"] = reference_checksum(doc)
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1)
        fh.write("\n")
    return path.read_bytes()


def writer_bytes(doc: dict, path) -> bytes:
    model_io._write_document(doc, path)
    return path.read_bytes()


# Strings holding JSON punctuation must not be mistaken for structure.
tricky = st.sampled_from(["a", "b", "é", "日本", "\x00", '"', "\\", ",", "a,b", "[", "]}"])
keys = st.text(max_size=6) | tricky
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = (st.none() | st.booleans() | st.integers() | floats
           | floats.map(np.float64) | st.text(max_size=8) | tricky)
# Lists of plain scalars take the writer's fast path; mix them in often.
number_lists = st.lists(st.none() | st.booleans() | st.integers() | floats, max_size=12)
values = st.recursive(
    scalars | number_lists,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=40,
)
documents = st.dictionaries(keys.filter(lambda k: k != "checksum"), values, max_size=8)
# Float lists drawn from a pool of a few values repeat floats within
# and across lists, as step-function tables and shared bin edges do;
# 0.0 and -0.0 are equal but must keep their own texts.
float_pools = st.lists(st.sampled_from([0.0, -0.0]) | floats, min_size=1, max_size=4)


def pooled_documents(pool):
    pooled = st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    members = (pooled | st.lists(pooled, max_size=4).map(tuple)
               | st.lists(pooled | st.dictionaries(keys, pooled, max_size=3), max_size=4))
    return st.dictionaries(keys.filter(lambda k: k != "checksum"), members, max_size=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=250, deadline=None)
@given(doc=documents)
def test_random_documents_byte_identical(workdir, doc):
    assert writer_bytes(doc, workdir / "new.json") == reference_bytes(doc, workdir / "ref.json")


@settings(max_examples=250, deadline=None)
@given(doc=documents)
def test_loader_digest_matches_reference(doc):
    """``load_model`` hashes the parsed file, where tuples are lists and
    numpy scalars are floats; its checksum is still the definition's."""
    parsed = json.loads(json.dumps(doc))
    assert model_io._digest(model_io._encode_leaves(parsed)) == reference_checksum(doc)


@settings(max_examples=250, deadline=None)
@given(doc=float_pools.flatmap(pooled_documents))
def test_repeated_floats_byte_identical(workdir, doc):
    assert writer_bytes(doc, workdir / "new.json") == reference_bytes(doc, workdir / "ref.json")
    parsed = json.loads(json.dumps(doc))
    assert model_io._digest(model_io._encode_leaves(parsed)) == reference_checksum(doc)


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("doc", [
    {},
    {"empty": [], "nested": [[], [[]], {}], "obj": {"": {}}},
    {"grid": [[0.5, -1e-300, 1e300], [float("nan"), float("inf"), -float("inf")]]},
    {"mixed": [1, 2.5, True, False, None], "ints": [0, -3, 2**70]},
    {"tuple": (1.0, (2.0, 3.0)), "lead_list": [[1], 2, "x"], "lead_num": [1, [2], {"k": 3}]},
    {"str_after_number": [1, "a,b", 2.5], "dict_after_number": [1.5, {"x,": [2]}]},
    {"ключ": "значение", "b": [" ", "é"], "a": {"z": 1, "y": 2}},
    {"zeros": [0.0, -0.0, 0.0, -0.0]},
    {"zeros": [[0.0, 1.5], [-0.0, 1.5]], "a": [0.0], "b": [-0.0]},
    {"zeros": {"x": [-0.0], "y": [0.0, -0.0]}},
    {"specials": [from_bits(0x7FF8_0000_0000_0123), float("nan"),
                  from_bits(0xFFF0_0000_0000_0001), float("inf"), -float("inf"),
                  5e-324, -5e-324, 1.5],
     "again": [[float("inf"), 5e-324], [from_bits(0x7FF8_0000_0000_0123)]]},
    {"repeats": [[0.1, 0.2, 0.1], [0.2, 0.1], [0.1]], "more": {"k": [0.2, 0.1]}},
    {"np": [np.float64(0.1), np.float64(-0.0), 0.1], "all_np": [np.float64(1.5)] * 3,
     "mixed": [[0.1, -0.0], [np.float64(0.1), np.float64(0.0)], [0.1, np.float64(0.1)]]},
    {"tuple": ([0.5, -0.0], (0.5, 0.0), {"t": (0.0, 0.5)}), "flat": (1e-7, 1e22, 1e-7)},
])
def test_edge_documents_byte_identical(tmp_path, doc):
    assert writer_bytes(doc, tmp_path / "new.json") == reference_bytes(doc, tmp_path / "ref.json")


def test_non_string_key_rejected(tmp_path):
    with pytest.raises(TypeError, match="keys must be str"):
        model_io._write_document({"a": {1: 2.0}}, tmp_path / "m.json")


@pytest.fixture(scope="module")
def models(trained_setup):
    frame = wg.make_autocorrelated_series(400, seed=2)
    raw = wg.build_lag_features(frame, n_lags=6, horizon_steps=1)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    no_pairs = wg.TrainConfig(learning_rate=0.05, max_rounds=20, max_bins=16,
                              interaction_budget=0)
    bagged = wg.TrainConfig(learning_rate=0.05, max_rounds=20, max_bins=16,
                            pair_bins=4, bagging_count=2, seed=3)
    return {
        "glassbox": trained_setup[0],
        "glassbox_no_pairs": wg.train(matrix, split, no_pairs),
        "glassbox_bagged": wg.train(matrix, split, bagged),
        "linear": wg.fit_ols(matrix, split.train),
        "persistence": wg.PersistenceModel.from_matrix(matrix),
        "rt": wg.fit_rt_baseline(matrix, split.train, max_bins=16),
    }


MODEL_NAMES = ["glassbox", "glassbox_no_pairs", "glassbox_bagged", "linear",
               "persistence", "rt"]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_kind_byte_identical(models, tmp_path, name):
    model = models[name]
    doc = next(writer(model) for cls, writer in model_io._WRITERS
               if isinstance(model, cls))
    doc["format_version"] = model_io.FORMAT_VERSION
    wg.save_model(model, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == reference_bytes(doc, tmp_path / "ref.json")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_save_load_save_byte_identical(models, tmp_path, name):
    wg.save_model(models[name], tmp_path / "a.json")
    loaded = wg.load_model(tmp_path / "a.json")
    wg.save_model(loaded, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc.pop("checksum") == reference_checksum(doc)
