"""The single-pass model writer and the loader's checksum against the
two-pass layout they replaced.

The reference below is the old body of ``save_model``: the checksum is
SHA-256 over the sorted compact text, and the file is
``json.dump(..., indent=1)`` with the checksum appended, then a newline.
The writer must give the same bytes for any JSON document and for every
model kind, and the loader the same checksum for any parsed document.
A document may hold numpy arrays, which encode as their ``tolist()``,
and the loader's memoised float parse must give the default parser's
values.
"""

import hashlib
import io
import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import model_io


def reference_checksum(doc: dict, default=None) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=default)
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def reference_bytes(doc: dict, path, default=None) -> bytes:
    full = dict(doc)
    full["checksum"] = reference_checksum(doc, default)
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1, default=default)
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
    doc = model_io._document(model)
    wg.save_model(model, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == reference_bytes(
        doc, tmp_path / "ref.json", default=lambda a: a.tolist())


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_save_load_save_byte_identical(models, tmp_path, name):
    wg.save_model(models[name], tmp_path / "a.json")
    loaded = wg.load_model(tmp_path / "a.json")
    wg.save_model(loaded, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc.pop("checksum") == reference_checksum(doc)


# Arrays: float64 and int64 ones take the batched path, the rest their
# tolist(). Values come from small pools, so they repeat across arrays
# and rows; NaN payloads, signed zeros, infinities and subnormals
# included.
special_floats = st.sampled_from([
    0.0, -0.0, float("inf"), -float("inf"), float("nan"), from_bits(0x7FF8_0000_0000_0123),
    from_bits(0xFFF0_0000_0000_0001), 5e-324, -5e-324, 2.225073858507201e-308, 0.1, 1e22])
int64_edges = st.sampled_from([0, -1, 2**63 - 1, -(2**63 - 1), -2**63])


def pooled_array(pool, dtype, max_dims):
    shapes = st.lists(st.integers(0, 5), min_size=1, max_size=max_dims).map(tuple)
    return shapes.flatmap(lambda shape: st.lists(
        st.sampled_from(pool), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda vals: np.array(vals, dtype).reshape(shape)))


@st.composite
def array_documents(draw):
    floats64 = draw(st.lists(special_floats | floats, min_size=1, max_size=5))
    ints64 = draw(st.lists(int64_edges | st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4))
    ints32 = draw(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=3))
    floats32 = draw(st.lists(st.floats(width=32), min_size=1, max_size=3))
    leaves = (pooled_array(floats64, np.float64, 2) | pooled_array(ints64, np.int64, 2)
              | pooled_array([True, False], bool, 2) | pooled_array(ints32, np.int32, 2)
              | pooled_array(floats32, np.float32, 2)
              | st.sampled_from(floats64).map(np.array)
              | st.lists(st.sampled_from(floats64), max_size=5)
              | st.lists(st.sampled_from(ints64), max_size=5)
              | st.sampled_from(floats64) | st.none() | tricky)
    members = (leaves | st.lists(leaves, max_size=4).map(tuple)
               | st.lists(leaves | st.dictionaries(keys, leaves, max_size=3), max_size=4))
    return draw(st.dictionaries(keys.filter(lambda k: k != "checksum"), members, max_size=5))


def as_lists(obj):
    """``obj`` with every array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj


def indented(encoded) -> str:
    out = io.StringIO()
    model_io._write_indented(encoded, 0, out.write)
    return out.getvalue()


def batches_formatted(doc) -> list:
    """The dtype and array sizes of every batch ``_encode_leaves(doc)``
    formats, in order."""
    seen, real = [], model_io._format_batch

    def record(batch):
        seen.append([(array.dtype.str, array.size) for _, _, array in batch])
        real(batch)

    with mock.patch.object(model_io, "_format_batch", record):
        model_io._encode_leaves(doc)
    return seen


@settings(max_examples=150, deadline=None)
@given(doc=array_documents())
def test_arrays_encode_as_their_lists(doc):
    """Same checksum and same indented text as the document with every
    array replaced by its list, and one batch per dtype and top-level
    member: the batches of the whole document are those of its members
    encoded one at a time."""
    lists = as_lists(doc)
    encoded, reference = model_io._encode_leaves(doc), model_io._encode_leaves(lists)
    assert model_io._digest(encoded) == model_io._digest(reference) == reference_checksum(lists)
    assert indented(encoded) == indented(reference)
    assert batches_formatted(doc) == [
        batch for key, value in doc.items() for batch in batches_formatted({key: value})]


# One float spelled several ways, each spelling repeated across lists.
float_spellings = st.sampled_from([
    "1E5", "1e+05", "1e5", "100000.0", "100000.00000000000000001", "-0.0", "0.0", "0e0",
    "-0E-0", "5e-324", "4.9406564584124654e-324", "0.1", "0.10000000000000000555",
    "1.7976931348623157e308", "1e400", "-1e400", "2.2250738585072011e-308"])
drawn_spellings = floats.filter(np.isfinite).flatmap(lambda x: st.sampled_from(
    [repr(x), f"{x:.17e}", f"{x:.20g}", f"{x:.25E}"])).filter(lambda t: "." in t or "e" in t.lower())


def typed_leaves(obj):
    """``obj`` with each float as its hex and each int tagged, for an
    exact comparison."""
    if isinstance(obj, list):
        return [typed_leaves(value) for value in obj]
    if isinstance(obj, dict):
        return {key: typed_leaves(value) for key, value in obj.items()}
    return (type(obj).__name__, obj.hex() if type(obj) is float else obj)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(float_spellings | drawn_spellings, min_size=1, max_size=6), data=st.data())
def test_memoised_parse_equals_the_default_parse(pool, data):
    rows = data.draw(st.lists(st.lists(st.sampled_from(pool) | st.sampled_from(["7", "-3"]),
                                       max_size=6), max_size=5))
    text = ('{"rows": [' + ",".join("[" + ",".join(row) + "]" for row in rows)
            + '], "x": ' + pool[0] + "}")
    memoised = json.loads(text, parse_float=model_io._FloatMemo().__getitem__)
    assert typed_leaves(memoised) == typed_leaves(json.loads(text))


def test_each_load_has_its_own_float_memo(models, tmp_path):
    """Two loads share no memo: each holds exactly its own file's float
    texts."""
    memos = []

    class Recording(model_io._FloatMemo):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            memos.append(self)

    paths, texts = [tmp_path / "glassbox.json", tmp_path / "linear.json"], []
    for path, name in zip(paths, ["glassbox", "linear"]):
        wg.save_model(models[name], path)
        seen = set()
        json.loads(path.read_text(), parse_float=lambda t: seen.add(t) or float(t))
        texts.append(seen)
    with mock.patch.object(model_io, "_FloatMemo", Recording):
        for path in paths:
            wg.load_model(path)
    assert len(memos) == 2 and [set(memo) for memo in memos] == texts
