"""Versioned model persistence.

Every forecaster serializes to a self-describing JSON document with a
``format_version``, a ``kind`` tag, its lookup tables or coefficients in
full-precision decimal, and a SHA-256 integrity checksum over the
payload. Loading rejects unknown versions and checks that the tables,
trees and column indices fit together and that every number a forecast
uses is finite, so a truncated, tampered or inconsistent file fails
loudly instead of predicting garbage.

One rule decides whether a file loads: the model read from it must
write the stored checksum back. So a re-signed field of the wrong JSON
type (a string intercept, a numeric feature name) is refused, while an
edit that leaves the model unchanged (whitespace, an exponent's ``e``
made ``E``, the stored coarse maps, which load derives) loads as the
original model.

File invariants:

- The file is exactly ``json.dump(doc, fh, indent=1)`` of the document,
  with ``"checksum"`` as its last key, followed by a newline.
- The checksum is ``"sha256:"`` plus the SHA-256 hex digest of the
  document without its checksum, as sorted compact text
  (``json.dumps(doc, sort_keys=True, separators=(",", ":"))``).
- :func:`save_model` formats every number once: the document holds the
  model's own arrays (tables, grid rows, edge vectors, populations,
  coarse maps), each number array and each scalar becomes compact
  text, the checksum is hashed piece by piece from those strings in
  sorted-key order (:func:`_digest`), and the indented file is streamed
  from the same strings in insertion order. Neither layout is ever held
  whole in memory.
- Each distinct number of a top-level member's ``float64`` and
  ``int64`` arrays is formatted only once, by the C JSON encoder
  (:func:`_format_batch`), and its text is reused wherever it repeats.
  Floats repeat a lot in these files: a boosted shape function is a
  step function, and the lags of one series share quantile edges. A
  48-lag file holds about 35,000 floats, of which 7.6-20% are distinct.
  Numbers are told apart by their bits, so each text is still exactly
  the ``repr`` of its own value. The writers give every number vector (a
  validation curve, a tree's columns) as a ``float64`` or ``int64``
  array. Any other array is encoded as its list.
- :func:`load_model` converts each distinct float text once
  (:class:`_FloatMemo`), checks the stored checksum against the model's
  document (:func:`_document`), and digests the parsed document only to
  word a refusal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from .baselines import LinearModel, PersistenceModel, RTBaseline
from .data import BinningMap, NormParams, bin_boundaries
from .glassbox import GlassBoxModel, PairShapeFunction, ShapeFunction, TrainConfig
from .trees import RegressionTree, TreeNode, TreeParams

__all__ = ["save_model", "load_model", "ModelFormatError", "FORMAT_VERSION"]

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised for unreadable, tampered, or unsupported model files."""


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _require_finite(what: str, *arrays) -> None:
    """Raise ValueError unless every number of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"non-finite {what}")


def _norm_to_doc(p: NormParams | None):
    if p is None:
        return None
    return {
        "feature_min": p.feature_min,
        "feature_max": p.feature_max,
        "target_min": float(p.target_min),
        "target_max": float(p.target_max),
    }


def _norm_from_doc(d) -> NormParams | None:
    if d is None:
        return None
    p = NormParams(
        feature_min=np.asarray(d["feature_min"], dtype=np.float64),
        feature_max=np.asarray(d["feature_max"], dtype=np.float64),
        target_min=float(d["target_min"]),
        target_max=float(d["target_max"]),
    )
    _require_finite("normalization bound", p.feature_min, p.feature_max,
                    p.target_min, p.target_max)
    return p


def _bins_to_doc(b: BinningMap):
    """Flat binning fields, spliced into the document top level."""
    return {
        "bin_edges": b.edges,
        "bin_vmin": b.vmin,
        "bin_vmax": b.vmax,
        "bin_populations": b.populations,
        "max_bins": b.max_bins,
    }


def _bins_from_doc(d) -> BinningMap:
    b = BinningMap(
        edges=tuple(np.asarray(e, dtype=np.float64) for e in d["bin_edges"]),
        vmin=np.asarray(d["bin_vmin"], dtype=np.float64),
        vmax=np.asarray(d["bin_vmax"], dtype=np.float64),
        populations=tuple(np.asarray(p, dtype=np.int64)
                          for p in d["bin_populations"]),
        max_bins=int(d["max_bins"]),
    )
    _require_finite("bin edge, vmin or vmax", *b.edges, b.vmin, b.vmax)
    n = (b.n_features,)
    if b.vmin.shape != n or b.vmax.shape != n:
        raise ValueError(f"{b.vmin.shape} bin_vmin and {b.vmax.shape} bin_vmax "
                         f"values for {n[0]} binned features")
    for f, e in enumerate(b.edges):
        if e.ndim != 1 or np.any(e[1:] <= e[:-1]):
            raise ValueError(f"bin edges of feature {f} are not strictly increasing")
        bounds = bin_boundaries(b, f)
        if np.any(bounds[1:] < bounds[:-1]):
            raise ValueError(f"bin_vmin, bin edges and bin_vmax of feature {f} "
                             "are not non-decreasing")
    return b


def _tree_to_doc(t: RegressionTree):
    def column(name, dtype=np.int64):
        return np.array([getattr(nd, name) for nd in t.nodes], dtype=dtype)

    return {
        "feature": column("feature"),
        "threshold": column("threshold"),
        "left": column("left"),
        "right": column("right"),
        "value": column("value", np.float64),
        "count": column("count"),
        # Every fit_cart tree is an absolute-error tree.
        "params": {**asdict(t.params), "split_criterion": "mae"},
    }


def _tree_from_doc(d) -> RegressionTree:
    nodes = tuple(
        TreeNode(int(f), int(t), int(l), int(r), float(v), int(c))
        for f, t, l, r, v, c in zip(d["feature"], d["threshold"], d["left"],
                                    d["right"], d["value"], d["count"])
    )
    params = {k: int(v) for k, v in d["params"].items() if k != "split_criterion"}
    return RegressionTree(nodes=nodes, params=TreeParams(**params))


# ---------------------------------------------------------------------------
# Kind-specific payloads
# ---------------------------------------------------------------------------

def _glassbox_doc(m: GlassBoxModel) -> dict:
    return {
        "kind": "glassbox",
        "metadata": {
            "config": asdict(m.config),
            "rounds_main": m.rounds_main,
            "rounds_pairs": m.rounds_pairs,
            "val_curve_main": np.array(m.val_curve_main, dtype=np.float64),
            "val_curve_pairs": np.array(m.val_curve_pairs, dtype=np.float64),
        },
        "intercept": float(m.intercept),
        "feature_names": list(map(str, m.feature_names)),
        "normalization": _norm_to_doc(m.norm_params),
        **_bins_to_doc(m.bins),
        "shape_functions": [
            {"feature": sf.feature, "values": sf.values} for sf in m.shapes
        ],
        "pair_terms": [
            {"i": pt.i, "j": pt.j, "grid": pt.grid} for pt in m.pairs
        ],
        "coarse_maps": ({str(f): cm for f, cm in m.coarse_maps.items()}
                        if m.pairs else {}),
    }


def _glassbox_from(doc) -> GlassBoxModel:
    meta = doc["metadata"]
    return GlassBoxModel(
        intercept=float(doc["intercept"]),
        shapes=tuple(
            ShapeFunction(int(s["feature"]), np.asarray(s["values"], dtype=np.float64))
            for s in doc["shape_functions"]
        ),
        pairs=tuple(
            PairShapeFunction(int(p["i"]), int(p["j"]),
                              np.asarray(p["grid"], dtype=np.float64))
            for p in doc["pair_terms"]
        ),
        bins=_bins_from_doc(doc),
        feature_names=tuple(map(str, doc["feature_names"])),
        norm_params=_norm_from_doc(doc["normalization"]),
        config=TrainConfig(**meta["config"]),
        rounds_main=int(meta["rounds_main"]),
        rounds_pairs=int(meta["rounds_pairs"]),
        val_curve_main=tuple(map(float, meta["val_curve_main"])),
        val_curve_pairs=tuple(map(float, meta["val_curve_pairs"])),
    )


def _check_glassbox(m: GlassBoxModel) -> None:
    """Raise ValueError unless every table lookup ``predict`` makes is in
    range and finite: feature ``f`` has populations (which fix its coarse
    map) and shape function ``f``, each one entry per bin; pairs differ."""
    _require_finite("intercept", m.intercept)
    _require_finite("shape table", *(sf.values for sf in m.shapes))
    _require_finite("pair grid", *(pt.grid for pt in m.pairs))
    n = m.n_features
    counts = (m.bins.n_features, len(m.bins.populations), len(m.shapes))
    if counts != (n, n, n):
        raise ValueError(f"{counts} binnings, populations and shape functions "
                         f"for {n} features")
    for f, (pops, sf) in enumerate(zip(m.bins.populations, m.shapes)):
        nb = (m.bins.n_bins(f),)
        if pops.shape != nb or pops.min() < 0 or pops.sum() <= 0:
            raise ValueError(f"populations of feature {f} are not {nb[0]} "
                             f"non-negative counts with a positive total")
        if sf.feature != f or sf.values.shape != nb:
            raise ValueError(f"shape function {f} is for feature {sf.feature} with shape "
                             f"{sf.values.shape}, not feature {f} with {nb[0]} bins")
    if len({(pt.i, pt.j) for pt in m.pairs}) != len(m.pairs):
        raise ValueError("a pair term is repeated")
    for pt in m.pairs:
        if not 0 <= pt.i < pt.j < n:
            raise ValueError(f"pair ({pt.i}, {pt.j}) is not 0 <= i < j < {n}")
        need = (int(m.coarse_maps[pt.i].max()) + 1, int(m.coarse_maps[pt.j].max()) + 1)
        if pt.grid.ndim != 2 or pt.grid.shape[0] < need[0] or pt.grid.shape[1] < need[1]:
            raise ValueError(f"grid of pair ({pt.i}, {pt.j}) has shape "
                             f"{pt.grid.shape}, its coarse maps reach {need}")


def _linear_doc(m: LinearModel) -> dict:
    return {
        "kind": "linear",
        "metadata": {},
        "intercept": float(m.intercept),
        "weights": m.weights,
        "feature_names": list(map(str, m.feature_names)),
        "normalization": _norm_to_doc(m.norm_params),
    }


def _linear_from(doc) -> LinearModel:
    return LinearModel(
        intercept=float(doc["intercept"]),
        weights=np.asarray(doc["weights"], dtype=np.float64),
        feature_names=tuple(map(str, doc["feature_names"])),
        norm_params=_norm_from_doc(doc["normalization"]),
    )


def _persistence_doc(m: PersistenceModel) -> dict:
    return {
        "kind": "persistence",
        "metadata": {},
        "lag_column": m.lag_column,
        "feature_names": list(map(str, m.feature_names)),
        "normalization": _norm_to_doc(m.norm_params),
    }


def _persistence_from(doc) -> PersistenceModel:
    return PersistenceModel(
        lag_column=int(doc["lag_column"]),
        feature_names=tuple(map(str, doc["feature_names"])),
        norm_params=_norm_from_doc(doc["normalization"]),
    )


def _check_persistence(m: PersistenceModel) -> None:
    """Raise ValueError unless the lag column names a feature."""
    if not 0 <= m.lag_column < len(m.feature_names):
        raise ValueError(f"lag column {m.lag_column} of {len(m.feature_names)} features")


def _rt_doc(m: RTBaseline) -> dict:
    return {
        "kind": "rt",
        "metadata": {},
        "tree": _tree_to_doc(m.tree),
        **_bins_to_doc(m.bins),
        "feature_names": list(map(str, m.feature_names)),
        "normalization": _norm_to_doc(m.norm_params),
    }


def _rt_from(doc) -> RTBaseline:
    return RTBaseline(
        tree=_tree_from_doc(doc["tree"]),
        bins=_bins_from_doc(doc),
        feature_names=tuple(map(str, doc["feature_names"])),
        norm_params=_norm_from_doc(doc["normalization"]),
    )


def _check_rt(m: RTBaseline) -> None:
    """Raise ValueError unless ``predict`` can route every row to a
    finite leaf: the tree has a root, each split names a binned feature,
    and each split's children come after it in the node list, so every
    path ends in a leaf."""
    nodes = m.tree.nodes
    if not nodes:
        raise ValueError("tree has no nodes")
    _require_finite("leaf value", *(nd.value for nd in nodes if nd.is_leaf))
    n = m.bins.n_features
    if n != len(m.feature_names):
        raise ValueError(f"{n} binned features for {len(m.feature_names)} feature names")
    for k, nd in enumerate(nodes):
        if nd.is_leaf:
            continue
        if nd.feature >= n:
            raise ValueError(f"node {k} splits on feature {nd.feature} of {n}")
        if not (k < nd.left < len(nodes) and k < nd.right < len(nodes)):
            raise ValueError(f"node {k} has children ({nd.left}, {nd.right}), "
                             f"not in ({k}, {len(nodes)})")


_WRITERS = [
    (GlassBoxModel, _glassbox_doc),
    (LinearModel, _linear_doc),
    (PersistenceModel, _persistence_doc),
    (RTBaseline, _rt_doc),
]
# Each kind's check, run on every model read and every model written.
_CHECKS = {
    "glassbox": _check_glassbox,
    "persistence": _check_persistence,
    "rt": _check_rt,
}
_READERS = {
    "glassbox": _glassbox_from,
    "linear": _linear_from,
    "persistence": _persistence_from,
    "rt": _rt_from,
}


# ---------------------------------------------------------------------------
# Encoding and checksum
# ---------------------------------------------------------------------------

_compact = json.JSONEncoder(separators=(",", ":")).encode
# The array dtypes a member batches, each formatted in one pass.
_BATCHED = (np.dtype(np.float64), np.dtype(np.int64))


class _Text(str):
    """Compact JSON text of a scalar or of a number array."""

    __slots__ = ()


class _Object(list):
    """A dict's ``[key, key text, encoded value]`` items in insertion order."""

    __slots__ = ()


def _encode_leaves(obj):
    """``obj`` with every scalar and every non-empty 1-D ``float64`` or
    ``int64`` array replaced by its compact JSON text (that of its
    ``tolist()``), every other array or list by the list of its encoded
    items, and every dict by an :class:`_Object`.

    The C encoder formats numbers exactly as ``json.dump`` does
    (``float.__repr__``, ``NaN``/``Infinity``), so each number is
    formatted here once and reused by both layouts. ``float64`` and
    ``int64`` arrays (a grid row by row) are formatted in one batch per
    dtype and member of a document (:func:`_format_batch`), so that a
    number repeated anywhere in its batch is formatted once. One batch
    per member rather than per document halves the batches' extra peak
    memory when encoding a 48-lag file (0.6 MB rather than 1.2 MB).
    """
    if isinstance(obj, dict):
        return _Object([key, _key_text(key), _encode_batch(value)]
                       for key, value in obj.items())
    return _encode_batch(obj)


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"model document keys must be str, got {key!r}")
    return _compact(key)


def _encode_batch(obj):
    """``obj`` encoded, with its number arrays formatted as one batch per dtype."""
    root = [None]
    batches = {dtype: [] for dtype in _BATCHED}
    _encode_into(root, 0, obj, batches)
    for batch in batches.values():
        _format_batch(batch)
    return root[0]


def _encode_into(holder, index, obj, batches) -> None:
    """Set ``holder[index]`` to ``obj`` encoded, except that a non-empty
    1-D array of a batched dtype is appended to its dtype's batch with
    its slot, for :func:`_format_batch` to fill."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.size and obj.dtype in batches:
            batches[obj.dtype].append((holder, index, obj))
            return
        # A grid is the list of its rows; any other array its tolist().
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict):
        items = _Object()
        for key, value in obj.items():
            item = [key, _key_text(key), None]
            items.append(item)
            _encode_into(item, 2, value, batches)
        holder[index] = items
        return
    if isinstance(obj, (list, tuple)):
        node = [None] * len(obj)
        for k, value in enumerate(obj):
            _encode_into(node, k, value, batches)
        holder[index] = node
        return
    holder[index] = _Text(_compact(obj))


def _format_batch(batch) -> None:
    """Fill each ``(holder, index, array)`` slot of ``batch``, whose
    arrays share one dtype, with the compact text of its array,
    formatting each distinct number of the batch once.

    Numbers are told apart by their 64 bits, so ``0.0`` and ``-0.0``
    keep their own texts. The distinct numbers are formatted by one
    :data:`_compact` call, and no number's text holds a comma.
    """
    if not batch:
        return
    values = np.concatenate([array for _, _, array in batch])
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = _compact(bits.view(values.dtype).tolist())[1:-1].split(",")
    texts = np.array(texts, dtype=object)[which].tolist()
    start = 0
    for holder, index, array in batch:
        end = start + len(array)
        holder[index] = _Text("[" + ",".join(texts[start:end]) + "]")
        start = end


def _hash_sorted(node, update) -> None:
    """Feed the sorted compact text of an encoded node to ``update``."""
    if type(node) is _Text:
        update(node.encode())
    elif type(node) is list:
        update(b"[")
        for k, value in enumerate(node):
            if k:
                update(b",")
            _hash_sorted(value, update)
        update(b"]")
    else:
        update(b"{")
        for k, (_, key_text, value) in enumerate(sorted(node)):
            update((key_text + ":" if not k else "," + key_text + ":").encode())
            _hash_sorted(value, update)
        update(b"}")


def _digest(encoded) -> str:
    """The checksum of an :func:`_encode_leaves` document (the
    definition is in the module docstring)."""
    digest = hashlib.sha256()
    _hash_sorted(encoded, digest.update)
    return "sha256:" + digest.hexdigest()


def _write_indented(node, level: int, write) -> None:
    """Write an encoded node laid out as ``json.dump(..., indent=1)``."""
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level
    if type(node) is _Text:
        if node[0] == "[":
            write("[" + inner + node[1:-1].replace(",", "," + inner) + close + "]")
        else:
            write(node)
    elif type(node) is list:
        if not node:
            write("[]")
            return
        for k, value in enumerate(node):
            write("[" + inner if not k else "," + inner)
            _write_indented(value, level + 1, write)
        write(close + "]")
    else:
        if not node:
            write("{}")
            return
        for k, (_, key_text, value) in enumerate(node):
            write(("{" + inner if not k else "," + inner) + key_text + ": ")
            _write_indented(value, level + 1, write)
        write(close + "}")


def _write_document(doc: dict, path) -> None:
    """Write ``doc`` plus its checksum, byte for byte as
    ``json.dump({**doc, "checksum": checksum}, fh, indent=1)`` followed
    by a newline, encoding each number once."""
    tree = _encode_leaves(doc)
    checksum = _digest(tree)
    tree.append(["checksum", '"checksum"', _Text(_compact(checksum))])
    with open(path, "w") as fh:
        _write_indented(tree, 0, fh.write)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _check(kind: str, model) -> None:
    """Raise ValueError unless ``model``, of ``kind``, fits together and
    holds only finite numbers where a forecast reads them."""
    check = _CHECKS.get(kind)
    if check is not None:
        check(model)


def _document(model) -> dict:
    """The document :func:`save_model` writes for ``model``, less the checksum."""
    for cls, writer in _WRITERS:
        if isinstance(model, cls):
            return {**writer(model), "format_version": FORMAT_VERSION}
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def save_model(model, path) -> None:
    """Write any supported forecaster to a versioned model file.

    A model :func:`load_model` would refuse (a non-finite intercept,
    table or leaf, tables that do not fit together) raises
    ``ValueError`` before ``path`` is opened, so no file is created or
    truncated.
    """
    doc = _document(model)
    _check(doc["kind"], model)
    _write_document(doc, path)


class _FloatMemo(dict):
    """A ``parse_float`` memo for one load: each distinct float text is
    converted once, by ``float``, so every value is exactly the one the
    default parser gives. Floats repeat a lot in a model file."""

    __slots__ = ()

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def load_model(path):
    """Read a model file back; predictions round-trip bit-identically.

    A file loads only if its model writes the stored checksum back.
    Raises :class:`ModelFormatError` for corrupt files, checksum
    mismatches, unsupported versions, unknown model kinds, and payloads
    that pass the checksum but do not fit together, hold a non-finite
    table value, or are not what :func:`save_model` writes for them.
    """
    parse_float = _FloatMemo().__getitem__
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=parse_float)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {path} ({exc})") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"corrupt model file: {path} ({exc})") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError(f"corrupt model file: {path} (no format_version)")
    version = doc["format_version"]
    # bool is an int subclass; ``true`` is no version.
    if type(version) is not int or version < 1 or version > FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(this build reads up to {FORMAT_VERSION})"
        )
    stored = doc.pop("checksum", None)
    kind = doc.get("kind")
    reader = _READERS.get(kind) if isinstance(kind, str) else None
    if reader is not None:
        try:
            model = reader(doc)
            _check(kind, model)
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        else:
            # Hold one document at a time; parse again to word a refusal.
            del doc
            if stored == _digest(_encode_leaves(_document(model))):
                return model
            with open(path) as fh:
                doc = json.load(fh, parse_float=parse_float)
            doc.pop("checksum", None)
            problem = "not what save_model writes for its model"
    if stored != _digest(_encode_leaves(doc)):
        raise ModelFormatError(f"model file checksum mismatch: {path}")
    if reader is None:
        raise ModelFormatError(f"unknown model kind {kind!r} in {path}")
    raise ModelFormatError(f"malformed {kind} model file: {path} ({problem})")
