"""In-memory span tracer that wraps windglass's public functions.

The package is never edited: :func:`install` replaces each public
function and method of the layer modules at every name a caller looks
it up by (``windglass.glassbox.apply_bins`` and ``windglass.data.apply_bins``
are the same function, so both names get the same wrapper), and
:func:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent)``. Spans stay in memory and are
written once, when the run ends. A span's self time is its duration
minus the time covered by its wrapped children.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import os
import pickle
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("data", "trees", "glassbox", "baselines", "metrics", "explain",
          "model_io", "cli")


class Tracer:
    """Records spans and counters while installed and ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []       # [name, start, end, parent]
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- aggregates of the current operation ---------------------------------

    def reset(self):
        """Start a fresh set of per-operation aggregates (spans are kept)."""
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.fit_keys: list[str] = []

    def snapshot(self) -> dict:
        return {"total_s": dict(self.total_s), "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "fit_keys": list(self.fit_keys)}

    def under(self, ancestor: str) -> bool:
        """True when a span named ``ancestor`` is open."""
        return any(self.spans[i][0] == ancestor for i in self._stack)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                children = tracer._child_s.pop()
                duration = t1 - t0
                if tracer._child_s:
                    tracer._child_s[-1] += duration
                span[1], span[2] = t0, t1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - children
                tracer.calls[name] += 1
            if on_return is not None:
                h0 = time.perf_counter()
                on_return(tracer, args, kwargs, result)
                if tracer._child_s:  # keep counting out of the parent's self time
                    tracer._child_s[-1] += time.perf_counter() - h0
            return result

        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write every span recorded so far as JSON (names interned)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3]]
                                 for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# Counters attached to particular functions
# ---------------------------------------------------------------------------

def _count_histogram_tree(tracer, args, kwargs, tree):
    cnt = args[0] if args else kwargs["cnt"]
    tracer.counts["trees.restricted_tree_from_histogram.cells"] += cnt.size
    tracer.counts["trees.restricted_tree_from_histogram.split_fits"] += (
        len(tree.nodes) > 1)


def _count_main_rounds(tracer, args, kwargs, result):
    tracer.counts["glassbox.train_main_effects.rounds"] += result[0].rounds_main


def _count_pair_rounds(tracer, args, kwargs, model):
    tracer.counts["glassbox.train_interactions.rounds"] += model.rounds_pairs


def _count_train(tracer, args, kwargs, model):
    tracer.counts["glassbox.boost_steps"] += (
        model.rounds_main * len(model.shapes) + model.rounds_pairs * len(model.pairs))
    _record_fit(tracer, args, kwargs, model)


def _record_fit(tracer, args, kwargs, model):
    """Fingerprint a fit made by the CLI benchmark command.

    Two fits count as the same when their learned parameters are
    identical; the echoed training seed is left out of the fingerprint.
    """
    if not tracer.under("cli.cmd_benchmark"):
        return
    config = getattr(model, "config", None)
    if dataclasses.is_dataclass(config) and hasattr(config, "seed"):
        model = dataclasses.replace(model, config=dataclasses.replace(config, seed=0))
    key = type(model).__name__ + ":" + hashlib.sha256(pickle.dumps(model)).hexdigest()
    tracer.fit_keys.append(key)


def _count_predict(tracer, args, kwargs, result):
    tracer.counts["glassbox.predict.rows"] += len(args[1])
    if tracer.under("explain.pfi"):
        tracer.counts["explain.pfi.predict_calls"] += 1


def _count_apply_bins(tracer, args, kwargs, result):
    tracer.counts["data.apply_bins.rows"] += len(result)


def _count_csv(tracer, args, kwargs, frame):
    tracer.counts["data.load_csv.rows"] += len(frame)
    tracer.counts["data.load_csv.dropped"] += frame.dropped_rows


def _count_saved_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["model_io.bytes"] += os.path.getsize(path)


HOOKS = {
    "trees.restricted_tree_from_histogram": _count_histogram_tree,
    "glassbox.train_main_effects": _count_main_rounds,
    "glassbox.train_interactions": _count_pair_rounds,
    "glassbox.train": _count_train,
    "glassbox.GlassBoxModel.predict": _count_predict,
    "data.apply_bins": _count_apply_bins,
    "data.load_csv": _count_csv,
    "model_io.save_model": _count_saved_bytes,
    "baselines.fit_ols": _record_fit,
    "baselines.fit_rt_baseline": _record_fit,
    "baselines.PersistenceModel.from_matrix": _record_fit,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def install(tracer: Tracer):
    """Wrap every public function and method of the layer modules.

    Every module of the package that binds one of those functions
    (``from .data import apply_bins``) gets its binding replaced too, so
    callers reach the wrapper whichever name they look up.
    """
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"windglass.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "windglass":
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                tracer._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)


def _wrap_methods(tracer: Tracer, layer: str, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(raw):
            replacement = tracer.wrap(name, raw, HOOKS.get(name))
        elif isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(tracer.wrap(name, raw.__func__, HOOKS.get(name)))
        else:
            continue  # properties and plain attributes
        tracer._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)
