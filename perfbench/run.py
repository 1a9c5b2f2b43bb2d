#!/usr/bin/env python3
"""Benchmark harness for windglass.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload boost-pairs --seed 0 --seconds 28 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy. One process, one client, BLAS/OpenMP pinned to one
thread. The seed gives the run a few inputs (``input_seeds``); one
operation is a pass that calls the workload once on each of them.
After repeated set-ups (their median is ``setup_s``) and one untimed
warm-up pass, passes repeat in a closed loop for ``--seconds``.
``op_s`` is the fastest pass the run could make: the sum, over the
inputs and the steps of a call, of the fastest time of each. A fixed
probe (``hostspeed.py``) runs before every call, and both timings are
scaled to the reference speed of the host by it. Every call's output
is checked, and its digest compared with the one recorded in
``perfbench/digests.json`` for that workload and input seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics plus the
tracing overhead. The last stdout line is one JSON object; the
lines before it print every metric by name with its unit. A full
report and, when traced, the spans go to ``.perfbench_out/``.

Exit codes: 0 all calls correct, 1 some call failed or mismatched, 2
the harness could not start (no ``src/windglass``, bad arguments,
set-up error).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
from statistics import fmean, median, quantiles
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up runs MIN_SETUPS times before the warm-up, and again after any
# pass that leaves the loop's set-ups under SETUP_SHARE of its elapsed
# time, so that the median set-up time is taken over the whole run.
MIN_SETUPS, SETUP_SHARE = 3, 0.1

# name -> unit, for the end-to-end metrics (--trace 0).
END_TO_END = {"setup_s": "s", "op_s": "s", "nrmse_ratio": "ratio", "peak_rss_mb": "MB"}


class StartError(Exception):
    """The harness cannot run here; exit 2 without a result."""


class Mismatch(Exception):
    """An operation's output or counts differ from what they must be."""


def bootstrap():
    """Pin native threads and import windglass from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "windglass" / "__init__.py").is_file():
        raise StartError(f"no windglass sources under {src}")
    sys.path.insert(0, str(src))
    import windglass
    if Path(windglass.__file__).resolve().parent != (src / "windglass").resolve():
        raise StartError(f"imported windglass from {windglass.__file__}, not {src}")
    return windglass


def provenance() -> dict:
    import numpy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digests(scale: str, workload: str, seeds: list[int]) -> list:
    """The recorded digest of each input seed, or None where there is none."""
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        table = {}
    recorded = table.get(scale, {}).get(workload, {})
    return [recorded.get(str(seed)) for seed in seeds]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: set-ups, warm-up, the timed loop, checks.

    Calls on input ``k`` are checked against ``expected[k]`` (the
    recorded digest, when there is one) and against the warm-up call on
    the same input.
    """

    def __init__(self, workload, seeds, tracer, expected):
        self.workload = workload
        self.seeds = seeds
        self.tracer = tracer
        self.expected = expected
        self.setup_s: list[float] = []
        self.setup_digest = None
        self.probe_s: list[float] = []   # host-speed probe, before every timed call
        self.ops: list[dict] = []        # timed calls that passed
        self.attempted = 0
        self.failed = 0
        self.reference = [None] * len(seeds)   # warm-up outcome per input
        self.ref_counts = [None] * len(seeds)  # exact counts of the first traced call

    def set_up(self):
        """One timed set-up of every input; every set-up must agree."""
        t0 = time.perf_counter()
        states = [self.workload.setup(seed) for seed in self.seeds]
        self.setup_s.append(time.perf_counter() - t0)
        digest = tuple(self.workload.setup_digest(state) for state in states)
        if self.setup_digest is None:
            self.setup_digest = digest
        elif digest != self.setup_digest:
            raise Mismatch("set-up is not deterministic for this seed")
        return states

    def operate(self, states, k: int, pass_no: int, traced: bool):
        """One checked call on input ``k``; timed unless ``pass_no`` < 0."""
        self.attempted += 1
        try:
            if traced:
                self.tracer.reset()
                self.tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = self.workload.op(states[k])
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                self.tracer.active = False
            outcome = self.workload.check(states[k], out)
            self._compare(k, outcome, traced)
        except Exception:  # noqa: BLE001 - the loop must go on and count it
            self.failed += 1
            print(f"call failed ({self.workload.name}, input seed {self.seeds[k]}):",
                  file=sys.stderr)
            traceback.print_exc()
            return
        if self.reference[k] is None:
            self.reference[k] = outcome
        if pass_no >= 0:
            self.ops.append({"input": k, "pass": pass_no, "wall": wall, "cpu": cpu,
                             "traced": traced, "outcome": outcome,
                             "trace": self.tracer.snapshot() if traced else None})

    def _compare(self, k, outcome, traced):
        if self.expected[k] is not None and outcome.digest != self.expected[k]:
            raise Mismatch(f"digest {outcome.digest} != recorded {self.expected[k]}")
        ref = self.reference[k]
        if ref is not None and (outcome.digest, outcome.extra_digest) != (
                ref.digest, ref.extra_digest):
            raise Mismatch("output differs from the warm-up call")
        if traced:
            counts = (dict(self.tracer.calls), dict(self.tracer.counts),
                      list(self.tracer.fit_keys))
            if self.ref_counts[k] is None:
                self.ref_counts[k] = counts
            elif counts != self.ref_counts[k]:
                raise Mismatch("exact counts differ between traced calls")

    def loop(self, states, seconds: float, trace: bool):
        """Whole passes over the inputs until ``seconds`` have passed; with
        ``trace``, every other pass is traced and at least one of each runs."""
        from hostspeed import probe  # imports numpy: only after bootstrap()

        for k in range(len(states)):                              # warm-up
            self.operate(states, k, pass_no=-1, traced=False)
        start = time.perf_counter()
        deadline = start + seconds
        p = 0
        while time.perf_counter() < deadline or (trace and p < 2):
            for k in range(len(states)):
                self.probe_s.append(probe())
                self.operate(states, k, pass_no=p, traced=trace and p % 2 == 0)
            p += 1
            if sum(self.setup_s[MIN_SETUPS:]) < SETUP_SHARE * (time.perf_counter() - start):
                try:
                    self.set_up()  # rewrites the same inputs; only timed
                except Exception:  # noqa: BLE001 - counted like a failed call
                    self.attempted += 1
                    self.failed += 1
                    traceback.print_exc()

    def passes(self, traced: bool) -> list[list[dict]]:
        """The timed passes (traced or not) in which every call passed."""
        by_pass: dict[int, list[dict]] = {}
        for op in self.ops:
            if op["traced"] == traced:
                by_pass.setdefault(op["pass"], []).append(op)
        return [ops for ops in by_pass.values() if len(ops) == len(self.seeds)]


def fastest_pass(run: Run) -> float:
    """The fastest pass the run could make: for each input and each step
    of the call on it (``Outcome.steps``), the fastest time of that step,
    summed. The work is deterministic and single-threaded, so
    interference from other tenants of a shared host only adds time, and
    a short step often finds a quiet moment where a whole pass does not."""
    fastest: dict[tuple[int, str], float] = {}
    for op in run.ops:
        for step, seconds in op["outcome"].steps.items():
            key = (op["input"], step)
            fastest[key] = min(fastest.get(key, seconds), seconds)
    return sum(fastest.values())


def end_to_end(run: Run) -> dict:
    """Times are scaled to the reference speed of the host: ``op_s`` by
    the fastest probe of the run, as it is a fastest time itself, and
    ``setup_s`` (a median) by the median probe. The unscaled values are
    printed as ``op_raw_s`` and ``setup_raw_s``."""
    from hostspeed import REFERENCE_S

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "setup_s": median(run.setup_s) * REFERENCE_S / median(run.probe_s),
        "op_s": fastest_pass(run) * REFERENCE_S / min(run.probe_s),
        "nrmse_ratio": fmean(ref.test_nrmse / ref.mean_nrmse for ref in run.reference),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def workload_metrics(run: Run, sizes: dict) -> dict:
    """The workload's own headline numbers, from untraced passes: each
    phase time is summed over a pass, then the median over passes is
    taken. Returns name -> (value, unit)."""
    passes = run.passes(traced=False)
    out = {}
    phases: dict[str, list[float]] = {}
    for ops in passes:
        for name in ops[0]["outcome"].timings:
            phases.setdefault(name, []).append(
                sum(op["outcome"].timings[name] for op in ops))
    if passes:
        out["op_raw_s"] = (fastest_pass(run), "s")
        out["op_median_s"] = (median([sum(op["wall"] for op in ops) for ops in passes]), "s")
    out["setup_raw_s"] = (median(run.setup_s), "s")
    if run.probe_s:
        out["probe_min_s"] = (min(run.probe_s), "s")
        out["probe_median_s"] = (median(run.probe_s), "s")
    for name in ("train_s", "pipeline_s", "pfi_s", "benchmark_s"):
        if name in phases:
            out[name] = (median(phases[name]), "s")
    if "predict_s" in phases:
        out["predict_rows_per_s"] = (
            sizes["serve_predict_rows"] * len(run.seeds) / median(phases["predict_s"]), "1/s")
    samples = [s for ops in passes for op in ops for s in op["outcome"].latencies]
    if samples:
        q = quantiles(samples, n=100, method="inclusive")
        out["explain_p50_ms"] = (median(samples) * 1e3, "ms")
        out["explain_p99_ms"] = (q[98] * 1e3, "ms")
        out["explain_samples"] = (len(samples), "count")
    if all(run.reference):
        out["test_nrmse"] = (fmean(ref.test_nrmse for ref in run.reference), "ratio")
    out["fail_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    out["timed_calls"] = (len(run.ops), "count")
    return out


# Per-layer metrics (--trace 1): name -> (unit, better).
PER_LAYER = {
    "trees.restricted_tree_from_histogram.s": ("s", "lower"),
    "trees.restricted_tree_from_histogram.calls": ("count", "lower"),
    "trees.restricted_tree_from_histogram.cells": ("count", "lower"),
    "trees.tree_as_bin_table.s": ("s", "lower"),
    "trees.tree_as_bin_table.calls": ("count", "lower"),
    "trees.split_ratio": ("ratio", "higher"),
    "glassbox.train_main_effects.self_s": ("s", "lower"),
    "glassbox.train_main_effects.rounds": ("count", "lower"),
    "glassbox.train_interactions.self_s": ("s", "lower"),
    "glassbox.train_interactions.rounds": ("count", "lower"),
    "glassbox.train.self_s": ("s", "lower"),
    "glassbox.boost_steps": ("count", "lower"),
    "glassbox.predict.s": ("s", "lower"),
    "glassbox.predict.rows": ("count", "lower"),
    "glassbox.term_contributions.s": ("s", "lower"),
    "glassbox.predict_with_breakdown.s": ("s", "lower"),
    "glassbox.predict_with_breakdown.calls": ("count", "lower"),
    "data.load_csv.s": ("s", "lower"),
    "data.load_csv.rows": ("count", "higher"),
    "data.load_csv.dropped": ("count", "lower"),
    "data.build_lag_features.s": ("s", "lower"),
    "data.fit_bins.s": ("s", "lower"),
    "data.normalize_fit_apply.s": ("s", "lower"),
    "data.apply_bins.s": ("s", "lower"),
    "data.apply_bins.calls": ("count", "lower"),
    "data.apply_bins.rows": ("count", "lower"),
    "model_io.save_model.s": ("s", "lower"),
    "model_io.load_model.s": ("s", "lower"),
    "model_io.bytes": ("count", "lower"),
    "baselines.fit_rt_baseline.self_s": ("s", "lower"),
    "trees.fit_cart.s": ("s", "lower"),
    "trees.fit_cart.calls": ("count", "lower"),
    "baselines.fit_ols.s": ("s", "lower"),
    "explain.pfi.s": ("s", "lower"),
    "explain.pfi.predict_calls": ("count", "lower"),
    "explain.pdp.s": ("s", "lower"),
    "metrics.evaluate.s": ("s", "lower"),
    "cli.cmd_benchmark.self_s": ("s", "lower"),
    "cli.fits": ("count", "lower"),
    "cli.unique_fit_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Metric name prefix -> span name, where the two differ.
_SPAN_OF = {
    "glassbox.predict": "glassbox.GlassBoxModel.predict",
    "glassbox.term_contributions": "glassbox.GlassBoxModel.term_contributions",
    "glassbox.predict_with_breakdown": "glassbox.GlassBoxModel.predict_with_breakdown",
}


def _layer_value(name: str, trace: dict) -> float:
    """One traced operation's value of a per-layer metric."""
    counts, calls = trace["counts"], trace["calls"]
    if name == "trees.split_ratio":
        fits = calls.get("trees.restricted_tree_from_histogram", 0)
        split = counts.get("trees.restricted_tree_from_histogram.split_fits", 0)
        return split / fits if fits else 0.0
    if name == "cli.fits":
        return len(trace["fit_keys"])
    if name == "cli.unique_fit_ratio":
        keys = trace["fit_keys"]
        return len(set(keys)) / len(keys) if keys else 0.0
    prefix, _, kind = name.rpartition(".")
    span = _SPAN_OF.get(prefix, prefix)
    if kind == "calls":
        return calls.get(span, 0)
    if kind == "self_s":
        return trace["self_s"].get(span, 0.0)
    if kind == "s":
        return trace["total_s"].get(span, 0.0)
    return counts.get(name, 0)


def _merge_traces(ops: list[dict]) -> dict:
    """The aggregates of one pass: every call's trace added up."""
    merged = {"total_s": {}, "self_s": {}, "calls": {}, "counts": {}, "fit_keys": []}
    for op in ops:
        for key in ("total_s", "self_s", "calls", "counts"):
            for name, value in op["trace"][key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["fit_keys"] += op["trace"]["fit_keys"]
    return merged


def per_layer(run: Run) -> dict:
    """Per-layer metrics of one pass: times are medians over the traced
    passes, counts come from the first (they repeat exactly)."""
    traced = [_merge_traces(ops) for ops in run.passes(traced=True)]
    traced_s = [sum(op["wall"] for op in ops) for ops in run.passes(traced=True)]
    plain_s = [sum(op["wall"] for op in ops) for ops in run.passes(traced=False)]
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        if unit == "s":
            values[name] = median([_layer_value(name, trace) for trace in traced])
        else:  # exact: checked to repeat on every traced call
            values[name] = _layer_value(name, traced[0])
    plain = median(plain_s)
    overhead = median(traced_s) - plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / plain
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["boost-pairs", "lags-48", "serve-explain", "cli-benchmark"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        bootstrap()
        import spans
        import workloads
    except (StartError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tracer = spans.Tracer()
    try:
        sizes = workloads.SCALES[args.scale]
        workload = workloads.WORKLOADS[args.workload](sizes, workdir)
        seeds = workloads.input_seeds(args.seed, sizes["inputs"])
        expected = recorded_digests(args.scale, args.workload, seeds)
        run = Run(workload, seeds, tracer, expected)
        try:
            for _ in range(MIN_SETUPS):
                states = run.set_up()
        except Exception as exc:  # noqa: BLE001 - reported, exit 2
            traceback.print_exc()
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            spans.install(tracer)
        try:
            run.loop(states, args.seconds, bool(args.trace))
        finally:
            tracer.uninstall()
        return report(args, run, sizes, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, run: Run, sizes: dict, tracer) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ok = run.failed == 0 and bool(run.ops)
    if args.trace:
        metrics = {name: (value, PER_LAYER[name][0])
                   for name, value in (per_layer(run).items() if ok else ())}
        tracer.write(OUT_DIR / f"spans-{tag}.json")
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in (end_to_end(run).items() if ok else ())}
    extra = workload_metrics(run, sizes)
    inputs = [{"seed": seed, "digest": ref.digest if ref else None, "digest_recorded": rec,
               "extra_digest": ref.extra_digest if ref else None}
              for seed, ref, rec in zip(run.seeds, run.reference, run.expected)]
    details = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(),
        "inputs": inputs,
        "setup_s_samples": run.setup_s,
        "calls": [{**{k: op[k] for k in ("input", "pass", "traced", "wall", "cpu")},
                   "steps": op["outcome"].steps} for op in run.ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in details["provenance"].items()))
    for item in inputs:
        print(f"# input seed={item['seed']} digest={item['digest']} "
              f"recorded={item['digest_recorded']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value} {unit}")
    result = {"correct": ok, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
