"""The four benchmark workloads.

Each workload is a closed loop with one client: ``setup(seed)`` builds
one input from its seed alone, ``op(state)`` is the timed call on it
and returns its raw outputs, and ``check(state, out)`` verifies them
outside the timed region and returns an :class:`Outcome` whose
``digest`` must repeat for the same seed. A run cycles through the
inputs of :func:`input_seeds`. Only the public ``windglass`` API and
``windglass.cli.main`` are called.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import hashlib
import io
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

import windglass as wg
from windglass import cli

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps
# every code path but runs in well under a second per operation, for
# the smoke test. "inputs" is how many inputs one run draws from its
# seed (see input_seeds).
SCALES = {
    "full": {
        "inputs": 4,
        "boost_rows": 2_000, "boost_rounds": 6,
        "lags_rows": 1_000, "lags_rounds": 1,
        "serve_rows": 3_000, "serve_setup_rounds": 4,
        "serve_predict_rows": 10_000, "serve_batch": 1_000,
        "serve_breakdowns": 100, "serve_pfi_repeats": 1, "serve_pdp_points": 10,
        "cli_rows": 300, "cli_lags": 13, "cli_rounds": 1, "cli_repeats": 2,
    },
    "tiny": {
        "inputs": 2,
        "boost_rows": 1_000, "boost_rounds": 3,
        "lags_rows": 600, "lags_rounds": 2,
        "serve_rows": 600, "serve_setup_rounds": 2,
        "serve_predict_rows": 2_000, "serve_batch": 200,
        "serve_breakdowns": 50, "serve_pfi_repeats": 1, "serve_pdp_points": 5,
        "cli_rows": 120, "cli_lags": 13, "cli_rounds": 1, "cli_repeats": 2,
    },
}

PAPER_LEARNING_RATE = 0.001
# A 40% test split keeps the CLI workload's test NRMSE from hanging on
# a few hundred autocorrelated rows.
CLI_FRACTIONS = (0.5, 0.1, 0.4)
N_LAGS = 48
HORIZON = 2


@dataclass
class Outcome:
    """What one checked operation produced."""

    digest: str                      # must repeat for the same seed
    test_nrmse: float                # glass-box model, test split
    mean_nrmse: float                # training-mean forecast, same test split
    extra_digest: str = ""           # outputs not in the recorded digest
    steps: dict = field(default_factory=dict)     # wall time of each step of the call, s
    timings: dict = field(default_factory=dict)   # phase wall times, s
    latencies: list = field(default_factory=list)  # per-call latencies, s


class CheckError(Exception):
    """An operation's output is wrong."""


class Laps:
    """Wall times of the consecutive steps of one call; together they
    cover it from construction to the last lap."""

    def __init__(self):
        self.steps: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, step: str):
        now = time.perf_counter()
        self.steps[step] = now - self._last
        self._last = now


def input_seeds(seed: int, inputs: int) -> list[int]:
    """The seeds of the inputs that run ``seed`` draws; no two runs share one."""
    return [seed * inputs + k for k in range(inputs)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixed_rounds(rounds: int, **kw) -> wg.TrainConfig:
    """A config whose work is constant: early stopping can never fire."""
    return wg.TrainConfig(max_rounds=rounds, early_stop_patience=rounds, **kw)


def _test_nrmse(model, matrix, split) -> float:
    rows = split.test_slice
    forecast = np.clip(model.predict(matrix.X[rows]), 0.0, 1.0)
    return wg.evaluate(forecast, matrix.y[rows]).nrmse


def _mean_nrmse(matrix, split) -> float:
    """Test NRMSE of forecasting the training target mean: the per-seed
    scale that ``nrmse_ratio`` divides out."""
    actual = matrix.y[split.test_slice]
    return wg.evaluate(np.full(len(actual), matrix.y[split.train_slice].mean()),
                       actual).nrmse


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def write_series_csv(path, frame):
    """Hourly per-unit power CSV with ISO timestamps and full-precision values."""
    start = dt.datetime(2012, 1, 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "power"])
        for ts, y in zip(frame.timestamps, frame.target):
            stamp = start + dt.timedelta(seconds=float(ts))
            writer.writerow([stamp.isoformat(), repr(float(y))])


class Workload:
    """Base class; the reason for each workload is in BENCHMARK.json."""

    name = ""

    def __init__(self, sizes: dict, workdir):
        self.sizes = sizes
        self.workdir = workdir

    def setup(self, seed: int):
        raise NotImplementedError

    def setup_digest(self, state) -> str:
        """Fingerprint of the set-up result; equal for every set-up of a seed."""
        raise NotImplementedError

    def op(self, state):
        raise NotImplementedError

    def check(self, state, out) -> Outcome:
        raise NotImplementedError


class BoostPairs(Workload):
    name = "boost-pairs"

    def setup(self, seed):
        raw = wg.make_interaction_data(self.sizes["boost_rows"], 6, seed=seed)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        config = _fixed_rounds(self.sizes["boost_rounds"],
                               learning_rate=PAPER_LEARNING_RATE,
                               interaction_budget="all")
        return {"matrix": matrix, "split": split, "config": config}

    def setup_digest(self, state):
        m = state["matrix"]
        return _sha(m.X.tobytes() + m.y.tobytes())

    def op(self, state):
        laps = Laps()
        model = wg.train(state["matrix"], state["split"], state["config"])
        laps.lap("train")
        return {"model": model, "steps": laps.steps}

    def check(self, state, out):
        model, rounds = out["model"], state["config"].max_rounds
        _require(model.rounds_main == rounds and model.rounds_pairs == rounds,
                 f"expected {rounds} rounds per stage, got "
                 f"{model.rounds_main}/{model.rounds_pairs}")
        _require(len(model.pairs) == 15, f"expected 15 pairs, got {len(model.pairs)}")
        path = self.workdir / "boost-pairs.model.json"
        wg.save_model(model, path)
        return Outcome(digest=_sha(path.read_bytes()),
                       test_nrmse=_test_nrmse(model, state["matrix"], state["split"]),
                       mean_nrmse=_mean_nrmse(state["matrix"], state["split"]),
                       steps=out["steps"], timings={"train_s": out["steps"]["train"]})


class Lags48(Workload):
    name = "lags-48"

    def setup(self, seed):
        frame = wg.make_autocorrelated_series(self.sizes["lags_rows"], seed=seed)
        path = self.workdir / f"series-{seed}.csv"
        write_series_csv(path, frame)
        config = _fixed_rounds(self.sizes["lags_rounds"],
                               learning_rate=PAPER_LEARNING_RATE)
        return {"csv": path, "config": config,
                "model_path": self.workdir / f"lags-48-{seed}.model.json"}

    def setup_digest(self, state):
        return _sha(state["csv"].read_bytes())

    def op(self, state):
        laps = Laps()
        frame = wg.load_csv(state["csv"], wg.CsvSchema("time", "power"))
        raw = wg.build_lag_features(frame, N_LAGS, HORIZON)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        bins = wg.fit_bins(matrix.X, split.train, state["config"].max_bins)
        laps.lap("ingest")
        model = wg.train(matrix, split, state["config"], bins=bins)
        laps.lap("train")
        wg.save_model(model, state["model_path"])
        laps.lap("save")
        loaded = wg.load_model(state["model_path"])
        laps.lap("load")
        rows = split.test_slice
        report = wg.evaluate(np.clip(loaded.predict(matrix.X[rows]), 0.0, 1.0),
                             matrix.y[rows])
        laps.lap("evaluate")
        return {"model": model, "loaded": loaded, "matrix": matrix, "split": split,
                "report": report, "steps": laps.steps}

    def check(self, state, out):
        model, loaded, matrix = out["model"], out["loaded"], out["matrix"]
        rounds = state["config"].max_rounds
        _require(model.rounds_main == rounds and model.rounds_pairs == rounds,
                 "fixed round count not honoured")
        _require(len(model.pairs) == 10, f"expected 10 pairs, got {len(model.pairs)}")
        _require(np.array_equal(model.predict(matrix.X), loaded.predict(matrix.X)),
                 "reloaded model does not predict bit-identically")
        nrmse = _test_nrmse(model, matrix, out["split"])
        _require(nrmse == out["report"].nrmse, "evaluate disagrees with the check")
        return Outcome(digest=_sha(state["model_path"].read_bytes()), test_nrmse=nrmse,
                       mean_nrmse=_mean_nrmse(matrix, out["split"]),
                       steps=out["steps"],
                       timings={"train_s": out["steps"]["train"],
                                "pipeline_s": sum(out["steps"].values())})


class ServeExplain(Workload):
    name = "serve-explain"

    def setup(self, seed):
        s = self.sizes
        frame = wg.make_autocorrelated_series(s["serve_rows"], seed=seed)
        raw = wg.build_lag_features(frame, N_LAGS, HORIZON)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        model = wg.train(matrix, split,
                         _fixed_rounds(s["serve_setup_rounds"],
                                       learning_rate=PAPER_LEARNING_RATE))
        batch = s["serve_batch"]
        n_batches = s["serve_predict_rows"] // batch
        starts = [(b * batch) % (matrix.n_rows - batch) for b in range(n_batches)]
        X_test = matrix.X[split.test_slice]
        y_test = matrix.y[split.test_slice]
        rows = [X_test[k % len(X_test)] for k in range(s["serve_breakdowns"])]
        return {"model": model, "matrix": matrix, "split": split, "seed": seed,
                "batches": [matrix.X[a:a + batch] for a in starts],
                "rows": rows, "X_test": X_test, "y_test": y_test,
                "grid": np.linspace(0.0, 1.0, s["serve_pdp_points"])}

    def setup_digest(self, state):
        return _sha(pickle.dumps(state["model"]))

    def op(self, state):
        model = state["model"]
        laps = Laps()
        preds = [model.predict(X) for X in state["batches"]]
        laps.lap("predict")

        forecasts = np.empty(len(state["rows"]))
        latencies = np.empty(len(state["rows"]))
        for k, row in enumerate(state["rows"]):
            t = time.perf_counter()
            forecasts[k] = model.predict_with_breakdown(row)[0]
            latencies[k] = time.perf_counter() - t
        laps.lap("breakdowns")

        importance = wg.pfi(model.predict, state["X_test"], state["y_test"],
                            n_repeats=self.sizes["serve_pfi_repeats"],
                            seed=state["seed"], feature_names=model.feature_names)
        laps.lap("pfi")
        curve = wg.pdp(model.predict, state["X_test"], 0, state["grid"])
        laps.lap("pdp")
        return {"preds": preds, "forecasts": forecasts, "latencies": latencies,
                "importance": importance, "curve": curve, "steps": laps.steps}

    def check(self, state, out):
        model = state["model"]
        preds = np.concatenate(out["preds"])
        _require(len(preds) == self.sizes["serve_predict_rows"], "prediction count")
        _require(bool(np.all(np.isfinite(preds))), "non-finite prediction")
        rows = np.vstack(state["rows"])
        _require(np.array_equal(out["forecasts"], model.predict(rows)),
                 "breakdown forecast differs from predict")
        for row in state["rows"][:20]:
            forecast, intercept, terms = model.predict_with_breakdown(row)
            total = intercept
            for _, v in terms:
                total += v
            _require(total == forecast, "breakdown is not exactly additive")
        extra = _sha(out["importance"].importances.tobytes()
                     + out["curve"].values.tobytes() + out["forecasts"].tobytes())
        return Outcome(digest=_sha(preds.tobytes()), extra_digest=extra,
                       test_nrmse=_test_nrmse(model, state["matrix"], state["split"]),
                       mean_nrmse=_mean_nrmse(state["matrix"], state["split"]),
                       steps=out["steps"],
                       timings={"predict_s": out["steps"]["predict"],
                                "pfi_s": out["steps"]["pfi"] + out["steps"]["pdp"]},
                       latencies=out["latencies"].tolist())


def _csv_float(cell: str) -> float:
    """A benchmark.csv number; under numpy 2 the CLI writes ``np.float64(x)``."""
    return float(cell.removeprefix("np.float64(").removesuffix(")"))


class CliBenchmark(Workload):
    name = "cli-benchmark"

    def setup(self, seed):
        s = self.sizes
        frame = wg.make_autocorrelated_series(s["cli_rows"], seed=seed)
        csv_path = self.workdir / f"cli-series-{seed}.csv"
        write_series_csv(csv_path, frame)
        out_dir = self.workdir / f"cli-out-{seed}"
        config = self.workdir / f"cli-run-{seed}.cfg"
        config.write_text(
            "[data]\n"
            f"path = {csv_path}\n"
            "timestamp_column = time\n"
            "target_column = power\n\n"
            "[features]\nmode = lags\n"
            f"n_lags = {s['cli_lags']}\nhorizon_steps = 1\n\n"
            "[split]\n"
            f"train = {CLI_FRACTIONS[0]}\nvalidation = {CLI_FRACTIONS[1]}\n"
            f"test = {CLI_FRACTIONS[2]}\n\n"
            "[model]\nkind = windebm\n\n"
            "[train]\n"
            f"learning_rate = {PAPER_LEARNING_RATE}\n"
            f"max_rounds = {s['cli_rounds']}\n"
            f"early_stop_patience = {s['cli_rounds']}\n"
            f"seed = {seed}\n\n"
            f"[output]\ndirectory = {out_dir}\n\n"
            "[benchmark]\nmodels = windebm,lr,rt,pm\nhorizons = 1,4\n")
        # The CLI's horizon-1 matrix, rebuilt in memory for the reference NRMSE.
        raw = wg.build_lag_features(frame, s["cli_lags"], 1)
        split = wg.chronological_split(raw.n_rows, CLI_FRACTIONS)
        mean_nrmse = _mean_nrmse(wg.normalize_fit_apply(raw, split.train), split)
        return {"config": config, "csv": csv_path, "out": out_dir / "benchmark.csv",
                "mean_nrmse": mean_nrmse,
                "argv": ["benchmark", "--config", str(config),
                         "--repeats", str(s["cli_repeats"])]}

    def setup_digest(self, state):
        return _sha(state["csv"].read_bytes())

    def op(self, state):
        state["out"].unlink(missing_ok=True)
        stdout = io.StringIO()
        laps = Laps()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(state["argv"])
        laps.lap("benchmark")
        return {"code": code, "steps": laps.steps}

    def check(self, state, out):
        _require(out["code"] == 0, f"windglass benchmark exited {out['code']}")
        data = state["out"].read_bytes()
        with open(state["out"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = sorted((r["model"], r["horizon_steps"]) for r in rows)
        want = sorted((m, h) for m in ("windebm", "lr", "rt", "pm") for h in ("1", "4"))
        _require(got == want, f"unexpected benchmark rows {got}")
        nrmse = [_csv_float(r["nrmse"]) for r in rows
                 if r["model"] == "windebm" and r["horizon_steps"] == "1"][0]
        return Outcome(digest=_sha(data), test_nrmse=nrmse,
                       mean_nrmse=state["mean_nrmse"], steps=out["steps"],
                       timings={"benchmark_s": out["steps"]["benchmark"]})


WORKLOADS = {cls.name: cls for cls in (BoostPairs, Lags48, ServeExplain, CliBenchmark)}
