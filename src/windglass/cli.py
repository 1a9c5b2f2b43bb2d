"""Command-line surface: train, evaluate, benchmark, and explain.

Runs are driven by an INI-style config file (flat ``key = value`` pairs
under sections); any key can be overridden on the command line with
``--set section.key=value``, and the flag wins. Every command is
deterministic under a fixed seed and emits machine-readable CSV next to
its human-readable output.

Exit codes: 0 success, 2 usage error, 3 data error, 4 model-file error.
Feature names are UTF-8 in every locale, as in ``load_csv``; what the
console cannot encode is printed as backslash escapes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, explain, glassbox, metrics
from .data import (
    CsvSchema,
    DataSplit,
    SupervisedMatrix,
    bin_centers,
    build_exogenous_features,
    build_lag_features,
    check_fractions,
    chronological_split,
    load_csv,
    normalize_apply,
    normalize_fit_apply,
)
from .glassbox import GlassBoxModel, TrainConfig
from .model_io import ModelFormatError, load_model, save_model

MODEL_KINDS = ("windebm", "windebm-no-interactions", "lr", "rt", "pm")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything one run needs, assembled from file plus overrides."""

    data_path: str
    timestamp_column: str
    target_column: str
    timestamp_format: str = "iso8601"
    delimiter: str = ","
    exogenous_columns: tuple[str, ...] | None = None
    feature_mode: str = "lags"
    n_lags: int = 48
    horizon_steps: int = 1
    train_fraction: float = 0.8
    validation_fraction: float = 0.1
    test_fraction: float = 0.1
    model_kind: str = "windebm"
    train_config: TrainConfig = None
    out_dir: str = "out"
    model_file: str | None = None
    bench_models: tuple[str, ...] = ("windebm", "lr", "rt", "pm")
    bench_horizons: tuple[int, ...] = (1,)
    bench_repeats: int = 1

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.validation_fraction, self.test_fraction)

    def validate(self):
        if self.feature_mode not in ("lags", "exogenous"):
            raise UsageError(f"features.mode must be lags or exogenous, "
                             f"got {self.feature_mode!r}")
        if self.model_kind not in MODEL_KINDS:
            raise UsageError(f"model.kind must be one of {', '.join(MODEL_KINDS)}")
        if self.model_kind == "pm" and self.feature_mode != "lags":
            raise UsageError("the persistence model requires lag features")
        try:
            check_fractions(self.fractions)
        except ValueError as exc:
            raise UsageError(f"split.train, split.validation and split.test: {exc}") from None
        if self.timestamp_format not in ("iso8601", "epoch"):
            raise UsageError("data.timestamp_format must be iso8601 or epoch")
        if len(self.delimiter) != 1:
            raise UsageError(f"data.delimiter must be one character, got {self.delimiter!r}")
        if self.n_lags < 1 or self.horizon_steps < 1:
            raise UsageError("features.n_lags and features.horizon_steps must be >= 1")
        if not self.bench_models or not self.bench_horizons:
            raise UsageError("benchmark.models and benchmark.horizons must not be empty")
        for m in self.bench_models:
            if m not in MODEL_KINDS:
                raise UsageError(f"unknown benchmark model {m!r}")
        if min(self.bench_horizons) < 1:
            raise UsageError("benchmark.horizons must be >= 1")
        if self.bench_repeats < 1:
            raise UsageError("benchmark.repeats must be >= 1")


def _names(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _names(raw))


def _delimiter(raw: str) -> str:
    """``tab`` names a tab, which configparser strips from a value."""
    return "\t" if raw == "tab" else raw


# Every config key outside [train]: (section, key) -> (RunConfig field,
# parser of its text). Defaults are RunConfig's; [train] keys are
# TrainConfig's fields.
_KEYS = {
    ("data", "path"): ("data_path", str),
    ("data", "timestamp_column"): ("timestamp_column", str),
    ("data", "target_column"): ("target_column", str),
    ("data", "timestamp_format"): ("timestamp_format", str),
    ("data", "delimiter"): ("delimiter", _delimiter),
    ("data", "exogenous_columns"): ("exogenous_columns", _names),
    ("features", "mode"): ("feature_mode", str),
    ("features", "n_lags"): ("n_lags", int),
    ("features", "horizon_steps"): ("horizon_steps", int),
    ("split", "train"): ("train_fraction", float),
    ("split", "validation"): ("validation_fraction", float),
    ("split", "test"): ("test_fraction", float),
    ("model", "kind"): ("model_kind", str),
    ("output", "directory"): ("out_dir", str),
    ("output", "model_file"): ("model_file", str),
    ("benchmark", "models"): ("bench_models", _names),
    ("benchmark", "horizons"): ("bench_horizons", _ints),
    ("benchmark", "repeats"): ("bench_repeats", int),
}
_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
_SECTIONS = {section for section, _ in _KEYS} | {"train"}


def _parse_train_value(key: str, raw: str):
    if key == "interaction_budget":
        return raw if raw in ("auto", "all") else int(raw)
    return int(raw) if _TRAIN_FIELDS[key] == "int" else float(raw)


def read_run_config(path, overrides=()) -> RunConfig:
    """Parse the config file, apply --set overrides, and validate. A file
    that is not UTF-8 INI text is a usage error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    if not loaded:
        raise UsageError(f"cannot read config file: {path}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SECTIONS:  # configparser refuses to add [DEFAULT]
            raise UsageError(f"unknown config section [{section}]")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    for section in parser.sections():
        if section not in _SECTIONS:
            raise UsageError(f"unknown config section [{section}]")
        for key in parser[section]:
            known = key in _TRAIN_FIELDS if section == "train" else (section, key) in _KEYS
            if not known:
                raise UsageError(f"unknown config key {section}.{key}")

    def get(section, key):
        return parser.get(section, key, fallback=None)

    if not get("data", "path"):
        raise UsageError("config is missing data.path")
    if not get("data", "timestamp_column") or not get("data", "target_column"):
        raise UsageError("config is missing data.timestamp_column / data.target_column")

    try:
        train_kwargs = ({key: _parse_train_value(key, raw)
                         for key, raw in parser["train"].items()}
                        if parser.has_section("train") else {})
        cfg = RunConfig(
            train_config=TrainConfig(**train_kwargs),
            **{field: parse(get(section, key))
               for (section, key), (field, parse) in _KEYS.items()
               if parser.has_option(section, key)},
        )
        _schema(cfg)  # refuses a column named for two roles, before any data is read
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Shared pipeline steps
# ---------------------------------------------------------------------------

def _schema(cfg: RunConfig) -> CsvSchema:
    # Lag features read the target alone, so no other column is parsed
    # (and a bad value in one cannot drop a row).
    return CsvSchema(
        timestamp_column=cfg.timestamp_column,
        target_column=cfg.target_column,
        exogenous_columns=() if cfg.feature_mode == "lags" else cfg.exogenous_columns,
        timestamp_format=cfg.timestamp_format,
        delimiter=cfg.delimiter,
    )


def _load_frame(cfg: RunConfig):
    frame = load_csv(cfg.data_path, _schema(cfg))
    if frame.dropped_rows:
        print(f"note: dropped {frame.dropped_rows} invalid rows during ingestion")
    return frame


def _build_raw_matrix(cfg: RunConfig, frame, horizon: int | None = None) -> SupervisedMatrix:
    """The features of ``frame``, a :func:`_load_frame` of ``cfg``."""
    if cfg.feature_mode == "lags":
        return build_lag_features(frame, cfg.n_lags,
                                  cfg.horizon_steps if horizon is None else horizon)
    return build_exogenous_features(frame)


def _fit_kind(kind: str, matrix: SupervisedMatrix, split, tc: TrainConfig):
    """Train one model kind on a normalized matrix. Returns the model."""
    if kind == "windebm":
        return glassbox.train(matrix, split, tc)
    if kind == "windebm-no-interactions":
        return glassbox.train(matrix, split, replace(tc, interaction_budget=0))
    if kind == "lr":
        # OLS warns of a rank-deficient design (a constant series, say):
        # a note, so that a run under ``-W error`` still ends in its exit code.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            model = baselines.fit_ols(matrix, split.train)
        for w in caught:
            print(f"note: lr: {w.message}")
        return model
    if kind == "rt":
        return baselines.fit_rt_baseline(matrix, split.train,
                                         max_bins=tc.max_bins)
    if kind == "pm":
        return baselines.PersistenceModel.from_matrix(matrix)
    raise UsageError(f"unknown model kind {kind!r}")


def _uses_seed(kind: str, tc: TrainConfig) -> bool:
    """Whether ``_fit_kind`` draws on ``tc.seed``: only bagged glass-box
    fits do, so every other fit is the same for any seed."""
    return kind.startswith("windebm") and tc.bagging_count > 1


def clamp_unit(values: np.ndarray) -> np.ndarray:
    """Presentation-time clamp of forecasts to [0, 1]. Applied only at
    output so the additive breakdown stays exact."""
    return np.clip(values, 0.0, 1.0)


def _matrix_for_model(cfg: RunConfig, model) -> tuple[SupervisedMatrix, DataSplit]:
    """Rebuild the supervised matrix with the model's own normalization."""
    raw = _build_raw_matrix(cfg, _load_frame(cfg))
    split = chronological_split(raw.n_rows, cfg.fractions)
    if model.norm_params is None:
        raise ValueError("model file carries no normalization parameters")
    if len(model.feature_names) != raw.n_features:
        raise ValueError(
            f"model expects {len(model.feature_names)} features but the "
            f"configured data produces {raw.n_features}"
        )
    return normalize_apply(raw, model.norm_params), split


def _range_slice(split, name: str) -> slice:
    try:
        return {"train": split.train_slice, "val": split.val_slice,
                "test": split.test_slice}[name]
    except KeyError:
        raise UsageError(f"--range must be train, val, or test, got {name!r}") from None


def _write_csv(path: Path, header, rows):
    """Write the CSV file ``path``, named by its name's UTF-8 bytes in every locale."""
    path = os.path.join(os.fsencode(path.parent), path.name.encode("utf-8"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = read_run_config(args.config, args.set or ())
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    raw = _build_raw_matrix(cfg, _load_frame(cfg))
    split = chronological_split(raw.n_rows, cfg.fractions)
    matrix = normalize_fit_apply(raw, split.train)

    t0 = time.perf_counter()
    model = _fit_kind(cfg.model_kind, matrix, split, cfg.train_config)
    elapsed = time.perf_counter() - t0

    model_path = out / (cfg.model_file or f"{cfg.model_kind}.model.json")
    save_model(model, model_path)

    log_lines = [
        f"model_kind: {cfg.model_kind}",
        f"rows: {matrix.n_rows} features: {matrix.n_features}",
        f"split: train={split.train} val={split.val} test={split.test}",
        f"training_seconds: {elapsed:.3f}",
    ]
    if isinstance(model, GlassBoxModel):
        log_lines += [
            f"rounds_main: {model.rounds_main}",
            f"rounds_pairs: {model.rounds_pairs}",
            f"pairs: {[(p.i, p.j) for p in model.pairs]}",
            "validation_curve_main: "
            + " ".join(f"{v:.6f}" for v in model.val_curve_main),
            "validation_curve_pairs: "
            + " ".join(f"{v:.6f}" for v in model.val_curve_pairs),
        ]
    (out / "train.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"saved {model_path} (trained in {elapsed:.2f}s)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    cfg = read_run_config(args.config, args.set or ())
    matrix, split = _matrix_for_model(cfg, model)
    rows = _range_slice(split, args.range)

    X = matrix.X[rows]
    t0 = time.perf_counter()
    forecast = clamp_unit(model.predict(X))
    inference = time.perf_counter() - t0
    report = metrics.evaluate(forecast, matrix.y[rows])

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = report.to_record()
    _write_csv(out / "metrics.csv",
               [*record.keys(), "inference_seconds"],
               [[*record.values(), f"{inference:.6f}"]])
    print(f"{args.range}: {report}  inference={inference:.4f}s")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = read_run_config(args.config, args.set or ())
    repeats = args.repeats or cfg.bench_repeats
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.feature_mode == "lags":
        horizons = list(cfg.bench_horizons)
    else:
        horizons = [None]  # horizon fixed by the exogenous inputs

    frame = _load_frame(cfg)
    results = []  # (model, horizon_label, means, stds)
    timings = []
    for horizon in horizons:
        raw = _build_raw_matrix(cfg, frame, horizon)
        split = chronological_split(raw.n_rows, cfg.fractions)
        matrix = normalize_fit_apply(raw, split.train)
        label = str(horizon) if horizon is not None else "-"
        for kind in cfg.bench_models:
            if kind == "pm" and cfg.feature_mode != "lags":
                print("note: persistence skipped (needs lag features)")
                continue
            # A fit that ignores the seed is the same in every repeat:
            # score it once, so its means are exact and its stds 0.0.
            fits = repeats if _uses_seed(kind, cfg.train_config) else 1
            scores = []
            for rep in range(fits):
                tc = replace(cfg.train_config, seed=cfg.train_config.seed + rep)
                t0 = time.perf_counter()
                model = _fit_kind(kind, matrix, split, tc)
                t_fit = time.perf_counter() - t0
                t0 = time.perf_counter()
                forecast = clamp_unit(model.predict(matrix.X[split.test_slice]))
                t_pred = time.perf_counter() - t0
                rep_report = metrics.evaluate(forecast, matrix.y[split.test_slice])
                scores.append([rep_report.nrmse, rep_report.nmae, rep_report.r2])
                timings.append((kind, label, rep, t_fit, t_pred))
            timings += [(kind, label, rep, None, None) for rep in range(fits, repeats)]
            arr = np.asarray(scores)
            results.append((kind, label, arr.mean(axis=0), arr.std(axis=0)))

    header = ["model", "horizon_steps", "nrmse", "nmae", "r2",
              "nrmse_std", "nmae_std", "r2_std"]
    rows = [
        [kind, label, *(repr(v) for v in means), *(repr(v) for v in stds)]
        for kind, label, means, stds in results
    ]
    _write_csv(out / "benchmark.csv", header, rows)
    _write_csv(out / "timings.csv",
               ["model", "horizon_steps", "repeat", "train_seconds", "inference_seconds",
                "reused_repeat"],
               [[kind, label, rep, "", "", 0] if t_fit is None
                else [kind, label, rep, f"{t_fit:.6f}", f"{t_pred:.6f}", ""]
                for kind, label, rep, t_fit, t_pred in timings])

    widths = [10, 8, 18, 18, 18]
    lines = ["".join(h.ljust(w) for h, w in
                     zip(["model", "horizon", "nrmse", "nmae", "r2"], widths))]
    for kind, label, means, stds in results:
        cells = [kind, label]
        for mean, std in zip(means, stds):
            cells.append(f"{mean:.3f} +/- {std:.3f}" if repeats > 1 else f"{mean:.3f}")
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    table = "\n".join(lines)
    (out / "benchmark.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    for kind, label, rep, t_fit, t_pred in timings:
        if t_fit is None:
            print(f"timing: {kind} h={label} repeat={rep} "
                  "reused repeat=0 (the fit does not depend on the seed)")
        else:
            print(f"timing: {kind} h={label} repeat={rep} "
                  f"train={t_fit:.3f}s inference={t_pred:.3f}s")
    return EXIT_OK


def _feature(model, name) -> int:
    """Column of the feature ``name`` from the command line, read as UTF-8 like
    ``load_csv``'s headers; a missing or unknown name is a usage error."""
    if name is None:
        raise UsageError("--feature is required for shape and pdp explanations")
    with contextlib.suppress(UnicodeError):  # not from argv, or not UTF-8: as given
        name = os.fsencode(name).decode("utf-8")
    try:
        return explain._resolve_feature(model, name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _pair(model, text):
    """The interaction term of ``--pair a,b``; a malformed or unknown
    pair, or one the model has no grid for, is a usage error."""
    try:
        a, b = (s.strip() for s in text.split(","))
    except (AttributeError, ValueError):
        raise UsageError("--pair expects two feature names: a,b") from None
    pair = _feature(model, a), _feature(model, b)
    try:
        return explain._pair_term(model, pair)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_glassbox(model, mode):
    if not isinstance(model, GlassBoxModel):
        raise UsageError(f"explain mode {mode!r} requires a glass-box model file")


def _pdp_grid(model, matrix, feature):
    if isinstance(model, (GlassBoxModel, baselines.RTBaseline)):
        return bin_centers(model.bins, feature)
    qs = np.linspace(0.0, 1.0, 33)
    return np.unique(np.quantile(matrix.X[:, feature], qs))


def cmd_explain(args) -> int:
    model = load_model(args.model)
    cfg = read_run_config(args.config, args.set or ())
    matrix, split = _matrix_for_model(cfg, model)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = tuple(model.feature_names)
    mode = args.mode
    if mode == "global":
        _require_glassbox(model, mode)
        report = explain.global_importance(model, matrix.X[split.train_slice])
        _write_csv(out / "importance.csv", ["term", "mean_abs_contribution"],
                   [[t, repr(s)] for t, s in report.terms])
        (out / "importance.txt").write_text(report.as_text() + "\n", encoding="utf-8")
        print(report.as_text())
    elif mode == "local":
        _require_glassbox(model, mode)
        if args.row is None:
            raise UsageError("--row is required for local explanations")
        rows = _range_slice(split, args.range)
        X = matrix.X[rows]
        y = matrix.y[rows]
        if not 0 <= args.row < len(X):
            raise UsageError(f"--row must be in [0, {len(X)})")
        exp = explain.local_explanation(model, X[args.row], actual=y[args.row])
        _write_csv(out / "breakdown.csv", ["term", "contribution"],
                   [["intercept", repr(exp.intercept)]]
                   + [[t, repr(v)] for t, v in exp.contributions])
        print(exp.as_text())
    elif mode == "shape":
        _require_glassbox(model, mode)
        f = _feature(model, args.feature)
        curve = explain.export_shape(model, f, denormalize=args.denormalize)
        path = out / f"shape_{names[f]}.csv"
        _write_csv(path, ["bin_center", "value"],
                   [[repr(float(x)), repr(float(v))] for x, v in zip(curve.x, curve.values)])
        print(f"wrote {path} ({len(curve.x)} bins)")
    elif mode == "heatmap":
        _require_glassbox(model, mode)
        pt = _pair(model, args.pair)
        curve = explain.export_pair_heatmap(model, (pt.i, pt.j),
                                            denormalize=args.denormalize)
        path = out / f"heatmap_{names[pt.i]}_{names[pt.j]}.csv"
        _write_csv(path, ["row", "col", "value"],
                   [[repr(float(curve.x[r])), repr(float(curve.y[c])),
                     repr(float(curve.values[r, c]))]
                    for r in range(len(curve.x)) for c in range(len(curve.y))])
        print(f"wrote {path} ({curve.values.shape[0]}x{curve.values.shape[1]} grid)")
    elif mode == "pdp":
        f = _feature(model, args.feature)
        grid = _pdp_grid(model, matrix, f)
        curve = explain.pdp(model.predict, matrix.X[split.train_slice], f, grid)
        path = out / f"pdp_{names[f]}.csv"
        _write_csv(path, ["bin_center", "value"],
                   [[repr(float(x)), repr(float(v))] for x, v in zip(curve.x, curve.values)])
        print(f"wrote {path} (range {explain.pdp_importance(curve):.4f})")
    elif mode == "pfi":
        rows = _range_slice(split, args.range)
        result = explain.pfi(model.predict, matrix.X[rows], matrix.y[rows],
                             n_repeats=args.repeats or 5,
                             seed=cfg.train_config.seed,
                             feature_names=names)
        _write_csv(out / "pfi.csv", ["feature", "importance", "std"],
                   [[n, repr(float(v)), repr(float(s))] for n, v, s in
                    zip(names, result.importances, result.stds)])
        for n in result.ordering():
            k = names.index(n)
            print(f"{n}: {result.importances[k]:+.5f} +/- {result.stds[k]:.5f}")
    else:
        raise UsageError(f"unknown explain mode {mode!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _repeat_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windglass",
        description="Glass-box wind power forecasting: train, evaluate, "
                    "benchmark, and explain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config file (INI)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable; flag wins)")

    p = sub.add_parser("train", help="fit a model and save it")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model")
    common(p)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--range", default="test", help="train | val | test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="models x horizons metric grid")
    common(p)
    p.add_argument("--repeats", type=_repeat_count, default=None,
                   help="average this many seed-shifted runs; a kind whose "
                        "fit ignores the seed is fitted once and reused")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("explain", help="global/local explanations and exports")
    common(p)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--mode", required=True,
                   choices=["global", "local", "shape", "heatmap", "pdp", "pfi"])
    p.add_argument("--row", type=int, default=None, help="row for local mode")
    p.add_argument("--feature", default=None, help="feature name")
    p.add_argument("--pair", default=None, help="pair for heatmap: a,b")
    p.add_argument("--range", default="test", help="row range: train | val | test")
    p.add_argument("--repeats", type=_repeat_count, default=None, help="pfi repeats")
    p.add_argument("--denormalize", action="store_true",
                   help="report axis values in raw units")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if hasattr(sys.stdout, "reconfigure"):  # not on a caller's StringIO
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
