"""CLI surface tests: config handling, commands, exit codes, and
byte-level determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import windglass as wg
from windglass import cli
from windglass.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from conftest import resign_model_file, write_series_csv

BASE_CONFIG = """\
[data]
path = {csv}
timestamp_column = time
target_column = power

[features]
mode = lags
n_lags = 4
horizon_steps = 1

[model]
kind = windebm

[train]
learning_rate = 0.05
max_rounds = 50
early_stop_patience = 10
max_bins = 32
pair_bins = 8
seed = 0

[output]
directory = {out}

[benchmark]
models = windebm-no-interactions,lr,rt,pm
horizons = 1,4
"""


@pytest.fixture
def run_dir(tmp_path):
    frame = wg.make_autocorrelated_series(1200, seed=6)
    csv_path = write_series_csv(tmp_path / "wind.csv", frame.timestamps,
                                frame.target)
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CONFIG.format(csv=csv_path, out=out))
    return tmp_path, cfg, out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def numeric_cells(rows, first):
    """Every cell from column ``first`` on, parsed by ``float``, which
    rejects anything but a plain number (``np.float64(0.5)`` included)."""
    return [float(c) for row in rows for c in row[first:]]


class TestTrain:
    def test_train_writes_model_and_log(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert (out / "windebm.model.json").exists()
        log = (out / "train.log").read_text()
        assert "rounds_main:" in log
        assert "training_seconds:" in log

    def test_rerun_same_seed_identical_model_bytes(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        first = (out / "windebm.model.json").read_bytes()
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert (out / "windebm.model.json").read_bytes() == first

    def test_unknown_config_key_is_usage_error(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "train.bogus=1"]) == EXIT_USAGE

    @pytest.mark.parametrize("setting", [
        "train.max_rounds=abc", "train.learning_rate=fast",
        "train.interaction_budget=some", "features.n_lags=abc",
    ])
    def test_unparseable_config_value_is_usage_error(self, run_dir, setting, capsys):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg), "--set", setting]) == EXIT_USAGE
        assert "bad config value" in capsys.readouterr().err

    def test_huge_max_bins_trains(self, run_dir):
        """A ``max_bins`` above the row count gives every distinct value
        its own bin and sizes no array by ``max_bins``; it used to ask
        numpy for petabytes."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", "model.kind=rt",
                     "--set", f"train.max_bins={10 ** 15}"]) == EXIT_OK
        assert wg.load_model(out / "rt.model.json").bins.max_bins == 10 ** 15

    def test_bad_tree_setting_is_usage_error(self, run_dir, capsys):
        """A tree setting TrainConfig refuses is a bad config value,
        found before the data are read."""
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "train.main_depth=-1"]) == EXIT_USAGE
        assert "bad config value" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "train.learning_rate=nan", "train.learning_rate=inf",
        "train.early_stop_tol=nan", "train.early_stop_tol=inf",
    ])
    def test_non_finite_train_value_is_usage_error(self, run_dir, setting, capsys):
        """TrainConfig refuses a non-finite float, which would otherwise
        train a model with a NaN intercept or an early stop that ignores
        the validation curve."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", setting]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "windebm.model.json").exists()

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_of_other_than_one_character_is_usage_error(self, run_dir,
                                                                    delimiter, capsys):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", f"data.delimiter={delimiter}"]) == EXIT_USAGE
        assert "data.delimiter must be one character" in capsys.readouterr().err

    def test_tab_delimiter(self, run_dir, tmp_path):
        """``delimiter = tab`` reads a tab-separated file (configparser
        strips a literal tab); it trains the comma-separated file's model."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        comma = (out / "windebm.model.json").read_bytes()
        frame = wg.make_autocorrelated_series(1200, seed=6)
        tsv = write_series_csv(tmp_path / "wind.tsv", frame.timestamps, frame.target,
                               delimiter="\t")
        cfg.write_text(cfg.read_text().replace(
            "target_column = power\n", "target_column = power\ndelimiter = tab\n"))
        assert main(["train", "--config", str(cfg), "--set", f"data.path={tsv}"]) == EXIT_OK
        assert (out / "windebm.model.json").read_bytes() == comma

    def test_negative_seed_with_bagging_is_usage_error(self, run_dir, capsys):
        """A bagged fit cannot seed its draws with a negative seed: exit
        2 before training. Without bagging the seed is unused and trains."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", "train.seed=-3",
                     "--set", "train.bagging_count=2"]) == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (out / "windebm.model.json").exists()
        assert main(["train", "--config", str(cfg), "--set", "train.seed=-3"]) == EXIT_OK

    def test_lag_mode_reads_only_timestamp_and_target(self, tmp_path, capsys):
        """In lag mode another column's bad value drops no row: every
        lag window is kept and the model is the one trained without it."""
        frame = wg.make_autocorrelated_series(200, seed=6)
        note = np.zeros(200)
        paths = {}
        for name, extra in (("plain", {}), ("noted", {"note": note})):
            csv_path = write_series_csv(tmp_path / f"{name}.csv", frame.timestamps,
                                        frame.target, extra)
            paths[name] = csv_path
        lines = paths["noted"].read_text().splitlines()
        lines[50] = lines[50].rsplit(",", 1)[0] + ",n/a"
        paths["noted"].write_text("\n".join(lines) + "\n")
        models = {}
        for name, csv_path in paths.items():
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(BASE_CONFIG.format(csv=csv_path, out=out))
            assert main(["train", "--config", str(cfg)]) == EXIT_OK
            models[name] = (out / "windebm.model.json").read_bytes()
        assert "dropped" not in capsys.readouterr().out
        assert models["noted"] == models["plain"]

    @pytest.mark.parametrize("setting", [
        "split.train=0.9", "split.train=nan", "split.validation=inf",
        "split.test=-inf", "split.test=0",
    ])
    def test_bad_split_fraction_is_usage_error(self, run_dir, setting, capsys):
        """``RunConfig.validate`` applies ``chronological_split``'s rule:
        the run exits 2 before the data file (here a missing one, which
        would exit 3) is read."""
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg), "--set", "data.path=/nope.csv",
                     "--set", setting]) == EXIT_USAGE
        assert "fractions must" in capsys.readouterr().err

    def test_missing_data_file_is_data_error(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "data.path=/nope.csv"]) == EXIT_DATA

    def test_short_csv_row_is_data_error(self, run_dir, capsys):
        tmp_path, cfg, _ = run_dir
        with open(tmp_path / "wind.csv", "a") as fh:
            fh.write("2020-01-01 01:00:00\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "line 1202" in capsys.readouterr().err

    def test_target_named_twice_in_header_is_data_error(self, run_dir, capsys):
        tmp_path, cfg, _ = run_dir
        lines = (tmp_path / "wind.csv").read_text().splitlines()
        lines[0] += ",power"
        (tmp_path / "wind.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "column 'power' is named twice" in capsys.readouterr().err

    def test_oversized_csv_cell_is_data_error(self, run_dir, capsys):
        tmp_path, cfg, _ = run_dir
        with open(tmp_path / "wind.csv", "a") as fh:
            fh.write(f"2020-01-01 01:00:00,{'9' * 200_000}\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "line 1202: field larger than field limit" in capsys.readouterr().err

    def test_values_spanning_more_than_the_largest_float_are_data_error(self, run_dir,
                                                                        capsys):
        """Lags of 1e308 and -1e308 cannot be min-max scaled: exit 3
        naming the column, not an overflow warning and NaN features."""
        tmp_path, cfg, _ = run_dir
        lines = (tmp_path / "wind.csv").read_text().splitlines()
        for k, value in ((10, "1e308"), (20, "-1e308")):
            lines[k] = lines[k].split(",")[0] + "," + value
        (tmp_path / "wind.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "spans more than the largest float" in capsys.readouterr().err

    def test_rank_deficient_ols_fit_is_a_note(self, run_dir, capsys):
        """A constant series makes the OLS design rank-deficient: the
        fit's warning is printed as a note, so the run exits 0 though
        warnings are errors here."""
        tmp_path, cfg, out = run_dir
        lines = (tmp_path / "wind.csv").read_text().splitlines()
        lines[1:] = [line.split(",")[0] + ",0.5" for line in lines[1:]]
        (tmp_path / "wind.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr"]) == EXIT_OK
        assert "note: lr: rank-deficient design" in capsys.readouterr().out
        assert (out / "lr.model.json").exists()

    def test_non_finite_timestamp_is_data_error(self, run_dir, capsys):
        tmp_path, cfg, _ = run_dir
        frame = wg.make_autocorrelated_series(1200, seed=6)
        rows = [f"{t:.0f},{y:.17g}" for t, y in zip(frame.timestamps, frame.target)]
        rows[600] = "nan" + rows[600][rows[600].index(","):]
        (tmp_path / "epoch.csv").write_text("time,power\n" + "\n".join(rows) + "\n")
        assert main(["train", "--config", str(cfg),
                     "--set", f"data.path={tmp_path / 'epoch.csv'}",
                     "--set", "data.timestamp_format=epoch"]) == EXIT_DATA
        assert "non-finite timestamps" in capsys.readouterr().err

    def test_pm_with_exogenous_mode_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "features.mode=exogenous",
                     "--set", "model.kind=pm"]) == EXIT_USAGE

    @pytest.mark.parametrize("columns", ["power", "wind,power", "time"])
    def test_target_or_timestamp_as_exogenous_is_usage_error(self, run_dir, columns, capsys):
        """A column named for two roles is refused before any data is
        read: even with no data file, the exit code is the config's."""
        tmp, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr",
                     "--set", "features.mode=exogenous",
                     "--set", f"data.exogenous_columns={columns}",
                     "--set", f"data.path={tmp / 'missing.csv'}"]) == EXIT_USAGE
        assert "is named for two roles" in capsys.readouterr().err
        assert not out.exists()

    def test_override_flag_wins(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "model.kind=lr"]) == EXIT_OK
        assert (out / "lr.model.json").exists()


class TestEvaluate:
    def test_metrics_match_library_path(self, run_dir):
        """No drift between the CLI metrics and metrics.evaluate."""
        _, cfg, out = run_dir
        main(["train", "--config", str(cfg), "--set", "model.kind=lr"])
        model_path = out / "lr.model.json"
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(model_path)]) == EXIT_OK
        rows = read_csv(out / "metrics.csv")
        record = dict(zip(rows[0], rows[1]))

        model = wg.load_model(model_path)
        frame = wg.make_autocorrelated_series(1200, seed=6)
        raw = wg.build_lag_features(frame, 4, 1)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_apply(raw, model.norm_params)
        te = split.test_slice
        expected = wg.evaluate(np.clip(model.predict(matrix.X[te]), 0, 1),
                               matrix.y[te])
        assert float(record["nrmse"]) == pytest.approx(expected.nrmse, abs=1e-9)
        assert float(record["nmae"]) == pytest.approx(expected.nmae, abs=1e-9)
        assert float(record["r2"]) == pytest.approx(expected.r2, abs=1e-9)

    def test_identity_forecast_fixture(self, tmp_path):
        """Target equals the exogenous column: OLS scores (0, 0, 1)."""
        rng = np.random.default_rng(1)
        y = rng.uniform(0.05, 0.95, size=300)
        csv_path = write_series_csv(tmp_path / "id.csv",
                                    np.arange(300) * 3600.0, y,
                                    exogenous={"copy": y})
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG.format(csv=csv_path, out=out)
                       .replace("mode = lags", "mode = exogenous")
                       .replace("kind = windebm", "kind = lr"))
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(out / "lr.model.json")]) == EXIT_OK
        rows = read_csv(out / "metrics.csv")
        record = dict(zip(rows[0], rows[1]))
        assert float(record["nrmse"]) < 1e-8
        assert float(record["nmae"]) < 1e-8
        assert float(record["r2"]) > 1 - 1e-8

    def test_corrupt_model_file_is_model_error(self, run_dir, tmp_path):
        _, cfg, _ = run_dir
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(bad)]) == EXIT_MODEL

    def test_malformed_checksummed_model_is_model_error(self, run_dir):
        """A file that passes the checksum but lacks a field exits 4."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr"]) == EXIT_OK
        path = out / "lr.model.json"
        resign_model_file(path, lambda doc: doc.pop("intercept"))
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(path)]) == EXIT_MODEL

    def test_boolean_format_version_is_model_error(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr"]) == EXIT_OK
        path = out / "lr.model.json"
        resign_model_file(path, lambda doc: doc.update(format_version=True))
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(path)]) == EXIT_MODEL

    @pytest.mark.parametrize("kind, edit", [
        ("windebm", lambda doc: doc.update(intercept=str(doc["intercept"]))),
        ("windebm", lambda doc: doc["metadata"].update(rounds_main=1.5)),
        ("windebm", lambda doc: doc["feature_names"].__setitem__(0, 7)),
        ("windebm", lambda doc: doc["metadata"].update(rounds_main=float("inf"))),
        ("rt", lambda doc: doc["tree"]["params"].update(split_criterion="sse")),
        ("rt", lambda doc: doc["tree"]["threshold"].__setitem__(0, float("inf"))),
    ], ids=["string_intercept", "fractional_rounds", "numeric_feature_name",
            "infinite_rounds", "sse_tree", "infinite_threshold"])
    def test_resigned_model_not_written_back_is_model_error(self, run_dir, kind, edit):
        """A re-signed file whose model does not write it back exits 4,
        as does one whose integer field overflows ``int``."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg), "--set", f"model.kind={kind}"]) == EXIT_OK
        path = out / f"{kind}.model.json"
        resign_model_file(path, edit)
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(path)]) == EXIT_MODEL

    def test_unsorted_bin_edges_are_model_error(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        path = out / "windebm.model.json"
        resign_model_file(path, lambda doc: doc["bin_edges"][0].reverse())
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(path)]) == EXIT_MODEL

    @pytest.mark.parametrize("key, value", [
        ("max_rounds", True), ("interaction_budget", 2.5), ("seed", 1.0),
    ], ids=["bool_rounds", "fractional_budget", "float_seed"])
    def test_config_value_of_the_wrong_type_is_model_error(self, run_dir, key, value):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        path = out / "windebm.model.json"
        resign_model_file(path, lambda doc: doc["metadata"]["config"].update({key: value}))
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(path)]) == EXIT_MODEL

    def test_deeply_nested_model_file_is_model_error(self, run_dir, tmp_path):
        _, cfg, _ = run_dir
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 2000 + "]" * 2000)
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(deep)]) == EXIT_MODEL

    def test_mismatched_dimensions_is_data_error(self, run_dir):
        _, cfg, out = run_dir
        main(["train", "--config", str(cfg), "--set", "model.kind=lr"])
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(out / "lr.model.json"),
                     "--set", "features.n_lags=6"]) == EXIT_DATA


class TestBenchmark:
    def test_grid_shape_and_determinism(self, run_dir):
        _, cfg, out = run_dir
        assert main(["benchmark", "--config", str(cfg)]) == EXIT_OK
        first = (out / "benchmark.csv").read_bytes()
        rows = read_csv(out / "benchmark.csv")
        assert rows[0][:5] == ["model", "horizon_steps", "nrmse", "nmae", "r2"]
        # 4 models x 2 horizons
        assert len(rows) == 1 + 8
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"windebm-no-interactions", "lr", "rt", "pm"}
        assert (out / "benchmark.txt").exists()
        assert main(["benchmark", "--config", str(cfg)]) == EXIT_OK
        assert (out / "benchmark.csv").read_bytes() == first

    def test_csv_is_read_once_for_every_horizon(self, tmp_path, capsys):
        """Two horizons: one ``load_csv`` call and one dropped-rows note."""
        frame = wg.make_autocorrelated_series(600, seed=6)
        target = frame.target.copy()
        target[100] = np.nan  # an empty cell: the row is dropped on ingestion
        csv_path = write_series_csv(tmp_path / "wind.csv", frame.timestamps, target)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG.format(csv=csv_path, out=tmp_path / "out"))
        with mock.patch.object(cli, "load_csv", wraps=cli.load_csv) as load:
            assert main(["benchmark", "--config", str(cfg),
                         "--set", "benchmark.models=lr,pm",
                         "--set", "benchmark.horizons=1,3"]) == EXIT_OK
        assert load.call_count == 1
        assert capsys.readouterr().out.count("note: dropped 1 invalid rows") == 1
        rows = read_csv(tmp_path / "out" / "benchmark.csv")
        assert [r[:2] for r in rows[1:]] == [["lr", "1"], ["pm", "1"],
                                             ["lr", "3"], ["pm", "3"]]

    def test_single_cell_degenerates_to_one_row(self, run_dir):
        _, cfg, out = run_dir
        assert main(["benchmark", "--config", str(cfg),
                     "--set", "benchmark.models=lr",
                     "--set", "benchmark.horizons=2"]) == EXIT_OK
        rows = read_csv(out / "benchmark.csv")
        assert len(rows) == 2
        assert rows[1][0] == "lr"
        assert rows[1][1] == "2"

    def test_pm_excluded_for_exogenous_configs(self, tmp_path):
        rng = np.random.default_rng(2)
        y = rng.uniform(size=400)
        csv_path = write_series_csv(tmp_path / "e.csv", np.arange(400) * 3600.0,
                                    y, exogenous={"u": rng.uniform(size=400)})
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG.format(csv=csv_path, out=out)
                       .replace("mode = lags", "mode = exogenous"))
        assert main(["benchmark", "--config", str(cfg),
                     "--set", "benchmark.models=lr,pm"]) == EXIT_OK
        rows = read_csv(out / "benchmark.csv")
        assert {r[0] for r in rows[1:]} == {"lr"}

    def test_repeats_reports_spread_columns(self, run_dir):
        _, cfg, out = run_dir
        assert main(["benchmark", "--config", str(cfg),
                     "--set", "benchmark.models=lr",
                     "--set", "benchmark.horizons=1",
                     "--repeats", "2"]) == EXIT_OK
        rows = read_csv(out / "benchmark.csv")
        assert rows[0][5:] == ["nrmse_std", "nmae_std", "r2_std"]

    @pytest.mark.parametrize("bagging", [1, 2], ids=["unbagged", "bagged"])
    def test_seed_independent_kinds_fit_once(self, run_dir, monkeypatch, capsys,
                                             bagging):
        """Only bagged glass-box fits depend on the seed; every other kind
        is fitted and scored once per horizon, so its means are exactly
        that fit's scores and its stds exactly 0.0."""
        from windglass import cli

        _, cfg, out = run_dir
        calls = []
        fit = cli._fit_kind
        monkeypatch.setattr(cli, "_fit_kind",
                            lambda kind, *a: calls.append(kind) or fit(kind, *a))
        argv = ["benchmark", "--config", str(cfg), "--repeats", "3",
                "--set", "train.max_rounds=5",
                "--set", f"train.bagging_count={bagging}"]
        assert main(argv) == EXIT_OK
        seeded = 3 if bagging > 1 else 1
        assert calls.count("windebm-no-interactions") == seeded * 2
        assert len(calls) == (3 + seeded) * 2  # 4 kinds x 2 horizons
        timing = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("timing:")]
        assert len(timing) == 4 * 2 * 3
        assert sum("reused repeat=0" in ln for ln in timing) == 4 * 2 * 3 - len(calls)
        rows = read_csv(out / "benchmark.csv")

        # With one repeat, each row is one fit's scores with stds of 0.0.
        assert main(argv[:4] + ["1"] + argv[5:]) == EXIT_OK
        single = read_csv(out / "benchmark.csv")
        seeded_kind = "windebm-no-interactions" if bagging > 1 else None
        assert ([r for r in rows if r[0] != seeded_kind]
                == [r for r in single if r[0] != seeded_kind])

    def test_timings_csv_has_a_row_per_model_horizon_and_repeat(self, run_dir, capsys):
        """``timings.csv`` holds the train and inference seconds of every
        (model, horizon, repeat) in the order of the ``timing:`` lines; a
        reused repeat has no seconds and names repeat 0."""
        _, cfg, out = run_dir
        assert main(["benchmark", "--config", str(cfg), "--repeats", "2",
                     "--set", "train.max_rounds=5"]) == EXIT_OK
        timing = [ln.split() for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("timing:")]
        rows = read_csv(out / "timings.csv")
        assert rows[0] == ["model", "horizon_steps", "repeat", "train_seconds",
                           "inference_seconds", "reused_repeat"]
        assert len(rows) == 1 + 4 * 2 * 2 == 1 + len(timing)
        for row, line in zip(rows[1:], timing):
            assert line[1:4] == [row[0], f"h={row[1]}", f"repeat={row[2]}"]
            if line[4] == "reused":
                assert row[3:] == ["", "", "0"]
            else:
                assert line[4].startswith("train=") and line[5].startswith("inference=")
                assert float(row[3]) >= 0 and float(row[4]) >= 0 and row[5] == ""
        assert sum(row[5] == "0" for row in rows[1:]) == 4 * 2

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--repeats", "0"],
        ["benchmark", "--repeats", "-1"],
        ["explain", "--model", "m.json", "--mode", "pfi", "--repeats", "0"],
        ["explain", "--model", "m.json", "--mode", "pfi", "--repeats", "-1"],
    ])
    def test_repeats_below_one_is_usage_error(self, run_dir, argv):
        _, cfg, _ = run_dir
        assert main([*argv, "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("setting", [
        "benchmark.horizons=1,0", "benchmark.horizons=-1", "benchmark.horizons=",
        "benchmark.models=", "features.n_lags=0", "features.horizon_steps=0",
    ])
    def test_invalid_benchmark_grid_is_usage_error(self, run_dir, setting):
        _, cfg, out = run_dir
        assert main(["benchmark", "--config", str(cfg),
                     "--set", "benchmark.models=lr", "--set", setting]) == EXIT_USAGE
        assert not (out / "benchmark.csv").exists()


class TestExplain:
    @pytest.fixture
    def trained(self, run_dir):
        _, cfg, out = run_dir
        main(["train", "--config", str(cfg)])
        return cfg, out, out / "windebm.model.json"

    def test_global_report(self, trained):
        cfg, out, model = trained
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "global"]) == EXIT_OK
        rows = read_csv(out / "importance.csv")
        assert rows[0] == ["term", "mean_abs_contribution"]
        scores = [float(r[1]) for r in rows[1:]]
        assert scores == sorted(scores, reverse=True)
        assert len(rows) - 1 == 4 + 6  # features + pairs

    def test_local_breakdown_sums_to_forecast(self, trained):
        cfg, out, model = trained
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "local", "--row", "3"]) == EXIT_OK
        rows = read_csv(out / "breakdown.csv")
        assert rows[1][0] == "intercept"
        total = sum(float(r[1]) for r in rows[1:])
        loaded = wg.load_model(model)
        frame = wg.make_autocorrelated_series(1200, seed=6)
        raw = wg.build_lag_features(frame, 4, 1)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_apply(raw, loaded.norm_params)
        expected = loaded.predict(matrix.X[split.test_slice][3:4])[0]
        assert total == pytest.approx(expected, abs=1e-12)

    def test_shape_and_heatmap_files(self, trained):
        cfg, out, model = trained
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "shape", "--feature", "lag_0"]) == EXIT_OK
        rows = read_csv(out / "shape_lag_0.csv")
        assert rows[0] == ["bin_center", "value"]
        assert numeric_cells(rows[1:], 0)
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "heatmap", "--pair", "lag_1,lag_0"]) == EXIT_OK
        heatmaps = list(out.glob("heatmap_*.csv"))
        assert len(heatmaps) == 1
        rows = read_csv(heatmaps[0])
        assert rows[0] == ["row", "col", "value"]
        assert numeric_cells(rows[1:], 0)

    def test_pdp_and_pfi(self, trained):
        cfg, out, model = trained
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "pdp", "--feature", "lag_0"]) == EXIT_OK
        rows = read_csv(out / "pdp_lag_0.csv")
        assert rows[0] == ["bin_center", "value"]
        assert numeric_cells(rows[1:], 0)
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "pfi", "--repeats", "2"]) == EXIT_OK
        rows = read_csv(out / "pfi.csv")
        assert rows[0] == ["feature", "importance", "std"]
        assert len(rows) == 5
        assert numeric_cells(rows[1:], 1)

    def test_unknown_feature_lists_valid_names(self, trained, capsys):
        cfg, out, model = trained
        assert main(["explain", "--config", str(cfg), "--model", str(model),
                     "--mode", "shape", "--feature", "windspeed"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "lag_0" in err and "lag_3" in err

    def test_pair_without_a_grid_is_usage_error(self, run_dir, capsys):
        """A pair the model keeps no grid for, or a feature paired with
        itself, exits 2 as an unknown name does, naming the model's pairs."""
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "train.interaction_budget=1"]) == EXIT_OK
        model = wg.load_model(out / "windebm.model.json")
        (kept,) = model.pairs
        names = model.feature_names
        missing = next((i, j) for i in range(4) for j in range(i + 1, 4)
                       if (i, j) != (kept.i, kept.j))
        capsys.readouterr()
        for pair in (f"{names[missing[1]]},{names[missing[0]]}", "lag_0,lag_0"):
            assert main(["explain", "--config", str(cfg),
                         "--model", str(out / "windebm.model.json"),
                         "--mode", "heatmap", "--pair", pair]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "no interaction term" in err
            assert f"its pairs: ({names[kept.i]}, {names[kept.j]})" in err
        assert not list(out.glob("heatmap_*.csv"))


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_mode_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["explain", "--config", str(cfg), "--model", "x",
                     "--mode", "bogus"]) == EXIT_USAGE

    def test_missing_config_file(self):
        assert main(["train", "--config", "/no/such.cfg"]) == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        "path = wind.csv\n",                       # no section header
        "[data]\npath = a.csv\npath = b.csv\n",    # duplicate key
        "[data]\npath = a.csv\n[data]\n",          # duplicate section
        "[data]\npath = a.csv\nno key or value\n",  # unparseable line
    ])
    def test_malformed_config_file_is_usage_error(self, tmp_path, text, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        assert "cannot parse config file" in capsys.readouterr().err

    def test_config_file_not_utf8_is_usage_error(self, run_dir, capsys):
        _, cfg, _ = run_dir
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        assert "cannot parse config file" in capsys.readouterr().err

    def test_config_file_with_bom_reads(self, run_dir):
        _, cfg, out = run_dir
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr"]) == EXIT_OK
        assert (out / "lr.model.json").exists()

    def test_config_missing_required_keys(self, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("[features]\nmode = lags\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE

    def test_unknown_section_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "mystery.key=1"]) == EXIT_USAGE

    def test_default_section_override_is_usage_error(self, run_dir, capsys):
        """configparser cannot add a [DEFAULT] section: a usage error, not
        its ``ValueError`` reported as a data error."""
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "DEFAULT.n_lags=2"]) == EXIT_USAGE
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    def test_malformed_set_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "noequals"]) == EXIT_USAGE

    def test_bad_model_kind_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "model.kind=xgboost"]) == EXIT_USAGE

    def test_split_fraction_override(self, run_dir):
        _, cfg, out = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "model.kind=lr",
                     "--set", "split.train=0.6",
                     "--set", "split.validation=0.2",
                     "--set", "split.test=0.2"]) == EXIT_OK
        log = (out / "train.log").read_text()
        assert "train=(0, 717)" in log  # 60% of the 1196 lag rows


class TestLocale:
    def test_ascii_locale(self, run_dir):
        """Under the C locale with neither UTF-8 mode nor locale coercion,
        stdout and the default file encoding are ASCII: ``benchmark
        --repeats 2`` and ``explain --mode pfi`` still exit 0, and
        benchmark.csv holds the bytes an in-process run writes. So do
        ``explain`` in pfi, pdp, shape and heatmap modes on a model of a
        column named ``vitesse_é``: each writes the files, named by the
        same bytes, that an in-process run writes."""
        tmp, cfg, out = run_dir
        bench = ["benchmark", "--config", str(cfg), "--repeats", "2",
                 "--set", "benchmark.models=lr,pm"]
        assert main(bench) == EXIT_OK
        expected = (out / "benchmark.csv").read_bytes()
        assert main(["train", "--config", str(cfg), "--set", "model.kind=lr"]) == EXIT_OK
        pfi = ["explain", "--config", str(cfg), "--model", str(out / "lr.model.json"),
               "--mode", "pfi"]
        src = str(Path(wg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for args in (bench, pfi):
            done = subprocess.run([sys.executable, "-X", "utf8=0", "-W", "error",
                                   "-m", "windglass", *args],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == EXIT_OK, done.stderr
            assert "+/-" in done.stdout
        assert (out / "benchmark.csv").read_bytes() == expected

        rng = np.random.default_rng(3)
        u, v = rng.uniform(size=(2, 400))
        exo_csv = write_series_csv(tmp / "exo.csv", np.arange(400) * 3600.0, u * v + 0.2 * u,
                                   exogenous={"vitesse_é": u, "b": v})
        exo_out = tmp / "exo_out"
        exo_cfg = tmp / "exo.cfg"
        exo_cfg.write_text(BASE_CONFIG.format(csv=exo_csv, out=exo_out)
                           .replace("mode = lags", "mode = exogenous"), encoding="utf-8")
        assert main(["train", "--config", str(exo_cfg),
                     "--set", "train.interaction_budget=all"]) == EXIT_OK
        common = ["explain", "--config", str(exo_cfg),
                  "--model", str(exo_out / "windebm.model.json")]
        explains = [["--mode", "pfi"], ["--mode", "pdp", "--feature", "vitesse_é"],
                    ["--mode", "shape", "--feature", "vitesse_é"],
                    ["--mode", "heatmap", "--pair", "vitesse_é,b"]]

        def written():
            """The CSV files of ``exo_out`` by the bytes of their names,
            removed so that the next run writes its own."""
            files = {n: (exo_out / os.fsdecode(n)).read_bytes()
                     for n in os.listdir(os.fsencode(exo_out)) if n.endswith(b".csv")}
            for n in files:
                os.remove(os.path.join(os.fsencode(exo_out), n))
            return files

        for args in explains:
            assert main(common + args) == EXIT_OK
        expected = written()
        assert {"pfi.csv", "pdp_vitesse_é.csv", "shape_vitesse_é.csv",
                "heatmap_vitesse_é_b.csv"} == {n.decode("utf-8") for n in expected}
        for args in explains:
            done = subprocess.run([sys.executable, "-X", "utf8=0", "-W", "error",
                                   "-m", "windglass", *common, *args],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == EXIT_OK, done.stderr
            if args[1] == "pfi":  # stdout is ASCII: the name is escaped
                assert "vitesse_\\xe9: " in done.stdout
        assert written() == expected
