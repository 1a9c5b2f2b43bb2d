"""CLI surface tests: config handling, commands, exit codes, and
byte-level determinism."""

import csv

import numpy as np
import pytest

import windglass as wg
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

    def test_bad_tree_setting_is_usage_error(self, run_dir, capsys):
        """A tree setting TrainConfig refuses is a bad config value,
        found before the data are read."""
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "train.main_depth=-1"]) == EXIT_USAGE
        assert "bad config value" in capsys.readouterr().err

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

    def test_pm_with_exogenous_mode_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "features.mode=exogenous",
                     "--set", "model.kind=pm"]) == EXIT_USAGE

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


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_mode_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["explain", "--config", str(cfg), "--model", "x",
                     "--mode", "bogus"]) == EXIT_USAGE

    def test_missing_config_file(self):
        assert main(["train", "--config", "/no/such.cfg"]) == EXIT_USAGE

    def test_config_missing_required_keys(self, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("[features]\nmode = lags\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE

    def test_unknown_section_rejected(self, run_dir):
        _, cfg, _ = run_dir
        assert main(["train", "--config", str(cfg),
                     "--set", "mystery.key=1"]) == EXIT_USAGE

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
