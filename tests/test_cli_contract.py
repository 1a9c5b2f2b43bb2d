"""The CLI's exit-code contract, on drawn inputs.

Every run of ``windglass train`` on a drawn CSV, config file and set of
``--set`` overrides ends in 0, 2 (usage), 3 (data) or 4 (model file),
with no exception escaping ``cli.main`` (warnings are errors under
pytest). When ``train`` exits 0, its model file loads, and ``evaluate``,
``explain --mode local`` and a ``benchmark`` over ``lr,pm`` keep the
same contract.
"""

import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass.cli import EXIT_OK, MODEL_KINDS, main

CONTRACT_CODES = {0, 2, 3, 4}

CONFIG = """\
[data]
path = {csv}
timestamp_column = time
target_column = power
timestamp_format = {fmt}

[features]
mode = lags
n_lags = 3

[model]
kind = windebm

[train]
learning_rate = 0.3
max_rounds = 2
max_bins = 8
pair_bins = 4
min_samples_split = 2

[output]
directory = {out}

[benchmark]
models = lr,pm
horizons = 1,2
"""

# The ranges a file's numbers are drawn from: per-unit power (twice as
# often as each other), and huge values, whose spans may overflow.
VALUE_RANGES = [st.floats(0, 1), st.floats(0, 1), st.floats(0, 1e308),
                st.floats(-1e300, 1e300), st.floats(allow_nan=False, allow_infinity=False)]

# Values a cell may be drawn as besides a drawn number.
ODD_CELLS = ["", " ", "nan", "NaN", "inf", "-inf", "abc", "0x10", "1e308", "-1e308",
             "1e-320", "-0.0", "  0.25  ", '"0.5"', "1_000"]

# Text edits of a valid config file.
CONFIG_EDITS = {
    "none": lambda text: text,
    "no section header": lambda text: "path = x\n" + text,
    "duplicate key": lambda text: text.replace("n_lags = 3\n", "n_lags = 3\nn_lags = 4\n"),
    "duplicate section": lambda text: text + "[model]\n",
    "unparseable line": lambda text: text + "just words\n",
    "unknown key": lambda text: text + "bogus = 1\n",
    "not utf-8": lambda text: text + "# caf\udce9\n",
    "missing path": lambda text: "\n".join(line for line in text.splitlines()
                                           if not line.startswith("path")),
    "empty": lambda text: "",
}

OVERRIDES = {
    "split.train": ["0.6", "0.9", "0", "nan", "inf", "-0.5", "x"],
    "split.validation": ["0.2", "0.1", "0", "nan", "-inf"],
    "split.test": ["0.2", "0.1", "0", "1e-12", "inf"],
    "features.mode": ["lags", "exogenous", "other"],
    "features.n_lags": ["1", "2", "0", "-1", "250", "x"],
    "features.horizon_steps": ["1", "3", "0", "400"],
    "model.kind": [*MODEL_KINDS, "xgboost"],
    "data.timestamp_format": ["iso8601", "epoch", "unix"],
    "data.delimiter": [",", ";", "", "::", "tab"],
    "data.exogenous_columns": ["wind", "nope", "wind,power", ""],
    "train.interaction_budget": ["0", "1", "all", "auto", "-1", "many"],
    "train.bagging_count": ["1", "2", "0"],
    "train.learning_rate": ["0.05", "0.9", "1", "0", "nan", "-1"],
    "train.max_bins": ["2", "3", "16", "1", "1.5", str(10 ** 15), str(10 ** 30)],
    "train.pair_bins": ["2", "3", "1", str(10 ** 15)],
    "train.min_samples_leaf": ["1", "3", "0"],
    "train.early_stop_patience": ["1", "0"],
    "train.early_stop_tol": ["0", "1", "-1", "inf"],
    "train.seed": ["0", "7", "-3", "s"],
    "benchmark.horizons": ["1", "2,5", "0", ""],
    "benchmark.repeats": ["1", "2", "0"],
    "DEFAULT.n_lags": ["2"],
}


@st.composite
def csv_texts(draw):
    """A CSV of hourly ``time,power,wind`` rows, mostly well formed,
    with drawn defects: gaps, duplicate and out-of-order timestamps,
    odd or oversized cells, short and long rows, blank lines, a BOM,
    a missing header or no rows at all."""
    fmt = draw(st.sampled_from(["iso8601", "epoch"]))
    n = draw(st.integers(0, 200))
    hours = list(range(n))
    values = draw(st.sampled_from(VALUE_RANGES))
    rows = [[None, repr(v), repr(w)] for v, w in zip(
        draw(st.lists(values, min_size=n, max_size=n)),
        draw(st.lists(values, min_size=n, max_size=n)))]
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        k = draw(st.integers(0, n - 1))
        defect = draw(st.sampled_from(["gap", "duplicate", "swap", "cell", "short",
                                       "long", "oversized", "blank"]))
        cell = draw(st.integers(0, len(rows[k]) - 1)) if rows[k] else None
        if defect == "gap":
            hours[k:] = [h + draw(st.integers(1, 5)) for h in hours[k:]]
        elif defect == "duplicate" and k:
            hours[k] = hours[k - 1]
        elif defect == "swap" and k:
            hours[k - 1], hours[k] = hours[k], hours[k - 1]
        elif defect == "cell" and rows[k]:
            rows[k][cell] = draw(st.sampled_from(ODD_CELLS))
        elif defect == "short":
            rows[k] = rows[k][:draw(st.integers(0, 2))]
        elif defect == "long":
            rows[k] = rows[k] + ["0.5"] * draw(st.integers(1, 3))
        elif defect == "oversized" and rows[k]:
            rows[k][cell] = "9" * 131_073
        elif defect == "blank":
            rows[k] = []
    lines = []
    for h, row in zip(hours, rows):
        if row and row[0] is None:
            row[0] = (f"{1_325_376_000 + 3600 * h}" if fmt == "epoch"
                      else f"2012-01-{1 + h // 24:02d}T{h % 24:02d}:00:00")
        lines.append(",".join(row))
    header = draw(st.one_of(st.just("time,power,wind"), st.sampled_from(
        ["time,power,wind", "\ufefftime,power,wind", "time,wind", ""])))
    return fmt, "\n".join([header, *lines]) + "\n" if header or lines else ""


@settings(max_examples=60, deadline=None)
@given(csv_text=csv_texts(),
       edit=st.one_of(st.just("none"), st.just("none"), st.just("none"),
                      st.sampled_from(sorted(CONFIG_EDITS))),
       overrides=st.lists(st.sampled_from(sorted(OVERRIDES)), max_size=2, unique=True)
       .flatmap(lambda keys: st.tuples(*(st.sampled_from(OVERRIDES[k]).map(
           lambda v, k=k: f"{k}={v}") for k in keys))))
def test_every_outcome_is_a_contract_exit_code(csv_text, edit, overrides):
    fmt, text = csv_text
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "wind.csv").write_text(text, encoding="utf-8")
        out = tmp / "out"
        config = CONFIG_EDITS[edit](CONFIG.format(csv=tmp / "wind.csv", fmt=fmt, out=out))
        (tmp / "run.cfg").write_bytes(config.encode("utf-8", "surrogateescape"))
        common = ["--config", str(tmp / "run.cfg")]
        for item in overrides:
            common += ["--set", item]

        code = main(["train", *common])
        event(f"train exits {code}")
        assert code in CONTRACT_CODES
        if code != EXIT_OK:
            return
        [model_path] = out.glob("*.model.json")
        wg.load_model(model_path)
        model = ["--model", str(model_path)]
        assert main(["evaluate", *common, *model]) in CONTRACT_CODES
        assert main(["explain", *common, *model, "--mode", "local",
                     "--row", "0"]) in CONTRACT_CODES
        assert main(["benchmark", *common, "--set", "benchmark.models=lr,pm"]) in CONTRACT_CODES
