"""Drive the command-line interface end to end.

Writes a synthetic power CSV and a run config into ./demo_out/, then
shells out to the CLI for train, evaluate, benchmark, and explain,
exactly as an operator working from files would.
"""

import csv
import datetime as dt
import subprocess
import sys
from pathlib import Path

import windglass as wg

work = Path("demo_out")
work.mkdir(exist_ok=True)

frame = wg.make_autocorrelated_series(4_000, seed=4, step_seconds=900)
csv_path = work / "wind.csv"
with open(csv_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["time", "power"])
    start = dt.datetime(2012, 1, 1)
    for ts, y in zip(frame.timestamps, frame.target):
        writer.writerow([(start + dt.timedelta(seconds=float(ts))).isoformat(),
                         repr(float(y))])

config_path = work / "run.cfg"
config_path.write_text(f"""\
[data]
path = {csv_path}
timestamp_column = time
target_column = power

[features]
mode = lags
n_lags = 16
horizon_steps = 4

[model]
kind = windebm

[train]
learning_rate = 0.02
max_rounds = 300
early_stop_patience = 25
max_bins = 64
pair_bins = 12
seed = 0

[output]
directory = {work / "out"}

[benchmark]
models = windebm,lr,rt,pm
horizons = 2,4,16
""")


def run(*args):
    cmd = [sys.executable, "-m", "windglass", *args]
    print(f"\n$ windglass {' '.join(args)}", flush=True)
    subprocess.run(cmd, check=True)


run("train", "--config", str(config_path))
model = str(work / "out" / "windebm.model.json")
run("evaluate", "--config", str(config_path), "--model", model)
run("benchmark", "--config", str(config_path), "--repeats", "2")
run("explain", "--config", str(config_path), "--model", model,
    "--mode", "global")
run("explain", "--config", str(config_path), "--model", model,
    "--mode", "local", "--row", "5")
run("explain", "--config", str(config_path), "--model", model,
    "--mode", "shape", "--feature", "lag_0")
run("explain", "--config", str(config_path), "--model", model,
    "--mode", "pdp", "--feature", "lag_0")
run("explain", "--config", str(config_path), "--model", model,
    "--mode", "pfi")

print(f"\nartifacts in {work / 'out'}:")
for p in sorted((work / "out").iterdir()):
    print(f"  {p.name}")
