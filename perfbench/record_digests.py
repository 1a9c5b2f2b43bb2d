#!/usr/bin/env python3
"""Record the output digests that the benchmark checks against.

    python3 perfbench/record_digests.py --scale full --seeds 0-49
    python3 perfbench/record_digests.py --scale tiny --seeds 0-3 --workload lags-48

For each workload and run seed this takes the run's input seeds, runs
one set-up and one call on each input, checks the output as the
benchmark does, and stores the digest under the input seed in
``perfbench/digests.json`` (merged with what is there). Re-record only
when a change to windglass is meant to change these outputs, and say so
in the change: a design change should leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", choices=("full", "tiny"), required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="run seeds, e.g. 0-49")
    p.add_argument("--workload", action="append", help="default: all four")
    args = p.parse_args(argv)

    run.bootstrap()
    import workloads

    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name](workloads.SCALES[args.scale], workdir)
            inputs = workloads.SCALES[args.scale]["inputs"]
            for seed in (s for run_seed in args.seeds
                         for s in workloads.input_seeds(run_seed, inputs)):
                state = workload.setup(seed)
                outcome = workload.check(state, workload.op(state))
                table.setdefault(args.scale, {}).setdefault(name, {})[str(seed)] = (
                    outcome.digest)
                print(f"{args.scale} {name} input seed={seed} {outcome.digest}",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for scale in table.values():
        for name, seeds in scale.items():
            scale[name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
