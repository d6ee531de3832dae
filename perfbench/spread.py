#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

  python3 perfbench/spread.py --workload fleet_fit --seeds 1-10

Runs perfbench/run.py once per seed with --trace 0 and the run_seconds of
BENCHMARK.json, then prints, per end-to-end metric, the median of the runs
and the distance between their first and third quartiles
(statistics.quantiles with n=4) as a share of the median, next to the
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args(argv)
    spec = run.load_json(run.ROOT / "BENCHMARK.json")

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=run.ROOT)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:<14} {med:>12.6g} {(q3 - q1) / med:>8.3f} {m['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
