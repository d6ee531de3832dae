#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the benchmark program (perfbench/fleetbench.cpp) and the iotml modules
it links from the checkout's src/ into .bench_build/perfbench, runs one named
workload, and prints one JSON object as the last line of stdout:

  python3 perfbench/run.py --workload fleet_fit --seed 42 --seconds 30 --trace 0

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. On the default seed the workload digest (one
digest over its fleets' report digests) must equal the one pinned in
perfbench/workloads.json. Run from the repository root; exits non-zero
without a result when the sources or the build are missing.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once and build fleetbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no iotml sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "fleetbench",
                       "perfbench_selftest", "-j", jobs])
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)


def contract_metrics(emitted, spec_metrics):
    """Attach units from BENCHMARK.json; the names must match it exactly."""
    expected = [m["name"] for m in spec_metrics]
    bad = [n for n in emitted if not NAME_RE.match(n)]
    if bad:
        raise ValueError(f"metric names break the grammar: {bad}")
    if sorted(emitted) != sorted(expected):
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    return {m["name"]: {"value": emitted[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    if args.workload not in workloads["workloads"]:
        raise ValueError(f"unknown workload {args.workload!r}")
    build()

    cmd = [str(BUILD / "fleetbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed == workloads["default_seed"]:
        cmd += ["--expect-digest", workloads["workloads"][args.workload]["digest"]]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"fleetbench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result["metrics"], spec_metrics),
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
