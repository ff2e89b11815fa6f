#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload sim-lookup|sim-churn|live-ring \
        --seed N --seconds S --trace 0|1 [--smoke] [--absent-lookups K]

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune, runs the workload, passes its report through, and prints as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1.  A per-layer metric the workload does
not exercise reads 0.  Exit status: 0 when every output check passed,
1 when one failed, 2 when the benchmark could not run (no result line).
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--absent-lookups", type=int, default=0)
    return p.parse_args()


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: not a checkout of the program")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def result_line(stdout):
    lines = stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the workload printed no result line")


def select(metrics, listed, fill):
    """The listed metrics, checked against BENCHMARK.json's names and
    units; [fill] lets a listed metric the run did not measure read 0."""
    names = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        fail(f"metrics not listed in BENCHMARK.json: {unknown}")
    out = {}
    for name, unit in names.items():
        m = metrics.get(name, {"value": 0, "unit": unit} if fill else None)
        if m is None:
            fail(f"metric {name} was not measured")
        if m["unit"] != unit or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            fail(f"metric {name} is {m}, want a finite number in {unit}")
        out[name] = {"value": m["value"], "unit": unit}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args([w["name"] for w in spec["workloads"]])
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--absent-lookups", str(args.absent_lookups)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the workload ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        fail(f"the workload exited with {done.returncode}")
    report, result = result_line(done.stdout)
    traced = args.trace == 1
    listed = spec["per_layer" if traced else "end_to_end"]
    result["metrics"] = select(result["metrics"], listed, fill=traced)
    if result["correct"] != (done.returncode == 0):
        fail("the exit status disagrees with the output checks")
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
