#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload W [--seed N] [--seconds S]
                             [--trace 0|1] [--calibrate-pass-ns NS]

Run from the repository root. The first call configures and builds the
simulator library and the driver (Release, LTO) into
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when the variable
is unset; later calls only re-check the build. Spans of a traced run go
to .bench_out/spans-<workload>.tsv. The driver's output is passed
through; its last line is one JSON object with the metrics, checked here
against BENCHMARK.json before it is printed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_grid", "soak_steady", "soak_overload", "cluster_chaos"]
BENCH_DIR = Path(__file__).resolve().parent


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources under ./src; run from the repository root")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "hostbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(build_dir), "--target", "hostbench",
                  "-j", "4"]]
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                             str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
        with open(log, "a") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                    fail(f"build failed; see {log}")
    return build_dir / "hostbench"


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    spec_path = BENCH_DIR.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if len(want) != len(declared):
        fail("BENCHMARK.json declares a metric twice")
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--calibrate-pass-ns", type=int, default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**62 or not 1 <= args.seconds <= 120:
        p.error("--seed must be in [0, 2^62) and --seconds in [1, 120]")
    if not 0 <= args.calibrate_pass_ns <= 10**9:
        p.error("--calibrate-pass-ns must be in [0, 1e9]")
    if args.calibrate_pass_ns and args.trace:
        p.error("--calibrate-pass-ns runs untraced; drop --trace 1")

    root = Path.cwd()
    binary = build(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.calibrate_pass_ns:
        cmd += ["--calibrate-pass-ns", str(args.calibrate_pass_ns)]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode:
        fail(f"driver exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result")
    if not args.calibrate_pass_ns:
        check_metrics(result, args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
