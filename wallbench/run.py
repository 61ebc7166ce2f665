#!/usr/bin/env python3
"""Builds the wallbench driver from this checkout's sources and runs one workload.

    python3 wallbench/run.py --workload ingest|audit|lookup --seed N \
        --seconds S --trace 0|1 [--response-bitflip P]

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under wallbench/; the first run configures and
compiles, later runs only check that the build is current.

The driver's lines (seed, per-metric lines with unit and "clock: wall", the
read/write split and error_frac) are echoed. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics. The exit code is 0 only when every output checked out; it is 1 after a
failed check and 2 when the benchmark could not run (nothing printed then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def die(msg):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no sources under {ROOT}/src; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    tree = os.path.join(build_dir, "wallbench")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", tree, "--target", "wallbench", "-j", "4"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(tree, "wallbench")


def wanted_metrics(trace):
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec):
        return None
    with open(spec) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "audit", "lookup"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--response-bitflip", type=float, default=0.0,
                    help="fraction of server responses to bit-flip "
                         "(checks that verification catches it)")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)

    # Journals and sockets live in a per-run directory inside the build tree;
    # a relative path keeps the socket under the Unix path-length limit.
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(workdir, ROOT)]
    if args.response_bitflip > 0:
        cmd += ["--response-bitflip", str(args.response_bitflip)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"driver exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    print(f"driver_wall_s {time.monotonic() - t0:.3f}")

    metrics = result["metrics"]
    names = wanted_metrics(args.trace) or list(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        die("driver did not report " + ", ".join(missing))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
