#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Builds perfbench/main.exe with dune
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, keeps the
metrics BENCHMARK.json declares for the mode (end-to-end with --trace 0,
per-layer with --trace 1) after checking their units, and prints the run's
report followed by the result as one JSON line.  A per-layer metric of a
layer the workload does not drive reads 0.  Exits non-zero, printing no
result, when the build, a correctness check, the run or that selection
fails.  With --trace 1 the spans of the first traced round are written to
<build dir>/spans/<workload>-seed<seed>.tsv.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-mixed", "shard-cross", "tpcc-paged")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def select(root, trace, measured):
    """The metrics BENCHMARK.json declares for the mode, from measured.
    Raises ValueError on a missing end-to-end metric, a unit that differs
    from the declared one, or a measured metric declared nowhere."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    stray = sorted(set(measured) - known)
    if stray:
        raise ValueError("undeclared metrics %s" % stray)
    kept = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError("%s not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("%s measured in %s, declared in %s"
                             % (m["name"], got["unit"], m["unit"]))
        kept[m["name"]] = got
    return kept


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    try:
        rc, log = run_group(
            [dune, "build", "--root", root, "--build-dir", build_dir,
             "--profile", "release", "./perfbench/main.exe"],
            BUILD_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build exceeded %d s" % BUILD_TIMEOUT_S)
    if rc != 0:
        sys.stderr.write(log[-4000:])
        sys.exit("perfbench: build failed")
    exe = os.path.join(root, build_dir, "default", "perfbench", "main.exe")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(root, build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, cwd=root,
                            stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if rc != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: run failed (exit %d)" % rc)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    try:
        result["metrics"] = select(root, args.trace, result["metrics"])
    except ValueError as e:
        sys.stderr.write(out)
        sys.exit("perfbench: %s" % e)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
