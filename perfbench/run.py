#!/usr/bin/env python3
"""Build and run one fairDMS benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload reuse_steady --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (Release, with the fairdms library from the
parent directory) into .bench_build/, runs the driver with its run data in a
temporary directory under .bench_build/runs/ that is removed afterwards, and
passes the driver's output through. The last line of standard output is the
result object {correct, attempted, failed, metrics}. Traced runs (--trace 1)
also write their spans to .bench_build/traces/. The exit code is the
driver's, or 1 when the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds incrementally. Build chatter goes to
    stderr so standard output stays the driver's."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the world and rates (self-test only)")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    exe = build(root, build_dir)
    if exe is None:
        log("build failed")
        return 1

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        keys_ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        keys_ok = False
    if proc.returncode == 0 and not keys_ok:
        log("driver printed no result line")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
