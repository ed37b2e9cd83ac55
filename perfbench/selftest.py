#!/usr/bin/env python3
"""Tiny-size self-test of the fairDMS benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json through perfbench/run.py at tiny
size (--tiny, a few seconds), untraced and traced, and checks that each run
passes its own correctness checks and reports exactly the end-to-end
(untraced) or per-layer (traced) metrics BENCHMARK.json names, with their
units. Exits nonzero when any run does not.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "3", "--trace", trace, "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"no result line (exit {proc.returncode})"]
    problems = []
    if proc.returncode != 0 or result.get("correct") is not True:
        problems.append(f"exit {proc.returncode}, correct={result.get('correct')}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, wrong unit "
                        f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            problems = check(workload, trace, expected[trace])
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + (": " + "; ".join(problems) if problems else ""))
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
