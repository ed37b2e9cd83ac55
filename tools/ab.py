#!/usr/bin/env python3
"""Alternating parent/change A/B runs of the fairDMS benchmark.

Usage (from the change's repository root):

    python3 tools/ab.py --parent ../parent --change . --topic rank_index \
        --workloads reuse_steady,drift_storm,model_update --seeds 1-10 \
        --what "..." --claim "..."
    python3 tools/ab.py --summary BENCH_rank_index_ab.json --seeds 11-20

For every workload and seed it runs one pair of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree (each builds into its own .bench_build/), where T is the
run_seconds of BENCHMARK.json, the parent first on odd seeds and the change
first on even ones. After a workload's pairs it runs the same command with
--trace 1 once per side on the first seed. It appends every result, with
its exit code, to BENCH_<topic>_ab.json (schema: what, host, claim,
runs[]) after every run, so an interrupted A/B keeps what it measured. An
existing file is extended. A traced run is stored with `traced: true`, its
per-layer metrics and its `stages` line. Every run also stores `wall_s`,
its duration, and `steal_ticks`, the growth of the `steal` column of
/proc/stat's `cpu` line over the run: CPU time the hypervisor gave to
other guests, a sign of a noisy host.

It then prints, per side, the failed share of operations and the number of
runs that failed their own checks. Those runs feed no median and win no
pair. Where runs carry them, it prints each pair's steal ticks and wall
times, and marks `STEAL SKEW` on a pair whose two sides' steal differs by
more than 2x and by at least 100 ticks; that changes no verdict and drops
no run. For each workload and end-to-end metric of BENCHMARK.json it prints
the parent and change medians, each side's quartile spread over its median,
and the change's win count over all pairs run. A metric is flagged
`unresolved` when either side's spread exceeds the metric's bound, unless
every change run reads better than every parent run. It is flagged `gain`
when the change wins at least 9 pairs in 10, its median beats the parent's
by more than the parent's quartile distance, and neither its failed share
nor its count of failed runs is higher than the parent's.

Traced runs feed no median, win no pair and count in neither failed tally.
A traced run also stores `server_ms`: for each wire op (`client.label`,
`client.recommend`), the count and median duration of the
`server_and_transport` spans under that op's root spans in the spans file
run.py wrote, <tree>/.bench_build/traces/<workload>-seed<n>.jsonl. That
is the time from a request's last byte sent to its whole reply read, the
one per-op server-side time the wire recommend has. For each
seed that has traced runs, it prints their exit codes and checks,
`TRACED RUN FAILED (exit N)` for a nonzero exit, and the two sides'
per-layer metrics, stages and `server_ms` next to each other.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
WIRE_OPS = ("client.label", "client.recommend")


def log(msg):
    print(f"ab: {msg}", file=sys.stderr, flush=True)


def parse_seeds(text):
    """'1-10' or '1,3,5' or '1-3,7' -> sorted list of ints."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def host_class():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()} vCPU {model}"


def read_steal():
    """Host steal so far: the `steal` column of /proc/stat's `cpu` line."""
    try:
        with open("/proc/stat") as f:
            # cpu user nice system idle iowait irq softirq steal ...
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def parse_json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def wire_server_ms(tree, workload, seed, since):
    """{op: {count, median_ms}} of the server_and_transport spans under each
    wire op in the spans file of a traced run, or None when the file is
    missing, unreadable or older than `since` (a run that wrote none)."""
    path = os.path.join(tree, ".bench_build", "traces",
                        f"{workload}-seed{seed}.jsonl")
    try:
        if os.path.getmtime(path) < since:
            return None
        with open(path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return None
    names = {s["id"]: s["name"] for s in spans}
    ms = {op: [] for op in WIRE_OPS}
    for s in spans:
        op = names.get(s["parent"])
        if s["name"] == "server_and_transport" and op in ms:
            ms[op].append((s["end_us"] - s["start_us"]) / 1e3)
    return {op: {"count": len(v),
                 "median_ms": statistics.median(v) if v else None}
            for op, v in ms.items()}


def run_once(tree, workload, seed, seconds, metric_names, traced=False):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    steal_before = read_steal()
    started_at = time.time()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall_s = time.monotonic() - start
    steal_after = read_steal()
    lines = proc.stdout.strip().splitlines()
    result = (parse_json(lines[-1]) if lines else None) or {}
    run = {"workload": workload, "seed": seed,
           "correct": proc.returncode == 0 and result.get("correct") is True,
           "attempted": result.get("attempted", 0),
           "failed": result.get("failed", 0),
           "exit_code": proc.returncode,
           "wall_s": round(wall_s, 2),
           "steal_ticks": (steal_after - steal_before
                           if None not in (steal_before, steal_after)
                           else None)}
    if traced:
        run["traced"] = True
        run["stages"] = next((parse_json(line[len("stages "):])
                              for line in lines
                              if line.startswith("stages ")), None)
        run["server_ms"] = wire_server_ms(tree, workload, seed, started_at)
    metrics = result.get("metrics", {})
    for name in metric_names:
        run[name] = metrics.get(name, {}).get("value")
    return run


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, spec, workloads, seeds):
    for workload in workloads:
        chosen = [r for r in runs
                  if r["workload"] == workload and r["seed"] in seeds]
        summarize_pairs([r for r in chosen if not r.get("traced")], spec,
                        workload, seeds)
        summarize_traced([r for r in chosen if r.get("traced")], spec)


def summarize_pairs(chosen, spec, workload, seeds):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs = {}
    for r in chosen:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [p for p in pairs.values() if len(p) == 2]
    print(f"\n{workload}: {len(pairs)} pairs, seeds "
          f"{min(seeds)}-{max(seeds)}")
    share, bad, good = {}, {}, {}
    for side in SIDES:
        side_runs = [r for r in chosen if r["side"] == side]
        attempted = sum(r["attempted"] for r in side_runs)
        failed = sum(r["failed"] for r in side_runs)
        share[side] = failed / attempted if attempted else 0.0
        bad[side] = sum(not r["correct"] for r in side_runs)
        good[side] = [r for r in side_runs if r["correct"]]
        print(f"  {side:6s} runs {len(side_runs)}, failed checks "
              f"{bad[side]}, failed share {share[side]:.4g}")
    no_worse = (share["change"] <= share["parent"]
                and bad["change"] <= bad["parent"])
    summarize_steal(pairs)
    if len(pairs) < 2:
        return
    print(f"  {'metric':20s} {'parent':>10s} {'change':>10s} {'rel':>7s} "
          f"{'spread p/c':>11s} {'wins':>6s}  verdict")
    for name in better:
        values = {side: [r[name] for r in good[side]
                         if r.get(name) is not None] for side in SIDES}
        if min(len(v) for v in values.values()) < 2:
            continue
        q = {side: quartiles(values[side]) for side in SIDES}
        med = {side: q[side][1] for side in SIDES}
        spread = {side: (q[side][2] - q[side][0]) / med[side]
                  for side in SIDES}
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(1 for p in pairs
                   if all(p[side]["correct"]
                          and p[side].get(name) is not None
                          for side in SIDES)
                   and sign * (p["change"][name] - p["parent"][name]) < 0)
        all_better = (max(sign * v for v in values["change"])
                      < min(sign * v for v in values["parent"]))
        gain = sign * (med["parent"] - med["change"])
        verdicts = []
        if max(spread.values()) > bound[name] and not all_better:
            verdicts.append("unresolved")
        if (no_worse and wins >= 0.9 * len(pairs)
                and gain > q["parent"][2] - q["parent"][0]):
            verdicts.append("gain")
        print(f"  {name:20s} {med['parent']:10.4g} {med['change']:10.4g} "
              f"{(med['change'] - med['parent']) / med['parent']:+7.1%} "
              f"{spread['parent']:5.2f}/{spread['change']:<5.2f} "
              f"{wins:3d}/{len(pairs):<2d}  {' '.join(verdicts)}")


def host_cost(r):
    """', steal N, wall S s' where the run recorded them, else ''."""
    if "wall_s" not in r:
        return ""
    return f", steal {r['steal_ticks']}, wall {r['wall_s']} s"


def summarize_steal(pairs):
    """Each pair's steal and wall times. STEAL SKEW marks a pair whose two
    sides' steal differs by more than 2x and by at least 100 ticks."""
    for p in sorted(pairs, key=lambda p: p["parent"]["seed"]):
        if not all("wall_s" in p[side] for side in SIDES):
            continue
        steal = sorted(p[side]["steal_ticks"] or 0 for side in SIDES)
        skew = steal[1] - steal[0] >= 100 and steal[1] > 2 * steal[0]
        print(f"  seed {p['parent']['seed']:3d}: "
              + "; ".join(f"{side} steal {p[side]['steal_ticks']}, wall "
                          f"{p[side]['wall_s']} s" for side in SIDES)
              + ("  STEAL SKEW" if skew else ""))


def cell(value):
    if value is None:
        return f"{'-':>10s}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:10.4g}"
    return f"{value!s:>10s}"


def summarize_traced(traced, spec):
    names = [m["name"] for m in spec["per_layer"]]
    for seed in sorted({r["seed"] for r in traced}):
        # The last traced run of each side on this seed.
        runs = {r["side"]: r for r in traced if r["seed"] == seed}
        print(f"  traced runs, seed {seed}:")
        for side in SIDES:
            r = runs.get(side)
            if r is None:
                continue
            print(f"    {side:6s} exit {r['exit_code']}, correct "
                  f"{r['correct']}, failed {r['failed']}{host_cost(r)}")
            if r["exit_code"] != 0:
                print(f"    TRACED RUN FAILED (exit {r['exit_code']})")
        stages = {side: r.get("stages") or {} for side, r in runs.items()}
        rows = [(name, {side: r.get(name) for side, r in runs.items()})
                for name in names]
        rows += [(f"stages.{key}",
                  {side: st.get(key) for side, st in stages.items()})
                 for key in dict.fromkeys(k for st in stages.values()
                                          for k in st)]
        server = {side: r.get("server_ms") or {} for side, r in runs.items()}
        for op in WIRE_OPS:
            for key, label in (("median_ms", "server_ms"), ("count", "n")):
                rows.append((f"{op}.{label}",
                             {side: sv.get(op, {}).get(key)
                              for side, sv in server.items()}))
        print(f"    {'per-layer metric':28s} {'parent':>10s} {'change':>10s}")
        for name, values in rows:
            if any(v is not None for v in values.values()):
                print(f"    {name:28s} "
                      + " ".join(cell(values.get(side)) for side in SIDES))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent tree (repository root)")
    ap.add_argument("--change", help="change tree (repository root)")
    ap.add_argument("--topic", help="writes BENCH_<topic>_ab.json")
    ap.add_argument("--workloads",
                    help="comma-separated; default: every workload in "
                         "BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--what", default="")
    ap.add_argument("--host", default=host_class())
    ap.add_argument("--claim", default="none (no-regression check only)")
    ap.add_argument("--summary", metavar="JSON",
                    help="only summarize an existing A/B file")
    args = ap.parse_args()

    if args.summary:
        spec_root = args.change or "."
    elif args.parent and args.change and args.topic:
        spec_root = args.change
    else:
        ap.error("give --parent, --change and --topic, or --summary")
    with open(os.path.join(spec_root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)

    if args.summary:
        with open(args.summary) as f:
            summarize(json.load(f)["runs"], spec, workloads, seeds)
        return 0

    out = f"BENCH_{args.topic}_ab.json"
    if os.path.exists(out):
        with open(out) as f:
            doc = json.load(f)
    else:
        doc = {"what": args.what, "host": args.host, "claim": args.claim,
               "runs": []}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    trees = {"parent": args.parent, "change": args.change}

    def run_pair(workload, seed, traced):
        names = per_layer if traced else end_to_end
        order = SIDES if seed % 2 == 1 else tuple(reversed(SIDES))
        for side in order:
            run = run_once(trees[side], workload, seed, spec["run_seconds"],
                           names, traced)
            doc["runs"].append({**run, "side": side})
            with open(out, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            if traced and run["exit_code"] != 0:
                status = f" TRACED RUN FAILED (exit {run['exit_code']})"
            else:
                status = "" if run["correct"] else " FAILED CHECKS"
            log(f"{workload} seed {seed} {side}"
                + (" traced" if traced else "") + ": "
                + ", ".join(f"{n}={run[n]:.4g}" for n in names
                            if run[n] is not None)
                + host_cost(run) + status)

    for workload in workloads:
        for seed in seeds:
            run_pair(workload, seed, traced=False)
        run_pair(workload, seeds[0], traced=True)
    summarize(doc["runs"], spec, workloads, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
