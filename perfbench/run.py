#!/usr/bin/env python3
"""Build and run the approxdd benchmark, collect runs, compare results.

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload qsup-exact --seed 0 --seconds 25 --trace 0

builds `perfbench/` (offline, release) into $CARGO_TARGET_DIR (default
`.bench_build`) and runs it; the last line of standard output is the
result object. Run it from the repository root.

Collect repeated runs into a JSON-lines file, one record per run:

    python3 perfbench/run.py --collect out.jsonl [--workloads a,b] [--runs 10]
        [--seed-base 0] [--seconds 25] [--trace 0]

Summarise one collection, or compare two, against BENCHMARK.json's bounds:

    python3 perfbench/run.py --summary out.jsonl
    python3 perfbench/run.py --compare old.jsonl new.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run exits within 180 s; stop the program well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    """Builds the benchmark binary and returns its path (exits on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return [], 1
    return done.stdout.splitlines(), done.returncode


def parse_result(lines):
    """The result object on the last line, or None if it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    return spec, metrics


def cmd_run(args):
    binary = build()
    lines, code = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if code != 0 or parse_result(lines) is None:
        print(f"run.py: {args.workload} failed (exit code {code})", file=sys.stderr)
        return code or 1
    return 0


def cmd_collect(args):
    spec, _ = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    with open(args.collect, "a") as out:
        for i in range(args.runs):
            for workload in workloads:
                seed = args.seed_base + i
                lines, code = run_once(binary, workload, seed, seconds, args.trace)
                result = parse_result(lines)
                detail = None
                if len(lines) >= 2:
                    try:
                        detail = json.loads(lines[-2])
                    except json.JSONDecodeError:
                        pass
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "exit": code, "result": result, "detail": detail}
                out.write(json.dumps(record) + "\n")
                out.flush()
                ok = result is not None and result["correct"]
                print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0


def load_runs(path):
    """{workload: {metric: {seed: value}}} of a collection."""
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["result"] is None:
                continue
            by_metric = runs.setdefault(record["workload"], {})
            for name, m in record["result"]["metrics"].items():
                by_metric.setdefault(name, {})[record["seed"]] = m["value"]
    return runs


def stats(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, meta):
    """better / worse / unchanged / unresolved (rules in perfbench/README.md)."""
    bound = meta.get("bound")
    if bound is None:
        return "-"
    lower = meta["better"] == "lower"
    _, old_med, _ = stats(old.values())
    _, new_med, _ = stats(new.values())
    if old_med == 0:
        return "unchanged" if new_med == 0 else "unresolved"
    # Positive when the change is worse, as a share of the old median.
    worse_by = (new_med - old_med) / abs(old_med) * (1 if lower else -1)
    better_all = (max(new.values()) < min(old.values())) if lower else (min(new.values()) > max(old.values()))
    worse_all = (min(new.values()) > max(old.values())) if lower else (max(new.values()) < min(old.values()))
    if max(spread(old.values()), spread(new.values())) > bound:
        return "better" if better_all else "worse" if worse_all else "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(old) & set(new))
    wins = sum(1 for s in seeds if (new[s] < old[s] if lower else new[s] > old[s]))
    if -worse_by > spread(old.values()) and seeds and wins >= 0.9 * len(seeds):
        return "better"
    return "unchanged"


def fmt(x):
    return f"{x:.6g}"


def cmd_summary(args):
    _, metrics = load_benchmark()
    runs = load_runs(args.summary)
    print(f"{'workload':14} {'metric':28} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  check")
    failing = 0
    for workload, by_metric in runs.items():
        for name, values in by_metric.items():
            meta = metrics.get(name, {})
            q1, med, q3 = stats(values.values())
            s = spread(values.values())
            bound = meta.get("bound")
            check = ""
            if bound is not None and name != "setup_s":
                check = "ok" if s < bound / 3 else "WIDE"
                failing += check == "WIDE"
            print(f"{workload:14} {name:28} {len(values):>3} {fmt(q1):>12} {fmt(med):>12} {fmt(q3):>12} "
                  f"{s:8.4f} {'' if bound is None else bound:>6}  {check}")
    return 1 if failing else 0


def cmd_compare(args):
    _, metrics = load_benchmark()
    old_runs, new_runs = load_runs(args.compare[0]), load_runs(args.compare[1])
    print(f"{'workload':14} {'metric':28} {'old median':>12} {'old q1..q3':>25} {'new median':>12} "
          f"{'new q1..q3':>25} {'change':>8}  verdict")
    for workload in old_runs:
        for name, old in old_runs[workload].items():
            new = new_runs.get(workload, {}).get(name)
            if not new:
                continue
            meta = metrics.get(name, {})
            oq1, omed, oq3 = stats(old.values())
            nq1, nmed, nq3 = stats(new.values())
            change = (nmed - omed) / abs(omed) if omed else 0.0
            print(f"{workload:14} {name:28} {fmt(omed):>12} {fmt(oq1) + '..' + fmt(oq3):>25} {fmt(nmed):>12} "
                  f"{fmt(nq1) + '..' + fmt(nq3):>25} {change:+8.2%}  {verdict(old, new, meta)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--collect", metavar="OUT")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--summary", metavar="RUNS")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return cmd_compare(args)
    if args.summary:
        return cmd_summary(args)
    if args.collect:
        return cmd_collect(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_benchmark()[0]["run_seconds"]
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
