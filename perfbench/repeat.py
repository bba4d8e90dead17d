#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workloads trace_full,serve_closed2 \
        --seeds 1-10 [--trace 0] [--out perfbench/results/NAME.json]

Runs `BENCHMARK.json`'s command once per (workload, seed), in workload
order, and prints for every metric its median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and spread, the distance
between the quartiles as a share of the median. With `--trace 0` each
spread is compared with the metric's bound (`setup_s` excepted) and with a
third of it, the target the benchmark is tuned to. `--out` writes the
summary as a results record carrying host, CPU count and commit.
Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command, workload, seed, seconds, trace, env):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    notes = dict(l[len("# result "):].split("=", 1) for l in lines if l.startswith("# result "))
    return result, notes, elapsed


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write a results record here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))

    record = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": env["PERFBENCH_COMMIT"],
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    worst = {}
    for w in workloads:
        runs = []
        for seed in record["seeds"]:
            result, notes, elapsed = run_once(bench["command"], w, seed, seconds, args.trace, env)
            runs.append((result, notes))
            print(f"# {w} seed {seed}: correct={result['correct']} {elapsed:.1f}s", flush=True)
        summary = {"correct": all(r["correct"] for r, _ in runs), "metrics": {}, "results": {}}
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med, q1, q3, sp = spread(values)
            summary["metrics"][name] = {
                "unit": runs[0][0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": sp,
                "values": values,
            }
            bound = bounds.get(name)
            mark = ""
            if args.trace == 0 and bound is not None and name != "setup_s":
                mark = "FAIL" if sp > bound else ("ok" if sp <= bound / 3 else "within bound")
                worst[(w, name)] = (sp, bound)
            print(f"{w:14s} {name:34s} median={med:<14.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={sp:.4f} {mark}")
        for key in sorted({k for _, n in runs for k in n}):
            summary["results"][key] = sorted({n.get(key, "") for _, n in runs})
            print(f"{w:14s} result {key}: {', '.join(summary['results'][key])[:200]}")
        record["workloads"][w] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    failing = [k for k, (sp, bound) in worst.items() if sp > bound]
    if failing:
        print("# spreads above their bound:", ", ".join(f"{w}/{n}" for w, n in failing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
