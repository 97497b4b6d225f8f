#!/usr/bin/env python3
"""Measure srpcbench the way BENCHMARK.json defines it, and write a baseline.

From the repository root:

    python3 benchmark/baseline.py --out benchmark/results/<commit>.json

Runs the BENCHMARK.json command once per (set, seed, workload) with tracing
off, then once per workload traced. For every end-to-end metric, and for the
host metrics (per-layer, read from benchmark/out/), it reports per set and
workload the values, their median and their spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median.
Each end-to-end metric gets a verdict: its spread must stay under a third of
its bound (setup_s excepted, see below), and no later set's median
may be worse than the first's by more than the bound. Exit code 1 when a
verdict fails or a run reports an incorrect result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HOST_METRICS = ["host_sessions_per_cpu_s", "host_p50_ms", "host_heap_mb"]
SEEDS = 10
SETS = 2
TRACED_SEED = 0


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want) or any(
            got[m["name"]]["unit"] != m["unit"] for m in want):
        sys.exit(f"{workload}: metrics do not match BENCHMARK.json")
    return result


def host_values(workload, seed):
    with open(os.path.join("benchmark", "out", f"{workload}-seed{seed}.json")) as f:
        per_layer = json.load(f)["per_layer"]
    return {n: per_layer[n]["value"] for n in HOST_METRICS}


def summary(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "spread": (q[2] - q[0]) / median}


def worse_by(first, second, better):
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics] + HOST_METRICS
    ok = True
    sets = []
    for s in range(SETS):
        values = {w: {n: [] for n in names} for w in workloads}
        for seed in range(SEEDS):
            for w in workloads:
                r = run_once(bench, w, seed, 0)
                ok = ok and r["correct"] and r["failed"] == 0
                got = {n: v["value"] for n, v in r["metrics"].items()}
                got.update(host_values(w, seed))
                for n in names:
                    values[w][n].append(got[n])
                print(f"set {s} seed {seed} {w} ok", file=sys.stderr, flush=True)
        sets.append({w: {n: summary(v) for n, v in per.items()} for w, per in values.items()})

    verdict = {}
    for w in workloads:
        for m in metrics:
            n, bound = m["name"], m["bound"]
            spreads = [st[w][n]["spread"] for st in sets]
            drift = [worse_by(sets[0][w][n]["median"], st[w][n]["median"], m["better"])
                     for st in sets[1:]]
            # setup_s: spread reported, drift gated. The calibration takes most
            # of the machine's slow periods out of it, not all, and single runs
            # still spread by more than a third of the bound (see README).
            steady = n == "setup_s" or max(spreads) < bound / 3
            passed = steady and all(d <= bound for d in drift)
            verdict.setdefault(w, {})[n] = {
                "spreads": spreads, "drift": drift, "bound": bound, "pass": passed}
            ok = ok and passed
            print(f"{w:13s} {n:24s} spread {' '.join(f'{x:7.2%}' for x in spreads)}"
                  f"  drift {' '.join(f'{d:+7.2%}' for d in drift)}  bound {bound:.0%}"
                  f"  {'ok' if passed else 'FAIL'}{' (spread not gated)' if n == 'setup_s' else ''}")
        for n in HOST_METRICS:
            spreads = " ".join(f"{st[w][n]['spread']:7.2%}" for st in sets)
            print(f"{w:13s} {n:24s} spread {spreads}  (per-layer, no bound)")

    traced = {}
    for w in workloads:
        r = run_once(bench, w, TRACED_SEED, 1)
        ok = ok and r["correct"]
        traced[w] = {k: v["value"] for k, v in r["metrics"].items()}

    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    report = {
        "machine": {"cpu": cpu, "nproc": os.cpu_count(), "system": platform.platform()},
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(SEEDS)),
        "sets": sets,
        "verdict": verdict,
        "traced_seed": TRACED_SEED,
        "traced": traced,
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
