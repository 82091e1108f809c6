#!/usr/bin/env python3
"""Steadiness self-check for the neon-rs benchmark.

Runs the benchmark command from BENCHMARK.json for every workload, in two
sets of runs with a fresh seed per run, and reports for each end-to-end
metric:

* its spread in each set -- the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the
  median -- against the metric's bound;
* how much worse the second set's median is than the first's, against the
  bound.

A metric whose spread exceeds a tenth does not repeat well enough for an
end-to-end gate; it is flagged for a move to the per-layer list (record
the reason in README.md when moving it). Every run's value is printed
under its metric.

Run from the repository root:

    python3 neonbench/steadiness.py --runs 10
    python3 neonbench/steadiness.py --runs 5 --workloads jacobi-temporal

Exits non-zero if a spread exceeds its bound, a median moves by more than
its bound, or a run fails or reports ``correct: false``.
"""

import argparse
import json
import statistics
import subprocess
import sys

TENTH = 0.10


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", help="comma-separated subset")
    opts = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    metrics = bench["end_to_end"]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            runs = []
            for i in range(opts.runs):
                seed = 1000 * (s + 1) + i
                sys.stderr.write(f"{workload} set {s + 1} seed {seed}\n")
                runs.append(run_once(bench["command"], workload, seed,
                                     bench["run_seconds"]))
            sets.append(runs)
        print(f"== {workload}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            for runs in sets:
                values = [r[name] for r in runs]
                sp = spread(values)
                cols.append(f"median {statistics.median(values):.6g} spread {sp:.4f}")
                if sp > bound:
                    ok = False
                    cols.append("SPREAD>BOUND")
                elif sp > bound / 3:
                    cols.append("spread>bound/3")
                if sp > TENTH:
                    cols.append("does-not-repeat-within-a-tenth")
            first = [r[name] for r in sets[0]]
            second = [r[name] for r in sets[1]]
            wb = worse_by(first, second, m["better"])
            cols.append(f"worse_by {wb:+.4f}")
            if wb > bound:
                ok = False
                cols.append("MEDIAN-MOVED>BOUND")
            print(f"  {name:24s} bound {bound:.3f} | " + " | ".join(cols))
            for k, runs in enumerate(sets):
                vals = " ".join(f"{r[name]:.5g}" for r in runs)
                print(f"  {'':24s} set {k + 1}: {vals}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
