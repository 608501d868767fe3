#!/usr/bin/env python3
"""Repeat runner for the perfbench benchmark.

Runs one workload N times with a different seed each time and prints, per
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them). It checks every spread
against the metric's bound in BENCHMARK.json and suggests a bound three
times the observed spread.

Given two checkouts (a parent and a change) it runs them in pairs,
alternating which goes first, and also checks that the second one's
median is not worse than the first one's by more than the bound.

    python3 perfbench/repeat.py --workload deep-exact --runs 10
    python3 perfbench/repeat.py --workload cold-approx --runs 10 --checkout ../parent --checkout .

Run from the root of a checkout. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse(metric, base, cand):
    """How much worse cand is than base, as a share of base."""
    if base == 0:
        return 0.0
    change = (cand - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--checkout", action="append", default=None,
                    help="checkout root to measure; give two to compare (parent first)")
    args = ap.parse_args()

    checkouts = [os.path.abspath(c) for c in (args.checkout or ["."])]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {c: {n: [] for n in metrics} for c in checkouts}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        order = checkouts if i % 2 == 0 else list(reversed(checkouts))
        for c in order:
            t0 = time.monotonic()
            res = run_once(c, args.workload, seed, seconds, 0)
            elapsed = time.monotonic() - t0
            if not res["correct"] or res["failed"]:
                print(f"run seed={seed} {c}: correct={res['correct']} failed={res['failed']}")
                failures += 1
            for n in metrics:
                values[c][n].append(res["metrics"][n]["value"])
            print(f"seed {seed} {os.path.basename(c) or c} ({elapsed:.0f} s): " +
                  " ".join(f"{n}={res['metrics'][n]['value']:.4g}" for n in metrics), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':18} {'checkout':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'suggest':>7}")
    for n, m in metrics.items():
        for c in checkouts:
            med, q1, q3, spread = summarize(values[c][n])
            ok = spread <= m["bound"]
            failures += not ok
            print(f"{n:18} {os.path.basename(c)[:12]:12} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {m['bound']:6.2f} {min(0.25, 3 * spread):7.3f}{'' if ok else '  SPREAD > BOUND'}")
        if len(checkouts) == 2:
            base = statistics.median(values[checkouts[0]][n])
            cand = statistics.median(values[checkouts[1]][n])
            w = worse(m, base, cand)
            ok = w <= m["bound"]
            failures += not ok
            print(f"{'':18} {'change':12} {100 * (cand - base) / base if base else 0:+11.2f}% "
                  f"({'better' if w < 0 else 'worse'}){'' if ok else '  WORSE THAN BOUND'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
