#!/usr/bin/env python3
"""Run one benchmark workload N times and summarize every metric.

    python3 perfbench/repeat.py --workload gw-paced [--runs 10]
        [--seconds 10] [--seed 1] [--trace 0|1] [--other CHECKOUT]

Run i uses seed --seed + i.  With --other, the runs alternate between
this checkout and another checkout of the repository (for example the
parent commit, made with `git archive` or `git clone`), each building
its own program; pair i runs both sides on the same seed, and which side
goes first alternates.  Prints, per metric and side, the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median; with two sides also the change of the median and
how many pairs the second side won.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"repeat: run failed in {checkout} (seed {seed}, exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--other", help="second checkout to alternate with")
    args = ap.parse_args()

    sides = [os.path.dirname(HERE)] + ([os.path.abspath(args.other)] if args.other else [])
    results = [[] for _ in sides]
    for i in range(args.runs):
        order = list(range(len(sides)))
        if i % 2 == 1:
            order.reverse()
        for side in order:
            r = run_once(sides[side], args.workload, args.seed + i, args.seconds, args.trace)
            results[side].append(r)
            brief = ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                              if not k.startswith(("sim.", "persist.", "svc.", "loadgen.")))
            print(f"run {i} side {side} seed {args.seed + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {brief}", flush=True)

    print(f"\nworkload {args.workload}, {args.runs} runs of {args.seconds} s per side")
    for side, rs in enumerate(results):
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        ok = all(r["correct"] for r in rs)
        print(f"side {side} ({sides[side]}): all correct={ok}, failed {failed} of {attempted}")
    header = f"{'metric':34} {'unit':6}" + "".join(
        f" {'median':>13} {'q1':>13} {'q3':>13} {'spread':>7}" for _ in sides)
    if len(sides) == 2:
        header += f" {'change':>8} {'wins':>6}"
    print(header)
    for name, first in results[0][0]["metrics"].items():
        row = f"{name:34} {first['unit']:6}"
        meds = []
        for rs in results:
            vals = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = summarize(vals)
            meds.append(med)
            row += f" {med:13.6g} {q1:13.6g} {q3:13.6g} {100 * spread:6.1f}%"
        if len(sides) == 2:
            change = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            wins = sum(b["metrics"][name]["value"] < a["metrics"][name]["value"]
                       for a, b in zip(results[0], results[1]))
            row += f" {100 * change:+7.1f}% {wins:3}/{len(results[0])}"
        print(row)
    if len(sides) == 2:
        print("wins: pairs in which the second side read lower")


if __name__ == "__main__":
    main()
