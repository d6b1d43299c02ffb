#!/usr/bin/env python3
"""Repeat mode: run workloads several times, one seed per run, and print the
median and quartiles of every metric and of the ``info`` lines (the metrics'
wall-clock and CPU-time counterparts among them).

    python3 bench/repeat.py --runs 10 --seconds 10
    python3 bench/repeat.py --workload headline --workload cli --runs 5 --first-seed 100

Quartiles are ``statistics.quantiles(values, n=4)``; the spread is
(q3 - q1) / median. The bounds in BENCHMARK.json were set from this output.
Exits 1 if any run failed, reported incorrect outputs, or changed its share
of failed operations.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("headline", "search", "reproduce", "certify", "cli")
INFO = re.compile(r"^\s+info\s+(\S+)\s+(\S+)\s+(\S+)$")  # name, value, unit


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default all five)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares, elapsed = set(), []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            elapsed.append(time.perf_counter() - t)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect outputs\n" + "\n".join(lines[:-1]))
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for m in filter(None, map(INFO.match, lines[:-1])):
                values.setdefault(f"info {m[1]}", []).append(float(m[2]))
                units[f"info {m[1]}"] = m[3]
        print(f"\n{workload}: {len(elapsed)} runs of {args.seconds} s, "
              f"{statistics.median(elapsed):.1f} s each (median), failed share {sorted(map(str, shares))}")
        print(f"  {'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<46} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}  {units[name]}")
        if len(shares) > 1:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
