"""Compare two source checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py BASE CHANGE --workload fedavg-wide \\
        --seeds 300 301 302 303 304 305 306 307 308 309 --pairs 10

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, at the same seed (pair i takes seed
i mod the number of seeds); even pairs run BASE first and odd pairs CHANGE
first. T is ``run_seconds`` of BASE's ``BENCHMARK.json``, so both sides run
as long as the benchmark does; the same file gives each metric's direction
and bound.

For each end-to-end metric it prints each side's median and quartiles, the
pairs CHANGE won (ties count for neither side), whether the change is
worse than BASE by more than the bound, and whether a gain is shown: CHANGE
won at least nine in ten pairs and the medians differ by more than BASE's
interquartile range. A run that is not ``correct`` or has failed operations
is reported and ends the comparison. The tool reads ``bench/`` and
``BENCHMARK.json`` and changes neither.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; returns its JSON result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited with code "
                 f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: the run in {checkout} at seed {seed} is not correct or had "
                 f"failures:\n{proc.stderr}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The section-8 verdict for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gap = sign * (cq[1] - bq[1])
    return {
        "base": bq, "change": cq, "wins": wins, "pairs": len(base),
        "ratio": cq[1] / bq[1] if bq[1] else float("nan"),
        "regressed": -gap > bound * abs(bq[1]),
        "gain": wins >= 0.9 * len(base) and gap > bq[2] - bq[0],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="source checkout of the parent commit")
    p.add_argument("change", help="source checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, seconds)
            runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"pair {i + 1}/{args.pairs} seed {seed}: done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"# {args.workload}: {args.pairs} pairs, {seconds:g} s runs, seeds {args.seeds}")
    print(f"{'metric':22s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'ratio':>7s} {'won':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = compare([r[name] for r in runs["base"]], [r[name] for r in runs["change"]],
                    metric["better"], metric["bound"])
        verdict = ("gain" if v["gain"] else "worse than bound" if v["regressed"]
                   else "within bound")
        b, c = v["base"], v["change"]
        print(f"{name:22s} {b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}] "
              f"{c[1]:12.5g} [{c[0]:.5g}, {c[2]:.5g}] {v['ratio']:7.3f} "
              f"{v['wins']:>3d}/{v['pairs']:<2d}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
