#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a claim that one is faster.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload recover --pairs 10 --seed 553311

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, and the side
that goes first alternates from pair to pair, so that a drift of the host's
speed favours neither. Every run has ``PYTHONDONTWRITEBYTECODE=1``, and a
checkout that holds a ``__pycache__`` is refused: set-up then compiles every
module in both checkouts, as in a fresh clone. The report gives, for every
end-to-end metric of the change's ``BENCHMARK.json``, each side's median and
quartiles, the pairs the change wins and ties, and whether the change's median is
better than the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better: str = "lower") -> dict:
    """Pair ``i`` is ``(parent[i], change[i])``. A pair is a win when the change's
    value is better in the direction ``better``, and a tie when the two are equal."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "pairs": len(parent),
            "wins": wins, "ties": ties,
            "beyond_parent_iqr": sign * (pmed - cmed) > pq3 - pq1}


def refuse_bytecode(checkout: Path) -> None:
    """Exit with an error if ``checkout`` has no ``perfbench/run.py`` or holds a
    ``__pycache__``."""
    if not (checkout / "perfbench" / "run.py").is_file():
        sys.exit(f"error: {checkout} has no perfbench/run.py")
    cached = next(checkout.rglob("__pycache__"), None)
    if cached is not None:
        sys.exit(f"error: {cached} holds bytecode; remove it so that both sides compile alike")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"error: run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["correct"]:
        sys.exit(f"error: run in {checkout} failed {record['failed']} operations")
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        refuse_bytecode(checkout)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed,
                                       args.seconds))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} {name} {runs[side][-1][name]:.4g}" for side in order for name in better),
            file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} alternating pairs, "
          f"{args.seconds:g} s runs")
    print(f"{'metric':<12} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}")
    for name, direction in better.items():
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      direction)
        for side in ("parent", "change"):
            print(f"{name:<12} {side:<7} " + " ".join(f"{v:>10.4g}" for v in s[side]))
        print(f"{'':<12} change wins {s['wins']}/{s['pairs']} ({s['ties']} ties); its median "
              f"is better by more than the parent's IQR: "
              f"{'yes' if s['beyond_parent_iqr'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
