#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a gain or a no-regression claim.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload recover --pairs 10 --seed 553311
    python3 scripts/bench_pairs.py PARENT CHANGE --workload all --pairs 10 --seed 553311

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, and the side
that goes first alternates from pair to pair, so that a drift of the host's
speed favours neither. Every run has ``PYTHONDONTWRITEBYTECODE=1``, and a
checkout that holds a ``__pycache__`` is refused: set-up then compiles every
module in both checkouts, as in a fresh clone. ``--workload`` may be repeated,
and ``all`` names every workload of the change's ``BENCHMARK.json``.

The report gives, per workload and for every end-to-end metric of that file,
each side's median and quartiles, the pairs the change wins and ties, and two
verdicts. The gain verdict: is the change's median better than the parent's by
more than the parent's interquartile range? The no-regression verdict reads the
metric's ``bound`` as a fraction of the parent's median, the allowance: it is
``unresolved`` when the parent's interquartile range is wider than the
allowance, unless every change run is better than every parent run; else ``no``
when the change's median is worse than the parent's by more than the allowance,
and ``yes`` otherwise.

Below them come the per-command medians, the ``*_s`` entries other than
``pipeline_s`` and ``setup_s`` in the ``end_to_end`` of each run's
``perfbench/results/<workload>-seed<S>-trace0.json``: the same quartiles and
wins, as diagnostic rows with no verdict.
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


def summarize(parent, change, better: str = "lower", bound: float = 0.0) -> dict:
    """Pair ``i`` is ``(parent[i], change[i])``. A pair is a win when the change's
    value is better in the direction ``better``, and a tie when the two are equal.
    ``bound`` is the worsening allowed, as a fraction of the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    allowed = bound * abs(pmed)
    if pq3 - pq1 > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
        no_regression = "unresolved"
    else:
        no_regression = "no" if sign * (cmed - pmed) > allowed else "yes"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "pairs": len(parent),
            "wins": wins, "ties": ties,
            "beyond_parent_iqr": sign * (pmed - cmed) > pq3 - pq1,
            "no_regression": no_regression}


def refuse_bytecode(checkout: Path) -> None:
    """Exit with an error if ``checkout`` has no ``perfbench/run.py`` or holds a
    ``__pycache__``."""
    if not (checkout / "perfbench" / "run.py").is_file():
        sys.exit(f"error: {checkout} has no perfbench/run.py")
    cached = next(checkout.rglob("__pycache__"), None)
    if cached is not None:
        sys.exit(f"error: {cached} holds bytecode; remove it so that both sides compile alike")


def workloads_of(asked, spec: dict) -> list[str]:
    """The workloads ``--workload`` names, ``all`` standing for every one in ``spec``,
    each once and in the order first named."""
    names = [w["name"] for w in spec["workloads"]]
    return list(dict.fromkeys(w for a in asked for w in (names if a == "all" else [a])))


def command_medians(end_to_end: dict) -> dict:
    """``{name: median}`` of a run record's ``end_to_end`` entries that time one
    command: every ``*_s`` but ``pipeline_s`` and ``setup_s``."""
    return {name: m["median"] for name, m in end_to_end.items()
            if name.endswith("_s") and name not in ("pipeline_s", "setup_s")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the per-command medians of one untraced run in
    ``checkout``."""
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
    saved = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    commands = command_medians(json.loads(saved.read_text())["end_to_end"])
    return {name: m["value"] for name, m in record["metrics"].items()}, commands


def report_lines(runs: dict, metrics: dict) -> list[str]:
    """The table of one workload: ``runs[side]`` lists ``(metrics, commands)`` per run,
    and ``metrics`` maps each end-to-end metric to ``(better, bound)``. A metric gets
    its rows and a verdict line, then each command its rows and wins alone."""
    lines = [f"{'metric':<18} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}  runs"]

    def rows(name, column, better, bound=0.0):
        values = {side: [run[column][name] for run in runs[side]] for side in runs}
        s = summarize(values["parent"], values["change"], better, bound)
        for side in ("parent", "change"):
            lines.append(f"{name:<18} {side:<7} " + " ".join(f"{v:>10.4g}" for v in s[side])
                         + "  " + " ".join(f"{v:.4g}" for v in values[side]))
        return s

    for name, (better, bound) in metrics.items():
        s = rows(name, 0, better, bound)
        lines.append(f"{'':<18} change wins {s['wins']}/{s['pairs']} ({s['ties']} ties); its "
                     f"median is better by more than the parent's IQR: "
                     f"{'yes' if s['beyond_parent_iqr'] else 'no'}; no regression beyond "
                     f"{bound:g} of the parent's median: {s['no_regression']}")
    for name in runs["parent"][0][1]:
        s = rows(name, 1, "lower")
        lines.append(f"{'':<18} change wins {s['wins']}/{s['pairs']} ({s['ties']} ties); "
                     "per-command median, a diagnostic")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json, or all; may be repeated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        refuse_bytecode(checkout)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    for workload in workloads_of(args.workload, spec):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, args.seed,
                                           args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {name} {runs[side][-1][0][name]:.4g}" for side in order
                for name in metrics), file=sys.stderr)

        print(f"workload {workload}, seed {args.seed}, {args.pairs} alternating pairs, "
              f"{args.seconds:g} s runs")
        print("\n".join(report_lines(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
