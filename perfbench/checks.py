"""Output checks for the benchmarked commands.

Each check takes the command's exit status and the path of its captured
stdout, and returns a list of problems; an empty list means the output is
correct. Checks read files line by line so they add little to the run's peak
memory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

LAW_MASS_TOL = 1e-9   # printed probabilities must sum to 1 within this
COMPARE_TV_TOL = 1e-12   # laws compared as equal must be this close in total variation


def exit_status(expected: int):
    def check(rc: int, out: Path) -> list[str]:
        return [] if rc == expected else [f"exit status {rc}, expected {expected}"]
    return check


def simulate(count: int, length: int, alphabet, hidden: bool):
    """Trajectory lines: ``count`` of them, ``length`` symbols each, from
    ``alphabet``; with ``hidden`` each is followed by a ``# hidden:`` line."""
    allowed = set(alphabet)

    def check(rc: int, out: Path) -> list[str]:
        problems = exit_status(0)(rc, out)
        lines = symbols = hidden_lines = 0
        with open(out) as fh:
            for line in fh:
                lines += 1
                if line.startswith("#"):
                    hidden_lines += 1
                    if len(line.split()) != length + 2:
                        problems.append(f"line {lines}: hidden trace of the wrong length")
                    continue
                tokens = line.split()
                symbols += 1
                if len(tokens) != length:
                    problems.append(f"line {lines}: {len(tokens)} symbols, expected {length}")
                if not allowed.issuperset(tokens):
                    problems.append(f"line {lines}: symbols outside {sorted(allowed)}")
        if symbols != count:
            problems.append(f"{symbols} trajectories, expected {count}")
        if hidden_lines != (count if hidden else 0):
            problems.append(f"{hidden_lines} hidden traces, expected {count if hidden else 0}")
        return problems[:5]

    return check


def _row_tv(p, q) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def recover(model_out: Path, truth: list, cluster_tol: float):
    """Exactly two clusters, weights within 0.1 of 1/2, and every recovered
    component within ``cluster_tol`` (worst-row total variation) of one of the
    ``truth`` matrices."""

    def check(rc: int, out: Path) -> list[str]:
        problems = exit_status(0)(rc, out)
        if problems:
            return problems
        lines = out.read_text().splitlines()
        clusters = int(lines[0].split()[1]) if lines and lines[0].startswith("clusters") else None
        if clusters != 2:
            return [f"{clusters} clusters, expected 2"]
        for line in lines[1:]:
            weight = float(line.split()[3])
            if abs(weight - 0.5) > 0.1:
                problems.append(f"weight {weight} is more than 0.1 from 0.5")
        for h, rows in enumerate(json.loads(model_out.read_text())["components"]):
            gap = min(max(_row_tv(r, t) for r, t in zip(rows, true)) for true in truth)
            if gap > cluster_tol:
                problems.append(f"component {h} is {gap:.3g} from every true component")
        return problems

    return check


def law(expected_entries: int | None = None):
    """Every printed probability positive, the total 1 within ``LAW_MASS_TOL``, and, when
    given, ``expected_entries`` lines (the number of positive strings)."""

    def check(rc: int, out: Path) -> list[str]:
        problems = exit_status(0)(rc, out)
        seen = {"entries": 0, "nonpositive": 0}

        def probabilities(fh):
            for line in fh:
                p = float(line.rpartition(" ")[2])
                seen["entries"] += 1
                seen["nonpositive"] += not p > 0
                yield p

        with open(out) as fh:
            total = math.fsum(probabilities(fh))
        entries, nonpositive = seen["entries"], seen["nonpositive"]
        if nonpositive:
            problems.append(f"{nonpositive} printed probabilities are not positive")
        if not abs(total - 1.0) <= LAW_MASS_TOL:
            problems.append(f"probabilities sum to {total!r}")
        if expected_entries is not None and entries != expected_entries:
            problems.append(f"{entries} strings printed, expected {expected_entries}")
        return problems

    return check


def compare():
    """Exit 0 and a printed ``tv`` of at most ``COMPARE_TV_TOL``."""

    def check(rc: int, out: Path) -> list[str]:
        problems = exit_status(0)(rc, out)
        tv = None
        for line in out.read_text().splitlines():
            if line.startswith("tv "):
                tv = float(line.split()[1])
        if tv is None or not tv <= COMPARE_TV_TOL:
            problems.append(f"tv {tv}, expected at most {COMPARE_TV_TOL}")
        return problems

    return check
