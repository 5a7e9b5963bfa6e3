"""Extraction of the successors array from trajectories.

Row ``y`` of the successors array lists, in order, the symbol observed
immediately after each visit to ``y`` (or to partition cell ``E_j`` in the
cell-keyed variant). The visit at the final position has no successor and is
not counted, but every symbol, the last one included, must be a row key.
Finite trajectories yield ragged rows; the fictitious padding
symbol ``@del`` is a model-level convention only and never appears in rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_core import DELTA, Alphabet, Partition
from .sim import Trajectory


@dataclass(frozen=True)
class SuccessorsArray:
    """Ragged successor rows keyed by symbol (or by 1-based cell index)."""

    rows: dict
    trajectory_length: int
    pad_symbol: str = DELTA   # conceptual padding for infinite arrays; rows stay ragged

    def row(self, key) -> tuple[str, ...]:
        return self.rows[key]

    def total_entries(self) -> int:
        return sum(len(r) for r in self.rows.values())


def extract(t: Trajectory, alphabet: Alphabet | None = None) -> SuccessorsArray:
    """Successors array keyed by symbol, from one integer encoding of ``t``.

    With an explicit alphabet, unvisited symbols get empty rows and every
    symbol, the last one included, must belong to it; otherwise rows exist for
    exactly the symbols observed in the trajectory.
    """
    if len(t) < 2:
        raise ValueError("successors extraction needs a trajectory of length >= 2")
    keys = alphabet.emittable if alphabet is not None else sorted(set(t.symbols))
    index = {k: i for i, k in enumerate(keys)}
    try:
        codes = np.fromiter(map(index.__getitem__, t.symbols), np.intp, count=len(t))
    except KeyError as exc:
        raise ValueError(f"trajectory symbol {exc.args[0]!r} is not in the given "
                         "alphabet") from None
    prev, nxt = codes[:-1], np.array(keys, dtype=object)[codes[1:]]
    return SuccessorsArray({k: tuple(nxt[prev == i].tolist()) for i, k in enumerate(keys)},
                           len(t))


def extract_partitioned(t: Trajectory, partition: Partition) -> SuccessorsArray:
    """Successors array keyed by 1-based cell index; singleton cells reproduce extract."""
    if len(t) < 2:
        raise ValueError("successors extraction needs a trajectory of length >= 2")
    rows: dict = {j: [] for j in range(1, partition.n_cells + 1)}
    try:
        for i in range(len(t) - 1):
            rows[partition.cell_index_of(t.symbols[i])].append(t.symbols[i + 1])
        partition.cell_index_of(t.symbols[-1])   # final symbol must belong too
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    return SuccessorsArray({k: tuple(v) for k, v in rows.items()}, len(t))
