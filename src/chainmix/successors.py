"""Extraction of the successors array from trajectories.

Row ``y`` of the successors array lists, in order, the symbol observed
immediately after each visit to ``y`` (or to partition cell ``E_j`` in the
cell-keyed variant). The visit at the final position has no successor and is
not counted, but every symbol, the last one included, must be a row key.
Finite trajectories yield ragged rows; the fictitious padding
symbol ``@del`` is a model-level convention only and never appears in rows.
:func:`extract` counts pairs on the codes; its label rows are built when read.
"""

from __future__ import annotations

from collections import UserDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model_core import DELTA, Alphabet, Partition
from .sim import Trajectory


@dataclass(frozen=True)
class SuccessorsArray:
    """Ragged successor rows keyed by symbol (or by 1-based cell index).

    ``pair_counts`` (set by :func:`extract`) is the ``(K, K)`` integer matrix whose
    row ``i`` counts each key among the successors of the ``i``-th key: the
    histograms of the rows, in key order.
    """

    rows: Mapping
    trajectory_length: int
    pad_symbol: str = DELTA   # conceptual padding for infinite arrays; rows stay ragged
    pair_counts: np.ndarray | None = field(default=None, compare=False, repr=False)

    def row(self, key) -> tuple[str, ...]:
        return self.rows[key]

    def total_entries(self) -> int:   # every position but the last has one successor
        return self.trajectory_length - 1


class _CodedRows(UserDict):
    """The rows of a trajectory coded as indices into ``keys``, decoded on first read."""

    def __init__(self, keys, codes: np.ndarray):
        self._keys, self._codes = keys, codes

    @cached_property
    def data(self) -> dict:
        prev, nxt = self._codes[:-1], np.array(self._keys, dtype=object)[self._codes[1:]]
        return {k: tuple(nxt[prev == i].tolist()) for i, k in enumerate(self._keys)}


def extract(t: Trajectory, alphabet: Alphabet | None = None) -> SuccessorsArray:
    """Successors array keyed by symbol, with its pair counts, from ``t``'s codes.

    With an explicit alphabet, unvisited symbols get empty rows and every
    symbol, the last one included, must belong to it; otherwise rows exist for
    exactly the symbols observed in the trajectory.
    """
    if len(t) < 2:
        raise ValueError("successors extraction needs a trajectory of length >= 2")
    keys = alphabet.emittable if alphabet is not None else sorted(t.observed())
    K, index = len(keys), {k: i for i, k in enumerate(keys)}
    codes = np.take(np.array([index.get(s, K) for s in t.labels], dtype=np.intp), t.codes)
    outside = np.flatnonzero(codes == K)
    if outside.size:
        raise ValueError(f"trajectory symbol {t.labels[t.codes[outside[0]]]!r} is not in "
                         "the given alphabet")
    pairs = np.bincount(codes[:-1] * K + codes[1:], minlength=K * K).reshape(K, K)
    return SuccessorsArray(_CodedRows(keys, codes), len(t), pair_counts=pairs)


def extract_partitioned(t: Trajectory, partition: Partition) -> SuccessorsArray:
    """Successors array keyed by 1-based cell index; singleton cells reproduce extract."""
    if len(t) < 2:
        raise ValueError("successors extraction needs a trajectory of length >= 2")
    # cell of each position, 0 outside the partition; labels that do not occur go unchecked
    cells = partition.cells_of(t.labels)[t.codes]
    if not cells.all():
        try:   # the first position outside the partition (argmin: the first 0)
            partition.cell_index_of(t.labels[t.codes[cells.argmin()]])
        except KeyError as exc:
            raise ValueError(str(exc)) from None
    nxt = np.array(t.labels, dtype=object)[t.codes[1:]]
    return SuccessorsArray({j: tuple(nxt[cells[:-1] == j].tolist())
                            for j in range(1, partition.n_cells + 1)}, len(t))
