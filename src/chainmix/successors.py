"""Extraction of the successors array from trajectories.

Row ``y`` of the successors array lists, in order, the symbol observed
immediately after each visit to ``y`` (or to partition cell ``E_j`` in the
cell-keyed variant). The visit at the final position has no successor and is
not counted, but every symbol, the last one included, must be a row key.
Finite trajectories yield ragged rows; the fictitious padding
symbol ``@del`` is a model-level convention only and never appears in rows.
Both extractors decode the label rows only when read. :func:`extract` takes its
pair counts from the trajectory's own transition counts, made once per trajectory.
"""

from __future__ import annotations

from collections import UserDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .model_core import DELTA, Alphabet, Partition
from .sim import Trajectory, encode


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

    def total_entries(self) -> int:   # every position but the last has one successor
        return self.trajectory_length - 1


class _CodedRows(UserDict):
    """The successors rows of ``t`` keyed by ``keys``, decoded on first read.
    ``key_of[c]`` is the index into ``keys`` of the row that label code ``c`` keys
    (a cell's is its index - 1). ``stray`` is the first label in ``t`` whose index
    is out of range, or None: the labels that occur are read off ``t``'s
    transition counts, and positions are scanned only when one of them is out of range."""

    def __init__(self, keys, key_of: np.ndarray, t: Trajectory):
        if len(t) < 2:
            raise ValueError("successors extraction needs a trajectory of length >= 2")
        self._keys, self._key_of, self._t = keys, key_of, t
        outside = (key_of < 0) | (key_of >= len(keys))      # per label, in t or not
        self.stray = None
        if outside.any() and not set(compress(t.labels, outside.tolist())).isdisjoint(
                t.observed()):
            self.stray = t.labels[t.codes[np.flatnonzero(outside.take(t.codes))[0]]]

    @cached_property
    def data(self) -> dict:
        prev = self._key_of.astype(np.intp).take(self._t.codes[:-1])
        nxt = np.array(self._t.labels, dtype=object)[self._t.codes[1:]]
        return {k: tuple(nxt[prev == i].tolist()) for i, k in enumerate(self._keys)}


def extract(t: Trajectory, alphabet: Alphabet | None = None) -> SuccessorsArray:
    """Successors array keyed by symbol, with its pair counts, from ``t``'s codes.

    With an explicit alphabet, unvisited symbols get empty rows and every
    symbol, the last one included, must belong to it; otherwise rows exist for
    exactly the symbols observed in the trajectory. The pair counts are a
    ``(K, K)`` gather of :attr:`Trajectory.transitions`; the rows are decoded
    only when read.
    """
    keys = alphabet.emittable if alphabet is not None else sorted(t.observed())
    K = len(keys)     # labels outside the keys code to K and up
    key_of = encode(t.labels, {k: i for i, k in enumerate(keys)})
    rows = _CodedRows(keys, key_of, t)
    if rows.stray is not None:
        raise ValueError(f"trajectory symbol {rows.stray!r} is not in the given alphabet")
    used, counts = t.transitions
    inside = np.flatnonzero(key_of[used] < K)    # the labels outside occur nowhere
    at = key_of[used[inside]]
    pairs = np.zeros((K, K), np.intp)
    pairs[at[:, None], at] = counts[inside[:, None], inside]
    return SuccessorsArray(rows, len(t), pair_counts=pairs)


def extract_partitioned(t: Trajectory, partition: Partition) -> SuccessorsArray:
    """Successors array keyed by 1-based cell index; singleton cells reproduce extract."""
    rows = _CodedRows(range(1, partition.n_cells + 1), partition.cells_of(t.labels) - 1, t)
    if rows.stray is not None:
        try:
            partition.cell_index_of(rows.stray)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
    return SuccessorsArray(rows, len(t))
