"""Comparison algebra on :class:`FiniteLaw` tables.

Total variation, equality-within-tolerance with a max-discrepancy report, and
the marginal / conditioning helpers needed to align the two string conventions
(laws over ``Y_0..Y_N`` versus laws over ``Y_1..Y_N`` with a fixed start symbol).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LawMismatchError
from .model_core import FiniteLaw, rank_digits, rank_table


def _require_comparable(a: FiniteLaw, b: FiniteLaw) -> None:
    if a.alphabet.symbols != b.alphabet.symbols:
        raise LawMismatchError("laws use different alphabets")
    if a.length != b.length:
        raise LawMismatchError(f"laws have different string lengths ({a.length} vs {b.length})")


def total_variation(a: FiniteLaw, b: FiniteLaw) -> float:
    """``(1/2) sum_s |a(s) - b(s)|`` over the common string set."""
    _require_comparable(a, b)
    if a.dense is not None and b.dense is not None:
        return 0.5 * float(np.abs(a.dense - b.dense).sum())
    na, nb = a.nonzero(), b.nonzero()
    return 0.5 * sum(abs(na.get(s, 0.0) - nb.get(s, 0.0)) for s in na.keys() | nb.keys())


@dataclass(frozen=True)
class LawComparison:
    equal: bool
    max_gap: float
    worst_string: tuple[str, ...] | None
    tol: float

    def __bool__(self) -> bool:
        return self.equal


def laws_equal(a: FiniteLaw, b: FiniteLaw, tol: float) -> LawComparison:
    """Entrywise comparison; reports the argmax-discrepancy string on failure."""
    _require_comparable(a, b)
    if a.dense is not None and b.dense is not None:
        gaps = np.abs(a.dense - b.dense)
        i = int(np.argmax(gaps))
        worst = a.labels_of(rank_digits([i], a.alphabet.size, a.length)[0])
        max_gap = float(gaps[i])
    else:
        na, nb = a.nonzero(), b.nonzero()
        max_gap, worst_idx = 0.0, None
        for s in na.keys() | nb.keys():
            g = abs(na.get(s, 0.0) - nb.get(s, 0.0))
            if g > max_gap:
                max_gap, worst_idx = g, s
        worst = a.labels_of(worst_idx) if worst_idx is not None else None
    equal = max_gap <= tol
    return LawComparison(equal, max_gap, None if equal else worst, tol)


def marginalize_last(a: FiniteLaw) -> FiniteLaw:
    """Sum out the final symbol; length drops by one."""
    return _sum_out(a, first=False)


def marginalize_first(a: FiniteLaw) -> FiniteLaw:
    """Sum out the first symbol; length drops by one."""
    return _sum_out(a, first=True)


def _sum_out(a: FiniteLaw, first: bool) -> FiniteLaw:
    if a.length < 2:
        raise LawMismatchError("cannot marginalize a length-1 law")
    k = a.alphabet.size
    if a.dense is not None:
        table = a.dense.reshape(k, -1) if first else a.dense.reshape(-1, k)
        return FiniteLaw.from_flat(a.alphabet, a.length - 1, table.sum(axis=0 if first else 1))
    rest = slice(1, None) if first else slice(None, -1)
    out: dict = {}
    for idx, p in a.sparse.items():
        out[idx[rest]] = out.get(idx[rest], 0.0) + p
    return FiniteLaw(a.alphabet, a.length - 1, sparse=out)


def condition_on_first(a: FiniteLaw, symbol: str) -> FiniteLaw:
    """Law of the remaining symbols given that the first symbol equals ``symbol``."""
    if a.length < 2:
        raise LawMismatchError("cannot condition a length-1 law")
    e = a.alphabet.emit_index(symbol)
    picked = {idx[1:]: p for idx, p in a.nonzero().items() if idx[0] == e}
    mass = sum(picked.values())
    if mass <= 1e-12:
        raise LawMismatchError(f"first symbol {symbol!r} has no mass to condition on")
    return FiniteLaw(a.alphabet, a.length - 1,
                     sparse={idx: p / mass for idx, p in picked.items()})


def lift_with_prefix(a: FiniteLaw, symbol: str) -> FiniteLaw:
    """Prepend a deterministic symbol, turning a ``Y_1..Y_N`` law into ``Y_0..Y_N``."""
    e, k, n = a.alphabet.emit_index(symbol), a.alphabet.size, a.length
    if a.sparse is not None:
        return FiniteLaw(a.alphabet, n + 1, sparse={(e, *s): p for s, p in a.sparse.items()})
    ranks = np.flatnonzero(a.dense)
    return FiniteLaw(a.alphabet, n + 1,
                     sparse=rank_table(ranks + e * k ** n, a.dense[ranks], k, n + 1))
