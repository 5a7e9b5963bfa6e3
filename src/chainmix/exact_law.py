"""Comparison algebra on :class:`FiniteLaw` tables.

Total variation, equality-within-tolerance with a max-discrepancy report, and
the marginal / conditioning helpers needed to align the two string conventions
(laws over ``Y_0..Y_N`` versus laws over ``Y_1..Y_N`` with a fixed start symbol).
All work on the sorted ``(rank, prob)`` arrays: comparisons align two laws on the
union of their ranks, marginals regroup ranks, conditioning slices and lifts shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LawMismatchError
from .model_core import FiniteLaw, rank_digits, rank_dtype, rank_union


def _gaps(a: FiniteLaw, b: FiniteLaw) -> tuple[np.ndarray, np.ndarray]:
    """The union of the live ranks of ``a`` and ``b``, and ``|a(s) - b(s)|`` on it."""
    if a.alphabet.symbols != b.alphabet.symbols:
        raise LawMismatchError("laws use different alphabets")
    if a.length != b.length:
        raise LawMismatchError(f"laws have different string lengths ({a.length} vs {b.length})")
    ranks = a.ranks if np.array_equal(a.ranks, b.ranks) else rank_union(a.ranks, b.ranks)
    gaps = np.zeros(ranks.size)
    gaps[np.searchsorted(ranks, a.ranks)] = a.probs
    gaps[np.searchsorted(ranks, b.ranks)] -= b.probs
    return ranks, np.abs(gaps, out=gaps)


def total_variation(a: FiniteLaw, b: FiniteLaw) -> float:
    """``(1/2) sum_s |a(s) - b(s)|`` over the common string set, with the sum of the
    entrywise gaps correctly rounded (``math.fsum``): no storage or order enters it."""
    return 0.5 * math.fsum(_gaps(a, b)[1])


@dataclass(frozen=True)
class LawComparison:
    equal: bool
    max_gap: float
    worst_string: tuple[str, ...] | None
    tol: float

    def __bool__(self) -> bool:
        return self.equal


def laws_equal(a: FiniteLaw, b: FiniteLaw, tol: float) -> LawComparison:
    """Entrywise comparison; reports the argmax-discrepancy string on failure, the
    lowest-ranked (alphabet-first) one among ties."""
    ranks, gaps = _gaps(a, b)
    max_gap, worst = 0.0, None
    if gaps.size:
        i = int(np.argmax(gaps))
        max_gap = float(gaps[i])
        worst = a.labels_of(rank_digits(ranks[i:i + 1], a.alphabet.size, a.length)[0])
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
    k, n = a.alphabet.size, a.length - 1
    ranks = np.asarray(a.ranks % k ** n if first else a.ranks // k, dtype=rank_dtype(k, n))
    live = rank_union(ranks)
    probs = np.zeros(live.size)
    # unbuffered, in ascending rank of ``a``: each group adds up as 0.0 + p_1 + p_2 + ...
    np.add.at(probs, np.searchsorted(live, ranks), a.probs)
    return FiniteLaw(a.alphabet, n, live, probs)


def condition_on_first(a: FiniteLaw, symbol: str) -> FiniteLaw:
    """Law of the remaining symbols given that the first symbol equals ``symbol``."""
    if a.length < 2:
        raise LawMismatchError("cannot condition a length-1 law")
    k, n = a.alphabet.size, a.length - 1
    low = a.alphabet.emit_index(symbol) * k ** n
    lo = int(np.searchsorted(a.ranks, low))
    hi = int(np.searchsorted(a.ranks, low + k ** n - 1, side="right"))
    picked = a.probs[lo:hi]
    mass = sum(picked.tolist())
    if mass <= 1e-12:
        raise LawMismatchError(f"first symbol {symbol!r} has no mass to condition on")
    return FiniteLaw(a.alphabet, n, a.ranks[lo:hi] - low, picked / mass)


def lift_with_prefix(a: FiniteLaw, symbol: str) -> FiniteLaw:
    """Prepend a deterministic symbol, turning a ``Y_1..Y_N`` law into ``Y_0..Y_N``."""
    e, k, n = a.alphabet.emit_index(symbol), a.alphabet.size, a.length
    ranks = np.asarray(a.ranks, dtype=rank_dtype(k, n + 1)) + e * k ** n
    return FiniteLaw(a.alphabet, n + 1, ranks, a.probs)
