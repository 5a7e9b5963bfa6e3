"""Structural analysis of stochastic matrices.

All structure comes from one reachability closure ``R`` of the
positive-transition digraph. A state recurs iff every state it reaches reaches
it back; the recurrence classes are the rows ``R[v]`` of recurrent states, and
everything else is transient. Each class carries a unique stationary vector,
found by GTH elimination: it never subtracts, so no entry is negative, and its
sums run in a fixed order, so no BLAS or LAPACK build moves a digit. Assembling
those vectors row-wise gives the Cesaro limit ``P* = lim (1/n) sum_k P^k`` in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ReducibleMatrixError, TransientStatesError
from .model_core import Distribution, StochasticMatrix

EDGE_TOL = 1e-14          # entries above this count as graph edges


@dataclass(frozen=True)
class ClassDecomposition:
    """Recurrence classes (as index tuples), transient states, per-class stationary vectors."""

    labels: tuple[str, ...]
    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]
    stationary: tuple[Distribution, ...]


def reachability(adj: np.ndarray) -> np.ndarray:
    """Boolean closure of the graph ``adj``: ``R[i, j]`` iff ``j`` is reachable from
    ``i`` in zero or more steps.

    Repeated squaring of ``adj | I`` as float32 0/1 matrices. An entry of a product
    counts paths, at most ``n < 2**24``, so it is exact and only its sign is read.
    Squaring stops once it adds no pair.
    """
    R = adj | np.eye(len(adj), dtype=bool)
    while True:
        F = R.astype(np.float32)
        R2 = F @ F > 0
        if np.array_equal(R2, R):
            return R
        R = R2


def recurrence_classes(R: np.ndarray) -> list[list[int]]:
    """Closed classes of the closure ``R``: the row ``R[v]`` of each recurrent ``v``
    that is its row's smallest member, in order of that member."""
    recurrent = (R <= R.T).all(axis=1)
    first = ~np.tril(R, -1).any(axis=1)
    return [np.flatnonzero(R[v]).tolist() for v in np.flatnonzero(recurrent & first)]


def _class_stationary(rows: np.ndarray, members: list[int]) -> np.ndarray:
    """Unique solution of ``pi P = pi, sum pi = 1`` on one closed irreducible class.

    GTH elimination (Grassmann, Taksar & Heyman 1985) from the last state down,
    each dividing by its mass to the states still left (positive, by
    irreducibility), then back-substitution from ``pi[0] = 1``. The diagonal is
    never read: the chain solved has ``p_kk = 1 - sum_{j != k} p_kj``, which is
    what a row summing to 1 within ``SUM_TOL`` means.
    """
    A = rows[np.ix_(members, members)]
    for k in range(len(members) - 1, 0, -1):
        A[:k, k] /= math.fsum(A[k, :k])
        A[:k, :k] += A[:k, k, None] * A[k, :k]
    pi = np.ones(len(members))
    for k in range(1, len(members)):
        pi[k] = math.fsum(pi[:k] * A[:k, k])
    return pi / math.fsum(pi)


def decompose(P: StochasticMatrix) -> ClassDecomposition:
    """Recurrence classes, transient states, and per-class stationary vectors."""
    R = reachability(P.rows > EDGE_TOL)
    classes = tuple(map(tuple, recurrence_classes(R)))
    transient = tuple(np.flatnonzero(~(R <= R.T).all(axis=1)).tolist())
    stationary = tuple(Distribution(_class_stationary(P.rows, list(c))) for c in classes)
    return ClassDecomposition(P.labels, classes, transient, stationary)


def _as_indices(P: StochasticMatrix, support) -> list[int]:
    out = []
    for s in support:
        out.append(s if isinstance(s, (int, np.integer)) else P.label_index(s))
    return out


def is_recurrent(P: StochasticMatrix, support) -> bool:
    """True iff no state reachable from ``support`` is transient.

    Reachability alone decides it: no stationary vector is solved for.
    """
    R = reachability(P.rows > EDGE_TOL)
    reach = R[_as_indices(P, support)].any(axis=0)
    return bool(np.all(reach <= (R <= R.T).all(axis=1)))


def stationary_distribution(P: StochasticMatrix) -> Distribution:
    """Stationary vector of an irreducible closed matrix; rejects reducible input."""
    dec = decompose(P)
    if dec.transient or len(dec.classes) != 1 or len(dec.classes[0]) != P.size:
        raise ReducibleMatrixError("matrix is not a single closed irreducible class")
    return dec.stationary[0]


def cesaro_limit(P: StochasticMatrix) -> StochasticMatrix:
    """Closed-form ``P* = lim (1/n) sum_{k<=n} P^k`` for a recurrent matrix.

    Row ``x`` of ``P*`` is the stationary vector of the class containing ``x``,
    so ``P*`` is a direct sum of identical-row blocks. Transient states are
    rejected: the limit of the averages is not row-stochastic blockwise there.
    """
    dec = decompose(P)
    if dec.transient:
        raise TransientStatesError(
            f"cesaro_limit requires a recurrent matrix; transient states {list(dec.transient)}"
        )
    out = np.zeros_like(P.rows)
    for members, stat in zip(dec.classes, dec.stationary):
        idx = list(members)
        out[np.ix_(idx, idx)] = np.tile(stat.weights, (len(idx), 1))
    return StochasticMatrix(out, P.labels)
