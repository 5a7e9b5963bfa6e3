"""Structural analysis of stochastic matrices.

Recurrence classes of a finite chain are the closed strongly connected
components of the positive-transition digraph; everything else is transient.
Each class carries a unique stationary vector, and assembling those vectors
row-wise gives the Cesaro limit ``P* = lim (1/n) sum_k P^k`` in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReducibleMatrixError, TransientStatesError
from .model_core import Distribution, StochasticMatrix

EDGE_TOL = 1e-14          # entries above this count as graph edges
RESIDUAL_TOL = 1e-10      # acceptable ||pi P - pi||_inf for stationary solves


@dataclass(frozen=True)
class ClassDecomposition:
    """Recurrence classes (as index tuples), transient states, per-class stationary vectors."""

    labels: tuple[str, ...]
    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]
    stationary: tuple[Distribution, ...]


def adjacency(rows: np.ndarray, tol: float = EDGE_TOL) -> list[list[int]]:
    return [[int(w) for w in np.flatnonzero(row > tol)] for row in rows]


def strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components returned sorted by smallest member."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(edge_pos, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return sorted(comps, key=min)


def _class_stationary(rows: np.ndarray, members: list[int]) -> np.ndarray:
    """Unique solution of ``pi P = pi, sum pi = 1`` on one closed irreducible class.

    Dense LU solve (partial pivoting) of the transposed balance equations with
    the last equation replaced by the normalization constraint.
    """
    sub = rows[np.ix_(members, members)]
    n = len(members)
    A = sub.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    residual = float(np.max(np.abs(pi @ sub - pi)))
    if np.any(pi < 0) or residual > RESIDUAL_TOL:
        raise ReducibleMatrixError(
            f"stationary solve failed on class {members} (residual {residual:g})"
        )
    return pi / pi.sum()


def decompose(P: StochasticMatrix) -> ClassDecomposition:
    """Recurrence classes, transient states, and per-class stationary vectors."""
    adj = adjacency(P.rows)
    comps = strongly_connected_components(adj)
    classes, transient = [], []
    for comp in comps:
        members = set(comp)
        closed = all(w in members for v in comp for w in adj[v])
        if closed:
            classes.append(tuple(comp))
        else:
            transient.extend(comp)
    stationary = tuple(Distribution(_class_stationary(P.rows, list(c))) for c in classes)
    return ClassDecomposition(P.labels, tuple(classes), tuple(sorted(transient)), stationary)


def _as_indices(P: StochasticMatrix, support) -> list[int]:
    out = []
    for s in support:
        out.append(s if isinstance(s, (int, np.integer)) else P.label_index(s))
    return out


def reachable_states(rows: np.ndarray, starts, tol: float = EDGE_TOL) -> set[int]:
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in np.flatnonzero(rows[v] > tol):
            if int(w) not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    return seen


def is_recurrent(P: StochasticMatrix, support) -> bool:
    """True iff no state reachable from ``support`` is transient."""
    dec = decompose(P)
    reach = reachable_states(P.rows, _as_indices(P, support))
    return not (reach & set(dec.transient))


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
