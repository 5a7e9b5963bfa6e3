"""Independent brute-force oracles the tests check the library against.

Everything here evaluates the defining sums directly by enumerating strings,
hidden paths, or cell paths with itertools -- no forward recursions, no closed
forms -- so the oracles share no code path with the implementations they check.
The reference samplers draw one trajectory at a time with scalar binary
searches, in the documented draw order the lockstep samplers must reproduce.
"""

from bisect import bisect_right
from itertools import product

import numpy as np


def iid_law_by_paths(m, N):
    """{string: sum_h mu_h prod_n p_h(y_n)} over all strings y_0..y_N."""
    K = m.alphabet.size
    em = m.alphabet.emittable
    out = {}
    for idx in product(range(K), repeat=N + 1):
        p = 0.0
        for mu, comp in zip(m.weights.weights, m.components):
            term = mu
            for i in idx:
                term *= comp.weights[i]
            p += term
        out[tuple(em[i] for i in idx)] = p
    return out


def markov_law_by_paths(m, N):
    """{string: sum_h mu_h P^h[y0,y1]...P^h[y_{N-1},yN]} over strings y_1..y_N."""
    K = m.alphabet.size
    em = m.alphabet.emittable
    y0 = m.alphabet.emit_index(m.y0)
    out = {}
    for idx in product(range(K), repeat=N):
        p = 0.0
        for mu, comp in zip(m.weights.weights, m.components):
            term = mu
            prev = y0
            for i in idx:
                term *= comp.rows[prev, i]
                prev = i
            p += term
        out[tuple(em[i] for i in idx)] = p
    return out


def hmm_law_by_hidden_paths(m, N):
    """{string: sum over hidden paths of pi * prod f * prod P} over strings y_0..y_N."""
    K, X = m.alphabet.size, m.n_hidden
    em = m.alphabet.emittable
    out = {}
    for idx in product(range(K), repeat=N + 1):
        p = 0.0
        for xs in product(range(X), repeat=N + 1):
            term = m.pi.weights[xs[0]]
            for t, i in enumerate(idx):
                term *= m.readout[xs[t], i]
            for t in range(N):
                term *= m.P.rows[xs[t], xs[t + 1]]
            p += term
        out[tuple(em[i] for i in idx)] = p
    return out


def partitioned_law_by_cell_paths(m, N):
    """Direct evaluation of the cell-path double sum over strings y_1..y_N.

    For each string and each cell path j_1..j_N, a term survives only when
    every y_n lies in E_{j_n}; the kernel factors are t_h(j_{n-1}, y_n) with
    j_0 = 1 (the start symbol's cell).
    """
    K = m.alphabet.size
    em = m.alphabet.emittable
    J = m.partition.n_cells
    cell_of = [m.partition.cell_index_of(s) for s in em]
    out = {}
    for idx in product(range(K), repeat=N):
        p = 0.0
        for h in range(m.n_components):
            for js in product(range(1, J + 1), repeat=N):
                if any(cell_of[i] != j for i, j in zip(idx, js)):
                    continue
                term = m.weights[h]
                prev_j = 1
                for i, j in zip(idx, js):
                    term *= m.kernels[h, prev_j - 1, i]
                    prev_j = j
                p += term
        out[tuple(em[i] for i in idx)] = p
    return out


def law_to_dict(law):
    return {s: p for s, p in law.entries()}


def max_gap(law, oracle_table):
    """Largest |law - oracle| over the union of strings."""
    mine = law_to_dict(law)
    gap = 0.0
    for s in mine.keys() | oracle_table.keys():
        gap = max(gap, abs(mine.get(s, 0.0) - oracle_table.get(s, 0.0)))
    return gap


def cesaro_by_partial_average(P, n):
    """(1/n) * sum_{k=1}^{n} P^k, the defining partial average."""
    acc = np.zeros_like(P)
    power = np.eye(P.shape[0])
    for _ in range(n):
        power = power @ P
        acc += power
    return acc / n


def cesaro_by_halving(P, n):
    """Iterate A <- (A + A P)/2 from A = P; same limit, geometric convergence.

    The plain partial average converges like 1/n and cannot reach tight
    tolerances at moderate n; this iteration computes P ((I+P)/2)^n whose
    distance to the limit decays geometrically for every recurrent P.
    """
    A = P.copy()
    for _ in range(n):
        A = 0.5 * (A + A @ P)
    return A


# ---------------------------------------------------------------------------
# Reference draw order: one trajectory at a time, one scalar lookup per draw


def _pick(cum, u):
    return min(bisect_right(cum, u), len(cum) - 1)


def _cumrows(rows):
    return np.cumsum(rows, axis=1).tolist()


def reference_sample(m, length, src, trace_hidden=False):
    """(symbols, hidden or None) of one trajectory on ``src``'s stream.

    Mixtures: one uniform picks the component, then one per drawn symbol (all
    ``length`` for i.i.d. mixtures, ``length - 1`` after ``y0`` otherwise).
    HMMs: ``2 * length`` uniforms, hidden state then symbol at each time.
    """
    from chainmix.model_core import (HMMModel, IIDMixtureModel, MarkovMixtureModel,
                                     PartitionedKernelMixture)

    gen = src.generator()
    em = m.alphabet.emittable
    if isinstance(m, HMMModel):
        cum_p, cum_f = _cumrows(m.P.rows), _cumrows(m.readout)
        us = gen.random(2 * length)
        x = _pick(np.cumsum(m.pi.weights).tolist(), us[0])
        xs, ys = [x], [_pick(cum_f[x], us[1])]
        for t in range(1, length):
            x = _pick(cum_p[x], us[2 * t])
            xs.append(x)
            ys.append(_pick(cum_f[x], us[2 * t + 1]))
        hidden = tuple(m.hidden_states[x] for x in xs) if trace_hidden else None
        return tuple(em[y] for y in ys), hidden
    h = _pick(np.cumsum(m.weights.weights).tolist(), gen.random())
    if isinstance(m, IIDMixtureModel):
        cum = np.cumsum(m.components[h].weights)
        idx = np.minimum(np.searchsorted(cum, gen.random(length), side="right"), cum.size - 1)
        return tuple(em[i] for i in idx), None
    if isinstance(m, MarkovMixtureModel):
        cum = _cumrows(m.components[h].rows)
        cur = m.alphabet.emit_index(m.y0)
        out = [m.y0]
        for u in gen.random(length - 1):
            cur = _pick(cum[cur], u)
            out.append(em[cur])
        return tuple(out), None
    assert isinstance(m, PartitionedKernelMixture)
    cum = _cumrows(m.kernels[h])
    cells = m.cell_index_array.tolist()
    j = m.partition.cell_index_of(m.y0)
    out = [m.y0]
    for u in gen.random(length - 1):
        nxt = _pick(cum[j - 1], u)
        out.append(em[nxt])
        j = cells[nxt]
    return tuple(out), None


def reference_joint_paths(jc, length, count, src):
    """Pair-index paths of a joint chain; path i reads row i of one
    ``(count, length)`` block of uniforms from ``src``'s stream."""
    gen = src.generator()
    cum_init = np.cumsum(jc.init)
    cum_rows = _cumrows(jc.trans)
    out = np.empty((count, length), dtype=np.int64)
    us = gen.random((count, length))
    for i in range(count):
        p = min(int(np.searchsorted(cum_init, us[i, 0], side="right")), jc.n_pairs - 1)
        out[i, 0] = p
        for t in range(1, length):
            cum = cum_rows[p]
            lo, hi = 0, len(cum) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid] > us[i, t]:
                    hi = mid
                else:
                    lo = mid + 1
            p = lo
            out[i, t] = p
    return out
