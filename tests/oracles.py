"""Independent brute-force oracles the tests check the library against.

Everything here evaluates the defining sums directly by enumerating strings,
hidden paths, or cell paths with itertools -- no forward recursions, no closed
forms -- so the oracles share no code path with the implementations they check.
The reference samplers draw one trajectory at a time with scalar binary
searches, in the documented draw order the table-walk samplers must reproduce,
and ``reference_walk`` is the sampler's former walk (per-column comparisons or
``bisect_right``, no table), whose every outcome the table walk must equal.
The reference verifiers propagate one request, line and instance at a time:
they are the per-instance transfer-matrix code whose every float the batched
exact lemma engine must reproduce. Every float contraction of the exact law and
lemma references is ``reference_contract``, an explicit left-to-right loop that
shares no code with the library's einsum ``contract``. The reference Monte Carlo
verifier enumerates its four families by hand over count tables, so the shared
instance tables' path counts have an independent check. The graph references
answer each structural question by its own search, where the library reads
every answer from one reachability closure. The reference trajectory reader
strips and splits every line, where the library slices lines of one-character
labels. The in-loop budget law checks its budget step by step as it
enumerates, where the library counts live prefixes from the supports before
any enumeration. The stationary reference solves the
balance equations exactly in rationals, where the library eliminates in floats,
and the rational HMM law bounds the forward pass's floats. The product inverse
detects the block structure of ``markov_mixture_to_hmm``'s images, where the
library builds one component per recurrence class and certifies its law.
"""

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from chainmix.chain_analysis import EDGE_TOL
from chainmix.errors import StructureError
from chainmix.model_core import (Distribution, MarkovMixtureModel, StochasticMatrix,
                                 require_valid)


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


# ---------------------------------------------------------------------------
# Reference law bodies: full K^length tables, every string enumerated, dead
# ones included. The engine that extends only live prefixes must give the
# same floats on every live string.
# They return the two-form law that the sorted (rank, prob) arrays replaced:
# a dense flat table, or a dict of emit-index tuples below SPARSE_FRACTION.

SPARSE_FRACTION = 0.25    # tables with fewer nonzeros than this fraction went sparse


@dataclass(frozen=True)
class TwoFormLaw:
    alphabet: object
    length: int
    dense: np.ndarray | None = None
    sparse: dict | None = None


def rank_table(ranks, probs, k, length):
    """``{emit-index tuple: probability}`` keyed in the order of ``ranks``."""
    return {reference_unrank(int(r), k, length): float(p) for r, p in zip(ranks, probs)}


def reference_from_flat(alphabet, length, flat):
    """A full table's law: sparse below ``SPARSE_FRACTION`` nonzeros, else dense."""
    nonzero = np.flatnonzero(flat)
    if nonzero.size < SPARSE_FRACTION * flat.size:
        return TwoFormLaw(alphabet, length,
                          sparse=rank_table(nonzero, flat[nonzero], alphabet.size, length))
    flat = flat.copy()
    flat.setflags(write=False)
    return TwoFormLaw(alphabet, length, dense=flat)


def reference_live(law):
    """``(ranks, probs)`` of a two-form law's nonzero entries in its own order, or a
    ``FiniteLaw``'s arrays."""
    if not isinstance(law, TwoFormLaw):
        return law.ranks, law.probs
    if law.sparse is None:
        ranks = np.flatnonzero(law.dense)
        return ranks, law.dense[ranks]
    k = law.alphabet.size
    ranks = [sum(d * k ** (law.length - 1 - i) for i, d in enumerate(idx)) for idx in law.sparse]
    return np.array(ranks, dtype=np.int64), np.array(list(law.sparse.values()))


def reference_iid_mixture_law(m, N):
    k, L = m.alphabet.size, N + 1
    flat = np.zeros(k ** L)
    for mu, comp in zip(m.weights.weights, m.components):
        t = comp.weights
        for _ in range(L - 1):
            t = np.multiply.outer(t, comp.weights).ravel()
        flat += mu * t
    return reference_from_flat(m.alphabet, L, flat)


def reference_markov_mixture_law(m, N):
    k = m.alphabet.size
    y0 = m.alphabet.emit_index(m.y0)
    flat = np.zeros(k ** N)
    for mu, comp in zip(m.weights.weights, m.components):
        P = comp.rows
        t = P[y0]
        for _ in range(N - 1):
            t = (t.reshape(-1, k)[:, :, None] * P[None, :, :]).ravel()
        flat += mu * t
    return reference_from_flat(m.alphabet, N, flat)


def reference_contract(A, M):
    """``A @ M`` as the explicit left-to-right loop ``out = ((0 + a_0 m_0) + a_1 m_1) + ...``
    over the last axis of ``A`` and the first of ``M`` (a vector or a matrix): one
    multiply and one add per term, in NumPy's elementwise ufuncs, so the order holds
    on every CPU and build. Runs on object arrays of ``Fraction`` too."""
    out = 0
    for x in range(A.shape[-1]):
        out = out + np.multiply.outer(A[..., x], M[x])
    return out


def reference_hmm_law(m, N):
    X, L = m.n_hidden, N + 1
    f = m.readout
    alphas = (m.pi.weights[:, None] * f).T
    for _ in range(L - 1):
        beta = reference_contract(alphas, m.P.rows)
        alphas = (beta[:, None, :] * f.T[None, :, :]).reshape(-1, X)
    return reference_from_flat(m.alphabet, L, alphas.sum(axis=1))


def fraction_hmm_law(m, N):
    """``{emit-index tuple: Fraction}``: the forward pass of ``reference_hmm_law`` in
    exact rational arithmetic on the model's floats, over every string ``y_0..y_N``."""
    def exact(a):
        return np.vectorize(Fraction, otypes=[object])(a)

    X, K = m.n_hidden, m.alphabet.size
    f, P = exact(m.readout), exact(m.P.rows)
    alphas = (exact(m.pi.weights)[:, None] * f).T
    for _ in range(N):
        beta = reference_contract(alphas, P)
        alphas = (beta[:, None, :] * f.T[None, :, :]).reshape(-1, X)
    return {idx: sum(alphas[r], Fraction(0))
            for r, idx in enumerate(product(range(K), repeat=N + 1))}


def reference_partitioned_mixture_law(m, N):
    k = m.alphabet.size
    cell_of = m.cell_index_array
    flat = np.zeros(k ** N)
    for h in range(m.n_components):
        P = m.kernels[h][cell_of - 1]
        t = m.kernels[h][0]
        for _ in range(N - 1):
            t = (t.reshape(-1, k)[:, :, None] * P[None, :, :]).ravel()
        flat += m.weights[h] * t
    return reference_from_flat(m.alphabet, N, flat)


def reference_in_loop_budget_law(m, N, budget):
    """A mixture law that checks the budget inside the enumeration, before each step's
    extension: the entries held (the terms of the components done) plus the live
    prefixes times ``K``, refused as soon as they pass ``budget``."""
    from chainmix.errors import EnumerationBudgetError
    from chainmix.model_core import FiniteLaw, IIDMixtureModel, MarkovMixtureModel, rank_union

    def check(entries, length):
        if entries > budget:
            raise EnumerationBudgetError(f"enumeration needs {entries} entries at length "
                                         f"{length}, exceeding the budget of {budget}")

    k = m.alphabet.size
    if isinstance(m, IIDMixtureModel):
        length, firsts = N + 1, [c.weights for c in m.components]
        rows = [np.broadcast_to(p, (k, k)) for p in firsts]
    elif isinstance(m, MarkovMixtureModel):
        y0 = m.alphabet.emit_index(m.y0)
        length, firsts, rows = N, [c.rows[y0] for c in m.components], [c.rows for c in m.components]
    else:
        length, firsts, rows = N, m.kernels[:, 0], m.kernels[:, m.cell_index_array - 1]
    check(k, 1)
    terms, held = [], 0
    for first, P in zip(firsts, rows):
        live = first != 0.0
        ranks, vals = np.arange(k)[live], first[live]
        for n in range(1, length):
            check(held + ranks.size * k, n + 1)
            vals = (vals[:, None] * P[ranks % k]).ravel()
            ranks = ((ranks * k)[:, None] + np.arange(k)).ravel()
            live = vals != 0.0
            ranks, vals = ranks[live], vals[live]
        terms.append((ranks, vals))
        held += ranks.size
    union = rank_union(*(ranks for ranks, _ in terms))
    acc = np.zeros(union.size)
    for mu, (ranks, vals) in zip(m.weights.weights, terms):
        acc[np.searchsorted(union, ranks)] += mu * vals
    return FiniteLaw.from_ranks(m.alphabet, length, union, acc)


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


def reference_stationary(rows):
    """Exact stationary vector, as Fractions, of the irreducible chain with the
    off-diagonal entries of ``rows`` and the derived diagonal ``p_kk = 1 -
    sum_{j != k} p_kj``. Gauss-Jordan elimination in rational arithmetic of the
    balance equations ``sum_i pi_i (p_ij - [i = j]) = 0``, the last one replaced
    by ``sum pi = 1``."""
    n = len(rows)
    P = [[Fraction(x) for x in row] for row in rows]
    A = [[P[i][j] if i != j else -sum(P[j][:j] + P[j][j + 1:]) for i in range(n)] + [0]
         for j in range(n)]
    A[-1] = [Fraction(1)] * (n + 1)
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            f = A[r][c]
            if r != c and f:
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n] for row in A]


# ---------------------------------------------------------------------------
# Graph structure by search, one algorithm per question: Tarjan's strongly
# connected components, depth-first reach over states and over cells, and a
# union-find for weak components. The library reads all four answers from one
# reachability closure.


def reference_scc(adj):
    """Iterative Tarjan; components returned sorted by smallest member."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
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


def reference_classes(rows):
    """(recurrence classes, transient states): the closed strongly connected
    components of the graph of entries above ``EDGE_TOL``, and the rest."""
    adj = [[int(w) for w in np.flatnonzero(row > EDGE_TOL)] for row in rows]
    classes, transient = [], []
    for comp in reference_scc(adj):
        members = set(comp)
        if all(w in members for v in comp for w in adj[v]):
            classes.append(tuple(comp))
        else:
            transient.extend(comp)
    return tuple(classes), tuple(sorted(transient))


def reference_reachable_states(rows, starts):
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in np.flatnonzero(rows[v] > EDGE_TOL):
            if int(w) not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    return seen


def reference_is_recurrent(rows, starts):
    """True iff no state reachable from ``starts`` is transient."""
    return not reference_reachable_states(rows, starts) & set(reference_classes(rows)[1])


def reference_reachable_cells(table, cell_of, J):
    """Cells reachable from cell 1 under positive kernel mass (cell 1 included)."""
    frontier, seen = [1], {1}
    while frontier:
        j = frontier.pop()
        row = table[j - 1]
        for j2 in range(1, J + 1):
            if j2 not in seen and float(row[cell_of == j2].sum()) > EDGE_TOL:
                seen.add(j2)
                frontier.append(j2)
    return seen


def reference_weak_components(rows):
    n = rows.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in zip(*np.nonzero(rows > EDGE_TOL)):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=min)


def reference_product_inverse(m):
    """The inverse of ``markov_mixture_to_hmm`` by detecting its product structure, as the
    library ran it before the class construction: deterministic read-outs, one initial
    state and distinct symbols per weakly connected block, a common start symbol, and
    recurrent recovered components, each refused with ``StructureError``."""
    require_valid(m)
    K = m.alphabet.size
    emit = []
    for x, row in enumerate(m.readout):
        top = int(np.argmax(row))
        rest = np.delete(row, top)
        if abs(row[top] - 1.0) > 1e-12 or (rest.size and float(rest.max()) > 1e-12):
            raise StructureError(f"read-out of hidden state {m.hidden_states[x]!r} is not "
                                 "deterministic")
        emit.append(top)
    weights, components, y0_candidates = [], [], []
    for block in reference_weak_components(m.P.rows):
        mu = float(m.pi.weights[block].sum())
        if mu <= 0.0:
            warnings.warn(f"dropping block {block}: zero initial mass")
            continue
        support = [x for x in block if m.pi.weights[x] > 0.0]
        if len(support) != 1:
            raise StructureError("initial mass is not concentrated on one state per block")
        symbols = [emit[x] for x in block]
        if len(set(symbols)) != len(symbols):
            raise StructureError("two states of one block emit the same symbol")
        y0_candidates.append(emit[support[0]])
        rows = np.eye(K)
        for u in block:
            rows[emit[u], :] = 0.0
            for v in block:
                rows[emit[u], emit[v]] = m.P.rows[u, v]
        weights.append(mu)
        components.append(StochasticMatrix(rows, m.alphabet.emittable))
    if len(set(y0_candidates)) != 1:
        raise StructureError("blocks disagree on the start symbol")
    for h, comp in enumerate(components):
        if not reference_is_recurrent(comp.rows, [y0_candidates[0]]):
            raise StructureError(f"recovered component {h} is not recurrent")
    return MarkovMixtureModel(m.alphabet, m.alphabet.emittable[y0_candidates[0]],
                              Distribution(np.array(weights)), tuple(components))


def reference_partitioned_to_hmm(m, i0):
    """``partitioned_mixture_to_hmm`` as the library ran it before the array form: every
    (component, previous cell, current cell) triple walked in Python through a position
    table, its cell masses summed over the extended kernel whose row 0 is ``delta_y0``."""
    from chainmix.constructions import _prune_hidden, partitioned_product_states
    from chainmix.model_core import HMMModel

    J, K, H = m.partition.n_cells, m.alphabet.size, m.n_components
    cell_of = m.cell_index_array
    ext = np.zeros((H, J + 1, K))
    ext[:, 1:, :] = m.kernels
    ext[:, 0, m.alphabet.emit_index(m.y0)] = 1.0
    mass = np.zeros((H, J + 1, J + 1))
    for j in range(1, J + 1):
        mass[:, :, j] = ext[:, :, cell_of == j].sum(axis=2)

    states = partitioned_product_states(m)
    pos = {s: p for p, s in enumerate(states)}
    n = len(states)
    pi = np.zeros(n)
    for h in range(H):
        emittable_i = [i for i in range(J + 1) if mass[h, i, 1] > 0.0]
        z = float(i0.weights[emittable_i].sum())
        for i in emittable_i:
            pi[pos[(h, i, 1)]] = m.weights[h] * i0[i] / z
    P = np.zeros((n, n))
    readout = np.zeros((n, K))
    for p, (h, i, j) in enumerate(states):
        if j >= 1 and mass[h, i, j] > 0.0:
            readout[p] = np.where(cell_of == j, ext[h, i], 0.0) / mass[h, i, j]
        for j2 in range(1, J + 1):
            if mass[h, j, j2] > 0.0:
                P[p, pos[(h, j, j2)]] = mass[h, j, j2]
    labels = tuple(f"h{h}|i{i}|j{j}" for (h, i, j) in states)
    labels, pi, P, readout = _prune_hidden(labels, pi, P, readout)
    return HMMModel(labels, m.alphabet, Distribution(pi), StochasticMatrix(P, labels), readout)


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


# The sampler's walk before it became table-driven: an i.i.d. loop, a lockstep
# loop of one vector operation per column and draw, and a scalar loop
LOCKSTEP_PER_COLUMN = 16


def reference_walk(cum, nxt, row, us, per_column=LOCKSTEP_PER_COLUMN):
    """Advance one automaton per row of ``us``, one draw per column.

    Automaton ``i`` at row ``r`` draws, for its next uniform ``u``, outcome
    ``c = min(#{j : cum[r, j] <= u}, n - 1)`` of the ``n`` outcomes of row ``r``
    (``bisect_right`` clamped to the last outcome, the choice a scalar lookup
    makes with the same uniform), then moves to ``nxt[r, c]``. Returns the
    outcomes, one row per draw, and the rows after the last draw.

    Three loops give the same outcomes; the arguments choose one. When every
    automaton sits on a row it never leaves (an i.i.d. component), all draws
    are looked up at once. Otherwise a batch of at least ``per_column``
    automata per column of ``cum`` advances in lockstep, one vector operation
    per column and draw, reading the columns one at a time so that no automata
    by width block is gathered; a smaller batch is cheaper as one scalar
    ``bisect_right`` per automaton and draw.
    """
    out = np.zeros(us.shape[::-1], dtype=np.intp)
    if (nxt[row] == row[:, None]).all():
        for col in cum.T[:-1]:
            out += col[row] <= us.T
        return out, row
    if len(row) < per_column * cum.shape[1]:
        cl, nl, rows = cum[:, :-1].tolist(), nxt.tolist(), row.tolist()
        for i, ui in enumerate(us.tolist()):
            r, cs = rows[i], []
            for u in ui:
                c = bisect_right(cl[r], u)
                cs.append(c)
                r = nl[r][c]
            out[:, i], rows[i] = cs, r
        return out, np.array(rows, dtype=np.intp)
    for c, u in zip(out, us.T):
        for col in cum.T[:-1]:
            c += col[row] <= u
        row = nxt[row, c]
    return out, row


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


# ---------------------------------------------------------------------------
# Reference rank <-> digit conversion: one table entry at a time


def reference_unrank(r, k, length):
    """Emit-index tuple of flat index ``r``, first symbol most significant."""
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        out[pos] = r % k
        r //= k
    return tuple(out)


def reference_rank_table(flat, k, length):
    """``{emit-index tuple: probability}`` of a flat table's nonzeros, ascending index."""
    return {reference_unrank(int(i), k, length): float(flat[i]) for i in np.flatnonzero(flat)}


def reference_nonzero(law):
    """``{emit-index tuple: probability}`` of a law's live entries, one rank at a time."""
    if isinstance(law, TwoFormLaw):
        return dict(law.sparse) if law.sparse is not None else reference_rank_table(
            law.dense, law.alphabet.size, law.length)
    return rank_table(law.ranks, law.probs, law.alphabet.size, law.length)


def reference_entries(law):
    """``(label tuple, probability)`` of the nonzero entries, sorted by emit-index tuple."""
    em = law.alphabet.emittable
    nz = reference_nonzero(law)
    for idx in sorted(nz):
        yield tuple(em[i] for i in idx), nz[idx]


def reference_law_text(law):
    """The ``law`` command's output written one line at a time: the labels joined by
    spaces, then the probability as ``{p:.17g}``."""
    return "".join(f"{' '.join(s)} {p:.17g}\n" for s, p in reference_entries(law))


def reference_law_json(law):
    """The ``law --json`` output as one ``json.dumps`` of the whole report."""
    import json

    entries = [[list(s), p] for s, p in reference_entries(law)]
    return json.dumps({"length": law.length, "entries": entries}, indent=2, sort_keys=True) + "\n"


# The comparison algebra of the two-form law, on ``{emit-index tuple: prob}``
# dicts: the dict branch every mixed or sparse comparison took.


def reference_gaps(na, nb):
    """``{string: |a(s) - b(s)|}`` over the union of the live strings."""
    return {s: abs(na.get(s, 0.0) - nb.get(s, 0.0)) for s in na.keys() | nb.keys()}


def reference_laws_equal(na, nb):
    """``(max_gap, worst string)``: the first strictly larger gap in ascending
    string order, so ties go to the lowest string; ``(0.0, None)`` if no gap."""
    max_gap, worst = 0.0, None
    for s in sorted(na.keys() | nb.keys()):
        g = abs(na.get(s, 0.0) - nb.get(s, 0.0))
        if g > max_gap:
            max_gap, worst = g, s
    return max_gap, worst


def reference_sum_out(na, first):
    """Sum out the first (or last) symbol, each group added in ascending string order."""
    rest = slice(1, None) if first else slice(None, -1)
    out = {}
    for idx in sorted(na):
        out[idx[rest]] = out.get(idx[rest], 0.0) + na[idx]
    return out


def reference_condition_on_first(na, e):
    """Conditional law of the rest given first symbol ``e``; None without mass."""
    picked = {idx[1:]: p for idx, p in sorted(na.items()) if idx[0] == e}
    mass = sum(picked.values())
    if mass <= 1e-12:
        return None
    return {idx: p / mass for idx, p in picked.items()}


def reference_lift(na, e):
    return {(e, *s): p for s, p in na.items()}


def reference_extract(t, alphabet=None):
    """Successors array by one append per position, the final symbol unchecked."""
    from chainmix.successors import SuccessorsArray

    keys = alphabet.emittable if alphabet is not None else sorted(set(t.symbols))
    rows = {k: [] for k in keys}
    for i in range(len(t) - 1):
        s = t.symbols[i]
        if s not in rows:
            raise ValueError(f"trajectory symbol {s!r} is not in the given alphabet")
        rows[s].append(t.symbols[i + 1])
    return SuccessorsArray({k: tuple(v) for k, v in rows.items()}, len(t))


def reference_extract_partitioned(t, partition):
    """Cell-keyed successors array by one append per position, the final symbol checked."""
    from chainmix.successors import SuccessorsArray

    rows: dict = {j: [] for j in range(1, partition.n_cells + 1)}
    try:
        for i in range(len(t) - 1):
            rows[partition.cell_index_of(t.symbols[i])].append(t.symbols[i + 1])
        partition.cell_index_of(t.symbols[-1])   # final symbol must belong too
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    return SuccessorsArray({k: tuple(v) for k, v in rows.items()}, len(t))


def _reference_encode_line(words, index):
    """Codes of one line's words under ``index``, which first takes in the line's new
    labels in sorted order; the smallest unsigned dtype that fits."""
    for w in sorted(set(words) - set(index)):
        index[w] = len(index)
    return np.array([index[w] for w in words], np.min_scalar_type(max(len(index) - 1, 0)))


def reference_read_trajectories(path, index=None):
    """The trajectory reader that strips and splits every line, with its messages:
    the per-line parser the reader's one-character fast path must reproduce."""
    from chainmix.errors import ModelFormatError
    from chainmix.sim import Trajectory

    found, symbols, states = [], {}, {}
    n = length = traced = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("hidden:"):
                    if not n:
                        raise ModelFormatError(f"{path}:{lineno}: hidden trace before any "
                                               "trajectory")
                    if traced == n:
                        raise ModelFormatError(f"{path}:{lineno}: second hidden trace for "
                                               f"trajectory {n}")
                    hidden = body[len("hidden:"):].split()
                    if len(hidden) != length:
                        raise ModelFormatError(f"{path}:{lineno}: hidden trace length "
                                               f"{len(hidden)} != trajectory length {length}")
                    traced = n
                    if index in (None, n - 1):
                        found[-1][1] = _reference_encode_line(hidden, states)
            elif line:
                if index is not None and 0 <= index < n:
                    break
                tokens = line.split()
                n, length = n + 1, len(tokens)
                if index in (None, n - 1):
                    found.append([_reference_encode_line(tokens, symbols), None])
    if not n:
        raise ModelFormatError(f"{path}: no trajectories found")
    if index is not None and not 0 <= index < n:
        raise ModelFormatError(f"trajectory index {index} out of range (file has {n})")
    out = [Trajectory(c, h, None, tuple(symbols), tuple(states)) for c, h in found]
    return out if index is None else out[0]


def reference_estimate(t, alphabet, min_count):
    """Row estimates (NaN where unobserved), observed mask and row visit counts."""
    K = alphabet.size
    mat = np.full((K, K), np.nan)
    mask = np.zeros(K, dtype=bool)
    cnt = np.zeros(K, dtype=int)
    for y, succ in reference_extract(t, alphabet).rows.items():
        yi = alphabet.emit_index(y)
        cnt[yi] = len(succ)
        if len(succ) < min_count:
            continue
        hist = np.zeros(K)
        for s in succ:
            hist[alphabet.emit_index(s)] += 1
        mat[yi] = hist / hist.sum()
        mask[yi] = True
    return mat, mask, cnt


def reference_distance(a, b):
    """Merge distance of two ``reference_estimate`` results (None: no common row)."""
    common = a[1] & b[1]
    if not common.any():
        return None
    return 0.5 * np.abs(a[0][common] - b[0][common]).sum(axis=1).max()


def reference_lln_recover(trajectories, cluster_tol, alphabet, min_count):
    """Per-symbol histograms and one pairwise distance per trajectory pair,
    merged by union-find in pair order."""
    from chainmix.errors import InsufficientDataError
    from chainmix.model_core import Alphabet, Distribution
    from chainmix.recovery import (
        RecoveredComponent,
        RecoveredMixingMeasure,
        RecoveryDiagnostics,
    )

    if alphabet is None:
        alphabet = Alphabet.of(sorted({s for t in trajectories for s in t.symbols}))
    K = alphabet.size
    estimates, masks, counts = [], [], []
    for t in trajectories:
        mat, mask, cnt = reference_estimate(t, alphabet, min_count)
        if not mask.any():
            raise InsufficientDataError(
                f"a trajectory has no row with >= {min_count} visits"
            )
        estimates.append(mat)
        masks.append(mask)
        counts.append(cnt)

    n = len(estimates)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            d = reference_distance((estimates[i], masks[i]), (estimates[j], masks[j]))
            if d is not None and d <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)

    support, weights, stderrs = [], [], []
    for members in sorted(clusters.values(), key=len, reverse=True):
        mats = np.array([estimates[i] for i in members])
        row_obs = np.array([masks[i] for i in members])
        centroid = np.full((K, K), np.nan)
        observed = np.zeros(K, dtype=bool)
        row_counts = np.zeros(K, dtype=int)
        errs = []
        for y in range(K):
            sel = row_obs[:, y]
            row_counts[y] = sum(counts[members[i]][y] for i in range(len(members)))
            if not sel.any():
                errs.append(float("nan"))
                continue
            mean = mats[sel, y, :].mean(axis=0)
            centroid[y] = mean / mean.sum()
            observed[y] = True
            errs.append(float(np.sqrt(K / (4.0 * max(row_counts[y], 1)))))
        support.append(RecoveredComponent(centroid, tuple(bool(b) for b in observed),
                                          tuple(int(c) for c in row_counts), len(members)))
        weights.append(len(members) / n)
        stderrs.append(tuple(errs))

    return RecoveredMixingMeasure(
        alphabet=alphabet,
        support=tuple(support),
        weights=Distribution(np.array(weights)),
        diagnostics=RecoveryDiagnostics(n, min_count, cluster_tol, tuple(stderrs)),
    )


def reference_recover_by_histograms(trajectories, cluster_tol=None, alphabet=None,
                                    min_count=None):
    """``lln_recover`` with one successors array and one ``tuple.count`` per symbol
    and trajectory, the row histograms normalized one at a time; the merges,
    centroids and stderrs as the library computes them."""
    from chainmix.config import DEFAULT
    from chainmix.errors import InsufficientDataError
    from chainmix.model_core import Alphabet, Distribution
    from chainmix.recovery import (
        RecoveredComponent,
        RecoveredMixingMeasure,
        RecoveryDiagnostics,
    )
    from chainmix.successors import extract

    cluster_tol = DEFAULT.cluster_tol if cluster_tol is None else cluster_tol
    if not cluster_tol >= 0:
        raise ValueError(f"cluster_tol must be >= 0, got {cluster_tol}")
    min_count = DEFAULT.min_row_count if min_count is None else min_count
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    trajectories = list(trajectories)
    if not trajectories:
        raise InsufficientDataError("no trajectories given")
    if alphabet is None:
        alphabet = Alphabet.of(sorted(set().union(*(t.symbols for t in trajectories))))
    K = alphabet.size

    def histogram(row):
        hist = np.array([row.count(s) for s in alphabet.emittable], dtype=float)
        return hist / hist.sum()

    estimates, masks, counts = [], [], []
    for t in trajectories:
        rows = extract(t, alphabet).rows.values()
        cnt = np.array([len(succ) for succ in rows], dtype=int)
        mask = cnt >= min_count
        if not mask.any():
            raise InsufficientDataError(
                f"a trajectory has no row with >= {min_count} visits"
            )
        estimates.append(np.array([histogram(succ) if ok else np.full(K, np.nan)
                                   for succ, ok in zip(rows, mask)]))
        masks.append(mask)
        counts.append(cnt)

    n = len(estimates)
    label = np.arange(n)
    est, obs = np.array(estimates), np.array(masks)
    for i in range(n - 1):
        common = obs[i] & obs[i + 1:]
        tv = np.where(common, np.abs(est[i + 1:] - est[i]).sum(axis=2), -np.inf)
        near = i + 1 + np.flatnonzero(common.any(axis=1) & (0.5 * tv.max(axis=1) <= cluster_tol))
        label[np.isin(label, label[near])] = label[i]

    clusters = {}
    for i, c in enumerate(label.tolist()):
        clusters.setdefault(c, []).append(i)

    support, weights, stderrs = [], [], []
    for members in sorted(clusters.values(), key=len, reverse=True):
        mats = np.array([estimates[i] for i in members])
        row_obs = np.array([masks[i] for i in members])
        centroid = np.full((K, K), np.nan)
        observed = np.zeros(K, dtype=bool)
        row_counts = np.zeros(K, dtype=int)
        errs = []
        for y in range(K):
            sel = row_obs[:, y]
            row_counts[y] = sum(counts[members[i]][y] for i in range(len(members)))
            if not sel.any():
                errs.append(float("nan"))
                continue
            mean = mats[sel, y, :].mean(axis=0)
            centroid[y] = mean / mean.sum()
            observed[y] = True
            errs.append(float(np.sqrt(K / (4.0 * max(row_counts[y], 1)))))
        support.append(RecoveredComponent(centroid, tuple(bool(b) for b in observed),
                                          tuple(int(c) for c in row_counts), len(members)))
        weights.append(len(members) / n)
        stderrs.append(tuple(errs))

    return RecoveredMixingMeasure(
        alphabet=alphabet,
        support=tuple(support),
        weights=Distribution(np.array(weights)),
        diagnostics=RecoveryDiagnostics(n, min_count, cluster_tol, tuple(stderrs)),
    )


# ---------------------------------------------------------------------------
# Reference exchangeability test: every one of the ``permutations`` draws is
# made, and each tail gets the add-one smoothed p-value. The sequential test
# must reach the same verdict from a prefix of the same draws.


def _row_codes(row):
    symbols = sorted(set(row))
    return np.array([symbols.index(s) for s in row])


def _equal_pairs(codes):
    return int(np.count_nonzero(codes[:-1] == codes[1:]))


def reference_row_exchangeability(row, permutations, src, level=None):
    """The fixed-count permutation test: all ``permutations`` draws, two-sided
    p-value with add-one smoothing."""
    from chainmix.errors import RowTooShortError
    from chainmix.config import _require_level
    from chainmix.recovery import MIN_TEST_LENGTH, RowTestResult

    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    level = _require_level(level)
    row = list(row)
    if len(row) < MIN_TEST_LENGTH:
        raise RowTooShortError(f"row of length {len(row)} is below the minimum "
                               f"of {MIN_TEST_LENGTH}")
    codes = _row_codes(row)
    observed = _equal_pairs(codes)
    gen = src.generator()
    at_most = at_least = 0
    for _ in range(permutations):
        stat = _equal_pairs(gen.permutation(codes))
        at_most += stat <= observed
        at_least += stat >= observed
    p_low = (at_most + 1) / (permutations + 1)
    p_high = (at_least + 1) / (permutations + 1)
    p = min(1.0, 2.0 * min(p_low, p_high))
    return RowTestResult(None, len(row), observed, p, p < level, permutations)


def reference_permuted_statistics(row, permutations, src):
    """The observed statistic and the ``permutations`` permuted ones, in draw order."""
    codes = _row_codes(list(row))
    gen = src.generator()
    return _equal_pairs(codes), [_equal_pairs(gen.permutation(codes))
                                 for _ in range(permutations)]


def reference_joint_mask(jc, hidden=None, symbols=None):
    """``JointChain.mask`` by per-element loops: the ones of each constrained
    coordinate's slices multiplied in, one coordinate after the other."""
    K = jc.n_symbols
    out = np.ones(jc.n_pairs)
    if hidden is not None:
        hs = {hidden} if isinstance(hidden, int) else set(hidden)
        keep = np.zeros(jc.n_pairs)
        for x in hs:
            keep[x * K:(x + 1) * K] = 1.0
        out *= keep
    if symbols is not None:
        es = {symbols} if isinstance(symbols, int) else set(symbols)
        keep = np.zeros(jc.n_pairs)
        for e in es:
            keep[e::K] = 1.0
        out *= keep
    return out


def reference_occurrence_mass(jc, A, occ_masks, shifted_masks, horizon):
    """Mass of paths whose first ``N`` target occurrences happen by ``horizon``
    and satisfy the per-occurrence constraints, one propagation per request.

    ``occ_masks[k-1]`` constrains the pair at the k-th occurrence;
    ``shifted_masks[k-1]`` constrains the pair one step after it (evaluated up
    to ``horizon + 1`` for the final occurrence). ``None`` entries are
    unconstrained. Returns ``(mass, residual)``; the residual is the mass that
    had not completed everything within the horizon.
    """
    N = len(occ_masks)
    assert len(shifted_masks) == N and N >= 1
    Ac = 1.0 - A
    T = jc.trans
    P = jc.n_pairs
    need_tail = shifted_masks[N - 1] is not None

    def occ(kk):
        m = occ_masks[kk - 1]
        return 1.0 if m is None else m

    done = 0.0
    v = [np.zeros(P) for _ in range(N + 1)]
    z = jc.init
    first = z * A * occ(1)
    if N == 1 and not need_tail:
        done += float(first.sum())
    else:
        v[1] = first
    v[0] = z * Ac

    for _ in range(1, horizon + 1):
        new = [np.zeros(P) for _ in range(N + 1)]
        for kk in range(N + 1):
            if not v[kk].any():
                continue
            if kk == N:
                done += float((reference_contract(v[N], T) * shifted_masks[N - 1]).sum())
                continue
            w = reference_contract(v[kk] * A, T)
            if kk >= 1 and shifted_masks[kk - 1] is not None:
                w = w * shifted_masks[kk - 1]
            w = w + reference_contract(v[kk] * Ac, T)
            entering = w * A * occ(kk + 1)
            if kk + 1 == N and not need_tail:
                done += float(entering.sum())
            else:
                new[kk + 1] += entering
            new[kk] += w * Ac
        v = new

    if need_tail and v[N].any():
        done += float((reference_contract(v[N], T) * shifted_masks[N - 1]).sum())
        v[N][:] = 0.0
    residual = float(sum(v[kk].sum() for kk in range(N)))
    return done, residual


def reference_symbol_sets(K, symbol_sets=None):
    """The given sets sorted, duplicates kept; else the default family."""
    from itertools import combinations

    if symbol_sets is not None:
        return [tuple(sorted(s)) for s in symbol_sets]
    if K <= 3:
        return [es for r in range(1, K + 1) for es in combinations(range(K), r)]
    return [(e,) for e in range(K)] + [tuple(range(K))]


def reference_splitting(model, N=3, tol=None, symbol_sets=None):
    """Splitting by the depth-first recursion over conditioning trails: one
    vector, mask and instance at a time, in trail order."""
    from chainmix.config import DEFAULT
    from chainmix.stopping_verifier import (
        MASS_FLOOR,
        InstanceCheck,
        LemmaCheckResult,
        _set_label,
        as_joint,
    )

    tol = DEFAULT.tol_exact if tol is None else tol
    if N < 2:
        raise ValueError("splitting needs at least 2 time steps")
    jc = as_joint(model)
    X, K = len(jc.hidden_states), jc.n_symbols
    sets = reference_symbol_sets(K, symbol_sets)
    combos = [(x, es) for x in range(X) for es in sets]
    masks = {(x, es): jc.mask(hidden=x, symbols=es) for x, es in combos}
    targets = list(masks.items())

    checked = []
    skipped = []

    def combo_label(x, es):
        return f"(x={jc.hidden_states[x]},S={_set_label(jc, es)})"

    for n in range(2, N + 1):
        marginal = jc.init.copy()
        for _ in range(n - 1):
            marginal = reference_contract(marginal, jc.trans)
        rhs_table = {}
        for x_prev in range(X):
            u = marginal * jc.mask(hidden=x_prev)
            den = float(u.sum())
            if den <= MASS_FLOOR:
                rhs_table[x_prev] = None
                continue
            v = reference_contract(u, jc.trans)
            rhs_table[x_prev] = {key: float((v * mask).sum()) / den for key, mask in targets}

        def descend(vec, depth, trail, x_prev):
            if depth == n:
                den = float(vec.sum())
                cond = " ".join(trail)
                if den <= MASS_FLOOR:
                    skipped.append(f"n={n} cond[{cond}]")
                    return
                if rhs_table[x_prev] is None:
                    skipped.append(f"n={n} cond[{cond}] (one-step side has no mass)")
                    return
                post = reference_contract(vec, jc.trans)
                for key, mask in targets:
                    lhs = float((post * mask).sum()) / den
                    rhs = rhs_table[x_prev][key]
                    label = f"n={n} cond[{cond}] -> {combo_label(*key)}"
                    checked.append(InstanceCheck(label, lhs, rhs, abs(lhs - rhs), tol))
                return
            for (x, es) in combos:
                nxt = vec * masks[(x, es)]
                if float(nxt.sum()) <= MASS_FLOOR:
                    skipped.append(f"n={n} cond[{' '.join(trail)} {combo_label(x, es)} ...]")
                    continue
                descend(nxt if depth == n - 1 else reference_contract(nxt, jc.trans), depth + 1,
                        trail + [combo_label(x, es)], x)

        descend(reference_contract(jc.init, jc.trans), 1, [], -1)

    return LemmaCheckResult("splitting", tuple(checked), tuple(skipped), 0.0, tol)


def reference_strong_splitting(model, spec, k, horizon=8, n_values=None, tol=None,
                               floor=None, symbol_sets=None):
    """Strong splitting with one forward line per ``(n, x-, S1)`` and one
    label, dot product and instance at a time."""
    from chainmix.config import DEFAULT
    from chainmix.errors import TruncationError
    from chainmix.stopping_verifier import (
        MASS_FLOOR,
        InstanceCheck,
        LemmaCheckResult,
        _set_label,
        as_joint,
    )

    tol = DEFAULT.tol_exact if tol is None else tol
    floor = DEFAULT.horizon_floor if floor is None else floor
    jc = as_joint(model)
    X, K = len(jc.hidden_states), jc.n_symbols
    A = spec.mask(jc)
    Ac = 1.0 - A
    T = jc.trans
    Tk = np.eye(jc.n_pairs)
    for _ in range(k):
        Tk = reference_contract(Tk, T)

    w = [jc.init]
    for _ in range(horizon + 1):
        w.append(reference_contract(w[-1] * Ac, T))
    unrealized = float(w[horizon + 1].sum())
    if 1.0 - unrealized < floor:
        raise TruncationError(
            f"first hitting time realized with mass {1 - unrealized:.6g} < floor {floor}; "
            "increase the horizon or use the Monte Carlo mode"
        )
    hits = [w[r] * A for r in range(horizon + 1)]

    sets = reference_symbol_sets(K, symbol_sets)
    target_sets = [tuple(range(K))] if k == 0 else sets
    hs = jc.hidden_states
    if n_values is None:
        n_values = range(1, horizon + 1)
    n_values = list(n_values)
    if any(n < 1 or n > horizon for n in n_values):
        raise ValueError("free conditioning times n must lie in 1..horizon")

    q_cols = {(x, es): reference_contract(Tk, jc.mask(hidden=x, symbols=es)) for x in range(X)
              for es in target_sets}
    rhs_cache = {}
    for x_tilde in range(X):
        R = sum(hits) * jc.mask(hidden=x_tilde)
        den = float(R.sum())
        rhs_cache[x_tilde] = None if den <= MASS_FLOOR else (R, den)

    checked, skipped = [], []
    for n in n_values:
        for x_bar in range(X):
            for s1 in sets:
                maskB = jc.mask(hidden=x_bar, symbols=s1)
                wb = w[n] * maskB
                line = [wb]
                for _ in range(n, horizon):
                    line.append(reference_contract(line[-1] * Ac, T))
                tail_b = float(reference_contract(line[-1] * Ac, T).sum())
                hitsB = [line[r - n] * A for r in range(n + 1, horizon + 1)]
                sumB = sum(hitsB) if hitsB else np.zeros(jc.n_pairs)
                early = sum(hits[r] for r in range(0, min(n, horizon) + 1)) * maskB
                for x_tilde in range(X):
                    for s2 in sets:
                        m2 = jc.mask(hidden=x_tilde, symbols=s2)
                        V = early * m2 + sumB * m2
                        den = float(V.sum())
                        base = (f"n={n} bar=({hs[x_bar]},{_set_label(jc, s1)}) "
                                f"tilde=({hs[x_tilde]},{_set_label(jc, s2)})")
                        if den <= MASS_FLOOR:
                            skipped.append(base)
                            continue
                        if rhs_cache[x_tilde] is None:
                            skipped.append(base + " (rhs side has no mass)")
                            continue
                        R, rden = rhs_cache[x_tilde]
                        allowed = tol + tail_b / den + unrealized / rden
                        for x in range(X):
                            for s3 in target_sets:
                                q = q_cols[(x, s3)]
                                lhs = float(reference_contract(V, q)) / den
                                rhs = float(reference_contract(R, q)) / rden
                                label = f"{base} -> ({hs[x]},{_set_label(jc, s3)}) k={k}"
                                checked.append(InstanceCheck(label, lhs, rhs,
                                                             abs(lhs - rhs), allowed))
    return LemmaCheckResult("strong_splitting", tuple(checked), tuple(skipped),
                            unrealized, tol)


def reference_hitting_time_lemmas(m, spec, N, horizon=8, tol=None, floor=None):
    """The four hitting-time identities with one ``reference_occurrence_mass``
    call per distinct request, each instance evaluated as it is enumerated."""
    from itertools import product as iter_product

    from chainmix.config import DEFAULT
    from chainmix.errors import TruncationError
    from chainmix.stopping_verifier import (
        MASS_FLOOR,
        InstanceCheck,
        JointChain,
        LemmaCheckResult,
        _opt_label,
        _pair_options,
        _set_label,
    )

    tol = DEFAULT.tol_exact if tol is None else tol
    floor = DEFAULT.horizon_floor if floor is None else floor
    jc = JointChain.from_hmm(m)
    A = spec.mask(jc)
    base_done, base_res = reference_occurrence_mass(jc, A, [None] * N, [None] * N, horizon)
    if base_done < floor:
        raise TruncationError(
            f"{N} occurrences realized with mass {base_done:.6g} < floor {floor}; "
            "increase the horizon or use the Monte Carlo mode"
        )

    cache = {}

    def mass(occ, shifted):
        key = (tuple(x if x is None else x.tobytes() for x in occ),
               tuple(x if x is None else x.tobytes() for x in shifted),
               len(occ))
        if key not in cache:
            cache[key] = reference_occurrence_mass(jc, A, list(occ), list(shifted), horizon)
        return cache[key]

    def ratio(num_occ, num_shift, den_occ, den_shift):
        den, den_res = mass(den_occ, den_shift)
        if den <= MASS_FLOOR:
            return None
        num, _ = mass(num_occ, num_shift)
        tail = den_res / (den + den_res) if den_res > 0 else 0.0
        return num / den, tail

    def omask(opt):
        x, es = opt
        return jc.mask(hidden=x, symbols=es)

    results = []
    checked, skipped = [], []
    if N >= 2:
        opts = _pair_options(jc, A)
        for cond in iter_product(opts, repeat=N - 1):
            cond_occ = [omask(o) for o in cond] + [None]
            lhs_den = (cond_occ, [None] * N)
            x_prev = cond[-1][0]
            slice_prev = jc.mask(hidden=x_prev) * A
            rhs_cond = [None] * (N - 2) + [slice_prev, None]
            cond_lab = " ".join(_opt_label(jc, o) for o in cond)
            for tgt in opts:
                tmask = omask(tgt) * A
                lhs = ratio(cond_occ[:-1] + [tmask], [None] * N, *lhs_den)
                rhs = ratio(rhs_cond[:-1] + [tmask], [None] * N, rhs_cond, [None] * N)
                label = f"occ[{cond_lab}] -> {_opt_label(jc, tgt)}"
                if lhs is None or rhs is None:
                    skipped.append(label)
                    continue
                (l, tl), (r, tr) = lhs, rhs
                checked.append(InstanceCheck(label, l, r, abs(l - r), tol + tl + tr))
    results.append(LemmaCheckResult("generalized_strong_splitting", tuple(checked),
                                    tuple(skipped), base_res, tol))

    checked, skipped = [], []
    if N >= 2:
        X = len(jc.hidden_states)
        full = tuple(range(jc.n_symbols))
        cond_opts = [(x, full) for x in range(X)]
        tgt_opts = _pair_options(jc) + [(x, full) for x in range(X)]
        ones = np.ones(jc.n_pairs)
        for cond in iter_product(cond_opts, repeat=N - 1):
            cond_shift = [omask(o) for o in cond]
            x_prev = cond[-1][0]
            rhs_shift = [None] * (N - 2) + [jc.mask(hidden=x_prev)]
            cond_lab = " ".join(_opt_label(jc, o) for o in cond)
            for tgt in tgt_opts:
                lhs = ratio([None] * N, cond_shift + [omask(tgt)],
                            [None] * N, cond_shift + [ones])
                rhs = ratio([None] * N, rhs_shift + [omask(tgt)],
                            [None] * N, rhs_shift + [ones])
                label = f"shift[{cond_lab}] -> {_opt_label(jc, tgt)}"
                if lhs is None or rhs is None:
                    skipped.append(label)
                    continue
                (l, tl), (r, tr) = lhs, rhs
                checked.append(InstanceCheck(label, l, r, abs(l - r), tol + tl + tr))
    results.append(LemmaCheckResult("shifted_strong_splitting", tuple(checked),
                                    tuple(skipped), base_res, tol))

    checked, skipped = [], []
    for n in range(1, N + 1):
        for x2 in range(len(jc.hidden_states)):
            den_shift = [None] * (n - 1) + [jc.mask(hidden=x2)]
            for es in reference_symbol_sets(jc.n_symbols):
                num_shift = [None] * (n - 1) + [jc.mask(hidden=x2, symbols=es)]
                got = ratio([None] * n, num_shift, [None] * n, den_shift)
                f_val = float(m.readout[x2, list(es)].sum())
                label = (f"tau={n} P(Y_(tau+1) in {_set_label(jc, es)} | "
                         f"X_(tau+1)={jc.hidden_states[x2]})")
                if got is None:
                    skipped.append(label)
                    continue
                l, tail = got
                checked.append(InstanceCheck(label, l, f_val, abs(l - f_val), tol + tail))
    results.append(LemmaCheckResult("readout_at_stopping_time", tuple(checked),
                                    tuple(skipped), base_res, tol))

    checked, skipped = [], []
    per_k = {}

    def factor(kk, opt):
        if (kk, opt) not in per_k:
            den_shift = [None] * (kk - 1) + [jc.mask(hidden=opt[0])]
            num_shift = [None] * (kk - 1) + [omask(opt)]
            per_k[(kk, opt)] = ratio([None] * kk, num_shift, [None] * kk, den_shift)
        return per_k[(kk, opt)]

    for combo in iter_product(_pair_options(jc), repeat=N):
        num_shift = [omask(o) for o in combo]
        den_shift = [jc.mask(hidden=o[0]) for o in combo]
        lhs = ratio([None] * N, num_shift, [None] * N, den_shift)
        label = "prod[" + " ".join(_opt_label(jc, o) for o in combo) + "]"
        factors = [factor(kk + 1, o) for kk, o in enumerate(combo)]
        if lhs is None or any(f is None for f in factors):
            skipped.append(label)
            continue
        l, tail_l = lhs
        rhs = 1.0
        tail_r = 0.0
        for f, t in factors:
            rhs *= f
            tail_r += t
        checked.append(InstanceCheck(label, l, rhs, abs(l - rhs), tol + tail_l + tail_r))
    results.append(LemmaCheckResult("conditional_independence_product", tuple(checked),
                                    tuple(skipped), base_res, tol))
    return tuple(results)


def reference_lemmas_mc(m, spec, samples, src, horizon=12, N=None, floor=None):
    """The Monte Carlo hitting-time checks as four hand-written families over
    count tables, each instance passing at three combined binomial standard
    errors. Its read-out family conditions on single symbols where the shared
    instance tables use symbol sets; every other instance has the same label,
    and its lhs and rhs are the same integer-count ratios as ``check_lemmas_mc``."""
    from itertools import product as iter_product

    from chainmix.model_core import HMMModel, require_valid
    from chainmix.stopping_verifier import (
        InstanceCheck,
        JointChain,
        LemmaCheckResult,
        _opt_label,
        _pair_options,
        _require_realized,
        _sample_joint_paths,
    )

    if samples < 10_000:
        raise ValueError("Monte Carlo mode needs at least 10^4 samples")
    if not isinstance(m, HMMModel):
        raise TypeError("check_lemmas_mc needs an HMMModel")
    require_valid(m)
    jc = JointChain.from_hmm(m)
    A = spec.mask(jc)
    N = spec.occurrences if N is None else N
    if N < 1:
        raise ValueError("need at least one occurrence")
    paths = _sample_joint_paths(jc, horizon + 2, samples, src)

    # occurrence k (1-based) is at the first t <= horizon where k target visits have happened
    visits = np.cumsum((A > 0)[paths[:, :horizon + 1]], axis=1, dtype=np.int32)
    done = [np.ones(samples, dtype=bool)]           # done[k]: k occurrences realized
    occ_pair = np.full((samples, N), -1, dtype=np.int64)
    shift_pair = np.full((samples, N), -1, dtype=np.int64)
    for kk in range(N):
        d = visits[:, -1] > kk
        t = np.argmax(visits[d] > kk, axis=1)
        occ_pair[d, kk] = paths[d, t]
        shift_pair[d, kk] = paths[d, t + 1]
        done.append(d)
    full = done[N]
    residual = 1.0 - int(full.sum()) / samples
    _require_realized(f"{N} occurrences", 1.0 - residual, floor, "increase the horizon")

    P, K, X = jc.n_pairs, jc.n_symbols, len(jc.hidden_states)

    def table(pairs):
        """Counts of the N-tuples of pairs over the paths that realize all N occurrences."""
        idx = pairs[full] @ P ** np.arange(N - 1, -1, -1)    # row-major rank
        return np.bincount(idx, minlength=P ** N).reshape((P,) * N)

    occ_table, shift_table = table(occ_pair), table(shift_pair)
    # shift_counts[n - 1][x, e]: pair one step after occurrence n, over paths realizing n
    shift_counts = [np.bincount(shift_pair[done[n], n - 1], minlength=P).reshape(X, K)
                    for n in range(1, N + 1)]

    def count(tab, masks):
        """Paths in ``tab`` whose k-th pair lies in ``masks[k]`` (None: any pair)."""
        for mk in reversed(masks):
            tab = tab.sum(axis=-1) if mk is None else tab @ mk
        return int(tab)

    def omask(x, es=None):
        """Integer 0/1 mask of the pairs with hidden state ``x`` and a symbol in ``es``."""
        return (jc.mask(hidden=x, symbols=es) > 0).astype(np.int64)

    def se(p, n):
        return max(np.sqrt(max(p * (1 - p), 0.0) / n), 1.0 / n)

    def splitting(lemma, tab, tag, cond_opts, tgt_opts):
        """P(N-th pair in tgt | earlier pairs in cond) against conditioning on
        the hidden state of the (N-1)-th pair alone."""
        checked, skipped = [], []
        for cond in iter_product(cond_opts, repeat=N - 1) if N >= 2 else ():
            sel = [omask(*o) for o in cond]
            rsel = [None] * (N - 2) + [omask(cond[-1][0])]
            nl, nr = count(tab, sel + [None]), count(tab, rsel + [None])
            cond_lab = " ".join(_opt_label(jc, o) for o in cond)
            for tgt in tgt_opts:
                label = f"{tag}[{cond_lab}] -> {_opt_label(jc, tgt)}"
                if nl == 0 or nr == 0:
                    skipped.append(f"{label} (den counts {nl}/{nr})")
                    continue
                l = count(tab, sel + [omask(*tgt)]) / nl
                r = count(tab, rsel + [omask(*tgt)]) / nr
                allowed = 3.0 * float(np.hypot(se(l, nl), se(r, nr)))
                checked.append(InstanceCheck(label, l, r, abs(l - r), allowed))
        return lemma, checked, skipped

    # (1) generalized strong splitting on occurrence pairs; (2) its shifted
    # variant, with hidden-only conditioning as in the exact mode
    opts = _pair_options(jc, A)
    hidden_opts = [(x, tuple(range(K))) for x in range(X)]
    results = [splitting("generalized_strong_splitting", occ_table, "occ", opts, opts),
               splitting("shifted_strong_splitting", shift_table, "shift", hidden_opts,
                         _pair_options(jc) + hidden_opts)]

    # (3) read-out at stopping times
    checked, skipped = [], []
    for n in range(1, N + 1):
        for x2 in range(X):
            nl = int(shift_counts[n - 1][x2].sum())
            for e in range(K):
                f_val = float(m.readout[x2, e])
                label = (f"tau={n} P(Y_(tau+1)={jc.alphabet.emittable[e]} | "
                         f"X_(tau+1)={jc.hidden_states[x2]})")
                if nl == 0:
                    skipped.append(f"{label} (den count 0)")
                    continue
                l = int(shift_counts[n - 1][x2, e]) / nl
                allowed = 3.0 * se(f_val, nl)
                checked.append(InstanceCheck(label, l, f_val, abs(l - f_val), allowed))
    results.append(("readout_at_stopping_time", checked, skipped))

    # (4) conditional independence product
    checked, skipped = [], []
    for combo in iter_product(_pair_options(jc), repeat=N):
        label = "prod[" + " ".join(_opt_label(jc, o) for o in combo) + "]"
        nl = count(shift_table, [omask(o[0]) for o in combo])
        if nl == 0:
            skipped.append(f"{label} (den count 0)")
            continue
        l = count(shift_table, [omask(*o) for o in combo]) / nl
        rhs, var_sum = 1.0, 0.0
        for kk, o in enumerate(combo):
            counts = shift_counts[kk].ravel()
            nd = int(counts @ omask(o[0]))
            if nd == 0:
                skipped.append(f"{label} (a factor's den count is 0)")
                break
            f = int(counts @ omask(*o)) / nd
            rhs *= f
            var_sum += se(f, nd) ** 2
        else:
            allowed = 3.0 * float(np.sqrt(se(l, nl) ** 2 + var_sum))
            checked.append(InstanceCheck(label, l, rhs, abs(l - rhs), allowed))
    results.append(("conditional_independence_product", checked, skipped))
    return tuple(LemmaCheckResult(lemma, tuple(c), tuple(s), residual, float("nan"))
                 for lemma, c, s in results)
