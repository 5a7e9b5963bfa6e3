"""Executable checks of conditional-independence identities at stopping times.

Every check runs on a :class:`JointChain`: the Markov chain of (hidden state,
symbol) pairs. For a true HMM the pair transition factorizes as
``P[x,x'] f_{x'}(y')``, but the checks never exploit that factorization -- they
compute conditional probabilities of the *joint* law by transfer-matrix
propagation, so deliberately corrupted joint laws can be injected as negative
controls and must fail.

Checked identities (all conditional probabilities over the joint process):

* splitting            -- predicting ``(X_n, Y_n)`` from the full past equals
                          predicting it from ``X_{n-1}`` alone
* strong splitting     -- the same across a single hitting time ``gamma`` with a
                          lag ``k``, with the free extra conditioning time ``n``
                          ranged over ``1..horizon``
* generalized strong splitting, its shifted (+1) variant, the read-out law at
  stopping times, and the conditional-independence product -- across the first
  ``N`` hitting times of a target set of pairs

Stopping times are unbounded, so identities are checked on the event that all
required occurrences happen within a finite horizon; the unrealized mass is
measured exactly and added to each instance's pass tolerance. An independent
path-enumeration oracle (:func:`event_probability`) covers small instances.

The hitting-time identities are one instance table of ratios of occurrence-mass
requests, with two evaluators: one exact propagation over the requests' shared
prefixes, advancing each prefix once with the steps and the summation order of
:func:`~chainmix.model_core.contract` that a lone request gets, and Monte Carlo
path counts judged by Bonferroni bounds over every instance checked.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, product as iter_product

import numpy as np

from .config import DEFAULT, _require_level, _require_tol
from .errors import EnumerationBudgetError, TruncationError
from .model_core import Alphabet, HMMModel, contract, require_valid
from .sim import DRAWS_PER_CHUNK, RandomSource, cdf_table, walk

MASS_FLOOR = 1e-14   # conditioning events below this mass are skipped, not failed


@dataclass(frozen=True)
class JointChain:
    """Markov chain on (hidden, symbol) pairs; pair index = hidden * K + symbol."""

    hidden_states: tuple[str, ...]
    alphabet: Alphabet
    init: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        for name in ("init", "trans"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_hmm(cls, m: HMMModel) -> "JointChain":
        require_valid(m)
        X, K = m.n_hidden, m.alphabet.size
        init = (m.pi.weights[:, None] * m.readout).ravel()
        step = (m.P.rows[:, :, None] * m.readout[None, :, :]).reshape(X, X * K)
        trans = np.repeat(step, K, axis=0)
        return cls(m.hidden_states, m.alphabet, init, trans)

    @property
    def n_pairs(self) -> int:
        return self.init.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.alphabet.size

    def pair_label(self, p: int) -> tuple[str, str]:
        x, e = divmod(p, self.n_symbols)
        return self.hidden_states[x], self.alphabet.emittable[e]

    def mask(self, hidden=None, symbols=None) -> np.ndarray:
        """0/1 mask over pairs: the outer product of a 0/1 vector over hidden states
        and one over symbols, each an index, a collection of them, or None (all)."""
        def keep(chosen, n):
            if chosen is None:
                return np.ones(n)
            out = np.zeros(n)
            out[[chosen] if isinstance(chosen, int) else list(chosen)] = 1.0
            return out
        return np.outer(keep(hidden, len(self.hidden_states)),
                        keep(symbols, self.n_symbols)).ravel()


def as_joint(model) -> JointChain:
    return model if isinstance(model, JointChain) else JointChain.from_hmm(model)


def corrupted_previous_symbol_joint(m: HMMModel, trigger: str | None = None) -> JointChain:
    """Negative-control joint law: the read-out depends on the previous state.

    Whenever the previously emitted symbol equals ``trigger`` (default: the
    first emittable symbol), the next emission uses each hidden state's read-out
    row cyclically shifted by one column. The joint law stays a proper Markov
    chain on pairs but is not an HMM, so the splitting identity must fail.
    """
    jc = JointChain.from_hmm(m)
    X, K = m.n_hidden, m.alphabet.size
    trig = m.alphabet.emit_index(trigger) if trigger is not None else 0
    odd = (m.P.rows[:, :, None] * np.roll(m.readout, 1, axis=1)[None, :, :]).reshape(X, X * K)
    after_trigger = (np.arange(X * K) % K == trig)[:, None]     # row x * K + e
    trans = np.where(after_trigger, np.repeat(odd, K, axis=0), jc.trans)
    return JointChain(m.hidden_states, m.alphabet, jc.init, trans)


@dataclass(frozen=True)
class HittingTimeSpec:
    """Target set of (hidden, symbol) pairs whose successive visits are the
    hitting times; ``"*"`` is a wildcard on either coordinate."""

    targets: frozenset
    occurrences: int = 1

    @classmethod
    def for_symbol(cls, symbol: str, occurrences: int = 1) -> "HittingTimeSpec":
        return cls(frozenset({("*", symbol)}), occurrences)

    def mask(self, jc: JointChain) -> np.ndarray:
        out = np.array([float(any(hx in ("*", x) and hy in ("*", y) for hx, hy in self.targets))
                        for x, y in map(jc.pair_label, range(jc.n_pairs))])
        if not out.any():
            raise ValueError("hitting target matches no (hidden, symbol) pair")
        return out


@dataclass(frozen=True)
class InstanceCheck:
    label: str
    lhs: float
    rhs: float
    gap: float
    allowed: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.allowed


@dataclass(frozen=True, eq=False, repr=False)
class InstanceTable(Sequence):
    """Checked instances as read-only float64 columns and a label rule
    ``label(i) -> str``; an :class:`InstanceCheck` is built only when indexed or
    iterated. Compares, hashes and prints as the tuple of its instances."""

    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    allowed: np.ndarray
    label: Callable[[int], str]

    def __post_init__(self):
        for name in ("lhs", "rhs", "gap", "allowed"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_rows(cls, rows, labels: list[str]) -> "InstanceTable":
        """From ``(lhs, rhs, gap, allowed)`` rows and their labels."""
        return cls(*np.array(rows, dtype=np.float64).reshape(-1, 4).T, labels.__getitem__)

    def _check(self, i: int) -> InstanceCheck:
        return InstanceCheck(self.label(i), self.lhs[i].item(), self.rhs[i].item(),
                             self.gap[i].item(), self.allowed[i].item())

    def __len__(self) -> int:
        return len(self.gap)

    def __getitem__(self, i):
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return tuple(map(self._check, rows))
        return self._check(rows)

    def __iter__(self):
        cols = zip(self.lhs.tolist(), self.rhs.tolist(), self.gap.tolist(), self.allowed.tolist())
        for i, values in enumerate(cols):
            yield InstanceCheck(self.label(i), *values)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class LemmaCheckResult:
    """One identity's checked instances (an :class:`InstanceTable`; a sequence
    of :class:`InstanceCheck` is converted to one) and skipped labels."""

    lemma: str
    checked: InstanceTable
    skipped: tuple[str, ...]
    residual: float
    tolerance: float

    def __post_init__(self):
        if not isinstance(self.checked, InstanceTable):
            rows = [(c.lhs, c.rhs, c.gap, c.allowed) for c in self.checked]
            object.__setattr__(self, "checked", InstanceTable.from_rows(
                rows, [c.label for c in self.checked]))

    def _failing(self) -> np.ndarray:
        return ~(self.checked.gap <= self.checked.allowed)     # a NaN gap fails

    @property
    def passed(self) -> bool:
        return not self._failing().any()

    @property
    def max_gap(self) -> float:
        """The largest gap, as Python's ``max`` finds it: a NaN first gap wins
        and later NaNs are passed over; 0.0 when nothing was checked."""
        gap = self.checked.gap
        if len(gap) == 0:
            return 0.0
        return gap[0].item() if math.isnan(gap[0]) else np.fmax.reduce(gap).item()

    def failures(self) -> list[InstanceCheck]:
        return [self.checked[i] for i in np.flatnonzero(self._failing())]


# ---------------------------------------------------------------------------
# Exact path-enumeration oracle


def event_probability(model, horizon: int, event, budget=None) -> float:
    """Exact probability of an arbitrary event over joint paths ``(x_0^T, y_0^T)``.

    Enumerates every positive-probability joint path of length ``horizon + 1``
    and sums the path probabilities where ``event(hidden_labels, symbol_labels)``
    holds. This is the independent oracle behind the transfer-matrix checks; it
    is exponential and guarded by the enumeration budget.
    """
    jc = as_joint(model)
    budget = DEFAULT.enum_budget if budget is None else int(budget)
    paths = jc.n_pairs ** (horizon + 1)
    if paths > budget:
        raise EnumerationBudgetError(
            f"path enumeration needs {paths} paths, exceeding the budget of {budget}"
        )
    K = jc.n_symbols
    hs, em = jc.hidden_states, jc.alphabet.emittable
    xs = [None] * (horizon + 1)
    ys = [None] * (horizon + 1)
    total = 0.0

    def walk(t, p, prob):
        nonlocal total
        x, e = divmod(p, K)
        xs[t], ys[t] = hs[x], em[e]
        if t == horizon:
            if event(tuple(xs), tuple(ys)):
                total += prob
            return
        row = jc.trans[p]
        for p2 in np.flatnonzero(row):
            walk(t + 1, int(p2), prob * row[p2])

    for p in np.flatnonzero(jc.init):
        walk(0, int(p), float(jc.init[p]))
    return total


# ---------------------------------------------------------------------------
# Splitting (fixed times)


def _symbol_sets(K: int, symbol_sets=None) -> list[tuple[int, ...]]:
    """The given symbol sets, sorted and each once (first occurrence order), or the
    default family: every nonempty subset for ``K <= 3``, else singletons and all."""
    if symbol_sets is not None:
        return list(dict.fromkeys(tuple(sorted(s)) for s in symbol_sets))
    if K <= 3:
        return [es for r in range(1, K + 1) for es in combinations(range(K), r)]
    return [(e,) for e in range(K)] + [tuple(range(K))]


def _set_label(jc: JointChain, es: tuple[int, ...]) -> str:
    if len(es) == jc.n_symbols:
        return "*"
    return "{" + ",".join(jc.alphabet.emittable[e] for e in es) + "}"


def _opt_label(jc: JointChain, opt) -> str:
    x, es = opt
    return f"({jc.hidden_states[x]},{_set_label(jc, es)})"


def check_splitting(model, N: int = 3, tol: float | None = None,
                    symbol_sets=None, budget=None) -> LemmaCheckResult:
    """Full-past versus one-step conditioning at fixed times.

    For every ``n <= N`` and every instance ``(x_1..x_{n-1}, S_1..S_{n-1}, x, S_n)``
    with positive conditioning mass, compares

    ``P(X_n=x, Y_n in S_n | X_1^{n-1}=x_1^{n-1}, Y_1^{n-1} in S_1^{n-1})``

    against ``P(X_n=x, Y_n in S_n | X_{n-1}=x_{n-1})``. Zero-mass conditioning
    events are reported as skipped. Needs ``N >= 2``: no instance has ``n < 2``.

    Runs one batch per depth: the live conditioning trails of times ``1..d`` are
    rows of option indices, their vectors the rows of one array, masked by every
    option at once and advanced by one :func:`~chainmix.model_core.contract`. The
    trails of depth ``n - 1`` condition the instances of ``n``, which come out in
    trail order; skipped labels are sorted by trail, so a trail cut off at an inner
    depth is reported in its prefix's place. Before a step masks its trails by every
    option, refuses (:class:`EnumerationBudgetError`) trails times options times
    pairs past ``budget`` (default ``DEFAULT.enum_budget``).
    """
    tol = _require_tol(tol)
    budget = DEFAULT.enum_budget if budget is None else int(budget)
    if N < 2:
        raise ValueError("splitting needs at least 2 time steps")
    jc = as_joint(model)
    X, K, T = len(jc.hidden_states), jc.n_symbols, jc.trans
    combos = [(x, es) for x in range(X) for es in _symbol_sets(K, symbol_sets)]
    C = len(combos)
    masks = np.array([jc.mask(hidden=x, symbols=es) for x, es in combos])
    x_of = np.array([x for x, _ in combos])
    combo_labels = [f"(x={jc.hidden_states[x]},S={_set_label(jc, es)})" for x, es in combos]
    target_labels = [f" -> {label}" for label in combo_labels]

    marginal = contract(jc.init, T)    # law of the pair at time n - 1
    # live trails of times 1..n-2, advanced to time n - 1; (path, label) of those cut off
    vec, paths, dry = marginal[None], np.zeros((1, 0), dtype=np.int64), []
    cols, leaves, skipped = [], [], []

    def trail(path) -> str:
        return " ".join(combo_labels[c] for c in path)

    def masked(vec):        # every row of vec masked by every option, within the budget
        if len(vec) * masks.size > budget:
            raise EnumerationBudgetError(
                f"splitting at n={n} needs {len(vec) * masks.size} entries ({len(vec)} "
                f"live trails x {C} options x {jc.n_pairs} pairs), exceeding the budget "
                f"of {budget}")
        return vec[:, None, :] * masks

    for n in range(2, N + 1):
        # depth n - 1: mask every live trail by every option
        nxt = masked(vec)
        mass = nxt.sum(axis=-1).ravel()
        keep = mass > MASS_FLOOR
        parent, c = divmod(np.arange(mass.size), C)
        dry += [((*p, k), f"cond[{trail(p)} {combo_labels[k]} ...]")
                for p, k in zip(paths[parent[~keep]].tolist(), c[~keep].tolist())]
        paths, last_x = np.column_stack([paths[parent[keep]], c[keep]]), x_of[c[keep]]
        vec, den = contract(nxt.reshape(-1, jc.n_pairs)[keep], T), mass[keep]

        # time n: one-step predictions from X_(n-1) alone
        u = marginal * np.array([jc.mask(hidden=x) for x in range(X)])
        rden = u.sum(axis=-1)
        rhs_ok = rden > MASS_FLOOR
        rhs = ((contract(u, T)[:, None, :] * masks).sum(axis=-1)
               / np.where(rhs_ok, rden, 1.0)[:, None])
        marginal = contract(marginal, T)

        # skips in depth-first order: a cut trail sorts at its prefix's place
        alone = [(tuple(p), f"cond[{trail(p)}] (one-step side has no mass)")
                 for p in paths[~rhs_ok[last_x]].tolist()]
        skipped += [f"n={n} {label}" for _, label in sorted(dry + alone)]
        rows = np.flatnonzero(rhs_ok[last_x])
        lhs = masked(vec[rows]).sum(axis=-1) / den[rows][:, None]
        gap = np.abs(lhs - rhs[last_x[rows]])
        cols.append((lhs.ravel(), rhs[last_x[rows]].ravel(), gap.ravel(), np.full(gap.size, tol)))
        leaves += [(n, p) for p in paths[rows].tolist()]

    def label(i: int) -> str:
        j, target = divmod(i, C)
        n, path = leaves[j]
        return f"n={n} cond[{trail(path)}]{target_labels[target]}"

    values = (np.concatenate(c) for c in zip(*cols))
    return LemmaCheckResult("splitting", InstanceTable(*values, label), tuple(skipped), 0.0, tol)


# ---------------------------------------------------------------------------
# Strong splitting across the first hitting time


def _require_realized(event: str, mass: float, floor: float | None,
                      advice: str = "increase the horizon or use the Monte Carlo mode") -> None:
    """Raise :class:`TruncationError` when ``event`` happens within the horizon
    with mass below ``floor`` (default ``DEFAULT.horizon_floor``)."""
    floor = DEFAULT.horizon_floor if floor is None else floor
    if mass < floor:
        raise TruncationError(f"{event} realized with mass {mass:.6g} < floor {floor}; {advice}")


def check_strong_splitting(model, spec: HittingTimeSpec, k: int, horizon: int = 8,
                           n_values=None, tol: float | None = None,
                           floor: float | None = None,
                           symbol_sets=None) -> LemmaCheckResult:
    """Strong splitting across ``gamma`` = first hitting time of the target set.

    Compares ``P(X_{gamma+k}=x, Y_{gamma+k} in S3 | X_gamma=x~, Y_gamma in S2,
    X_{gamma^n}=x-, Y_{gamma^n} in S1)`` (``gamma^n`` = min(gamma, n)) against
    the same probability conditioned on ``X_gamma = x~`` alone. The free time
    ``n`` ranges over ``n_values`` (default ``1..horizon``), reported per n.

    With lag ``k = 0`` both sides reduce to the indicator of ``x = x~``; target
    symbol sets are then fixed to the full alphabet.

    Each ``n`` is one batched propagation of the lines of all ``(x-, S1)``, and one
    contraction of every ``(x-, S1, x~, S2)`` instance against every target.
    """
    tol = _require_tol(tol)
    if k < 0:
        raise ValueError("lag k must be >= 0")
    if horizon < 1:
        raise ValueError("strong splitting needs horizon >= 1: free times n lie in 1..horizon")
    jc = as_joint(model)
    X, K = len(jc.hidden_states), jc.n_symbols
    A = spec.mask(jc)
    Ac = 1.0 - A
    T = jc.trans
    Tk = np.eye(len(T))
    for _ in range(k):
        Tk = contract(Tk, T)

    w = [jc.init]
    for _ in range(horizon + 1):
        w.append(contract(w[-1] * Ac, T))
    unrealized = float(w[horizon + 1].sum())
    _require_realized("first hitting time", 1.0 - unrealized, floor)
    # early[r]: mass of hitting by time r, summed in time order
    early = np.cumsum([w[r] * A for r in range(horizon + 1)], axis=0)

    sets = _symbol_sets(K, symbol_sets)
    target_sets = [tuple(range(K))] if k == 0 else sets
    n_values = list(range(1, horizon + 1) if n_values is None else n_values)
    if any(n < 1 or n > horizon for n in n_values):
        raise ValueError("free conditioning times n must lie in 1..horizon")

    conds = [(x, es) for x in range(X) for es in sets]
    targets = [(x, es) for x in range(X) for es in target_sets]
    cond_labels = [_opt_label(jc, o) for o in conds]
    target_labels = [f" -> {_opt_label(jc, o)} k={k}" for o in targets]
    M = np.array([jc.mask(hidden=x, symbols=es) for x, es in conds])
    Q = contract(Tk, np.array([jc.mask(hidden=x, symbols=es) for x, es in targets]).T)
    x_of = np.array([x for x, _ in conds])
    R = early[horizon] * np.array([jc.mask(hidden=x) for x in range(X)])
    rden = R.sum(axis=-1)
    rhs_ok = rden > MASS_FLOOR
    rhs = contract(R, Q) / np.where(rhs_ok, rden, 1.0)[:, None]

    cols, skipped = [], []              # cols: per n, (n, b, t, lhs, rhs, gap, allowed)
    for n in n_values:
        line = w[n] * M
        later = np.zeros_like(line)        # hits of each line after time n
        for _ in range(n, horizon):
            line = contract(line * Ac, T)
            later = later + line * A
        tail_b = contract(line * Ac, T).sum(axis=-1)
        # V[b, t]: mass of (x-, S1) = conds[b] at gamma^n and (x~, S2) = conds[t] at gamma
        V = (early[n] * M)[:, None, :] * M + later[:, None, :] * M
        den = V.sum(axis=-1)
        ok = (den > MASS_FLOOR) & rhs_ok[x_of]
        for b, t in zip(*np.nonzero(~ok)):
            base = f"n={n} bar={cond_labels[b]} tilde={cond_labels[t]}"
            skipped.append(base if den[b, t] <= MASS_FLOOR else base + " (rhs side has no mass)")
        b, t = np.nonzero(ok)
        d, xt = den[b, t], x_of[t]
        lhs = contract(V[b, t], Q) / d[:, None]
        allowed = tol + tail_b[b] / d + unrealized / rden[xt]
        cols.append((np.full(len(b), n), b, t, lhs.ravel(), rhs[xt].ravel(),
                     np.abs(lhs - rhs[xt]).ravel(), np.repeat(allowed, len(targets))))
    n_of, b_of, t_of, *values = (np.concatenate(c) for c in zip(*cols)) if cols else [()] * 7

    def label(i: int) -> str:
        j, target = divmod(i, len(targets))
        return (f"n={n_of[j]} bar={cond_labels[b_of[j]]} tilde={cond_labels[t_of[j]]}"
                + target_labels[target])

    return LemmaCheckResult("strong_splitting", InstanceTable(*values, label),
                            tuple(skipped), unrealized, tol)


# ---------------------------------------------------------------------------
# Occurrence-counting transfer-matrix engine


class _MassRequests:
    """The distinct occurrence-mass requests of one check, evaluated together:
    exactly (:meth:`evaluate`) or as sampled path counts (:meth:`count`).

    Each distinct 0/1 mask over pairs has one :meth:`slot` in one mask table, slot 0
    being all ones (unconstrained). A request is a tuple of slots, one per occurrence,
    and one for the steps after them or None; :meth:`add` gives its row, shared by
    equal requests."""

    def __init__(self, n_pairs: int):
        self.masks = [np.ones(n_pairs)]
        self.slots = {tuple(range(n_pairs)): 0}     # the pairs a mask keeps -> its slot
        self.rows: dict = {}                        # (occ, shifted) -> row

    def slot(self, mask: np.ndarray) -> int:
        key = tuple(np.flatnonzero(mask).tolist())
        if key not in self.slots:
            self.slots[key] = len(self.masks)
            self.masks.append(mask)
        return self.slots[key]

    def add(self, occ: tuple, shifted: tuple | None) -> int:
        return self.rows.setdefault((occ, shifted), len(self.rows))

    def evaluate(self, jc: JointChain, A: np.ndarray,
                 horizon: int) -> tuple[list[float], list[float]]:
        """Mass and residual of every row, in one propagation over the prefix trie of all
        rows. A node is one distinct ``(occ[:kk], shifted[:kk])`` with ``kk < N`` (an
        unshifted row's shifted slots being slot 0) and holds the mass after ``kk``
        occurrences; node 0 is the root. A row is a leaf below its level ``N - 1`` node,
        done by its entering mass, or one step later by the tail if shifted. Each node
        steps as a lone request does (slot 0 is all ones, so multiplying by it is exact),
        so each mass and residual (node sums along the row's path, root first) has one
        request's floats."""
        nodes: dict = {}                    # (occ[:kk], shifted[:kk]) -> node
        trie = [(0, 0, 0)]                  # per node: parent, slot entered, slot after it
        leaves = []                         # per row: the same, from its level N - 1 node
        for occ, shifted in self.rows:
            shifted, node = shifted or (0,) * len(occ), 0
            for kk in range(1, len(occ)):
                key = (occ[:kk], shifted[:kk])
                if key not in nodes:
                    nodes[key] = len(trie)
                    trie.append((node, occ[kk - 1], shifted[kk - 1]))
                node = nodes[key]
            leaves.append((node, occ[-1], shifted[-1]))
        table, T, Ac = np.array(self.masks), jc.trans, 1.0 - A
        up, occ, after = np.array(trie).T
        leaf_up, leaf_occ, leaf_after = np.array(leaves).T
        by_tail = np.array([s is not None for _, s in self.rows])
        parent, enter, after = up[1:], table[occ[1:]], table[after]     # the root enters none
        leaf_enter, leaf_after = table[leaf_occ], table[leaf_after[by_tail]]

        done = np.zeros(len(self.rows))
        W = np.zeros((len(trie), jc.n_pairs))
        W[0] = jc.init                      # time 0: the initial law, not yet stepped
        for step in range(horizon + 1):
            if step:                        # masked by the step after each node's occurrence
                W = contract(V * A, T) * after + contract(V * Ac, T)
            WA = W * A
            V = W * Ac
            V[1:] += WA[parent] * enter
            entering = WA[leaf_up] * leaf_enter
            done[~by_tail] += entering[~by_tail].sum(axis=-1)
            done[by_tail] += (contract(entering[by_tail], T) * leaf_after).sum(axis=-1)

        sums = V.sum(axis=-1).tolist()
        path = [sums[0]]                    # per node: the sums from the root to it
        for node, up_node in enumerate(parent.tolist(), 1):
            path.append(path[up_node] + sums[node])
        return done.tolist(), [path[node] for node in leaf_up.tolist()]

    def count(self, tables) -> list[int]:
        """Path count of every row; ``tables[N, shifted]`` counts the pairs at (one
        step after) each of the first ``N`` occurrences over the paths realizing them."""
        table = np.array(self.masks, dtype=np.int64)
        counts = [0] * len(self.rows)
        for (occ, shifted), row in self.rows.items():
            # a table holds the pairs at or after the occurrences: no request constrains both
            assert shifted is None or not any(occ)
            tab = tables[len(occ), shifted is not None]
            for s in reversed(shifted or occ):
                tab = tab @ table[s]
            counts[row] = int(tab)
        return counts


def _instance_checks(table, ratio, skip_label=lambda label, ratios: label):
    """The checked rows of an instance table and its skipped labels, in table order.

    A row is ``(label, lhs, factors, const)``: ratios ``(numerator, denominator)`` of
    request rows, rhs = ``const`` times the factors. ``ratio`` gives ``(value, spread)``
    or None, which skips the row as ``skip_label(label, ratios)``, in both modes.
    Returns float64 columns ``(lhs, rhs, gap, lhs spread, sum of factor spreads)``,
    the checked rows' labels and the skipped labels (see :func:`_lemma_results`)."""
    rows, labels, skipped = [], [], []
    for label, lhs, factors, const in table:
        terms = [ratio(*lhs), *(ratio(*f) for f in factors)]
        if any(term is None for term in terms):
            skipped.append(skip_label(label, (lhs, *factors)))
            continue
        (l, spread_l), *rest = terms
        rhs, spread_r = const, 0.0
        for f, s in rest:
            rhs *= f
            spread_r += s
        rows.append((l, rhs, abs(l - rhs), spread_l, spread_r))
        labels.append(label)
    return np.array(rows, dtype=np.float64).reshape(-1, 5).T, labels, tuple(skipped)


def _lemma_results(checks: dict, allowed, residual: float, tol: float) -> tuple:
    """A result per identity from its :func:`_instance_checks`, the pass bounds being
    ``allowed(lhs spreads, factor spreads)`` of its spread columns."""
    results = []
    for lemma, ((lhs, rhs, gap, spread_l, spread_r), labels, skipped) in checks.items():
        table = InstanceTable(lhs, rhs, gap, allowed(spread_l, spread_r), labels.__getitem__)
        results.append(LemmaCheckResult(lemma, table, skipped, residual, tol))
    return tuple(results)


def _pair_options(jc: JointChain, restrict_mask=None):
    """Singleton (hidden, symbol-set) constraint options, optionally restricted
    to pairs of a target mask; adds per-hidden slices when they group pairs."""
    K = jc.n_symbols
    if restrict_mask is None:
        return [(x, (e,)) for x in range(len(jc.hidden_states)) for e in range(K)]
    by_x: dict = {}
    for p in np.flatnonzero(restrict_mask):
        by_x.setdefault(int(p) // K, []).append(int(p) % K)
    opts = []
    for x, es in sorted(by_x.items()):
        opts += [(x, (e,)) for e in es] + ([(x, tuple(es))] if len(es) > 1 else [])
    return opts


def _lemma_tables(m, spec: HittingTimeSpec, N: int | None, horizon: int, budget):
    """``(jc, A, N, requests, tables)``: the joint chain, target mask and occurrence
    count of a hitting-time check, and the instance tables of its four identities
    (see :func:`_instance_checks`) over their mass requests. Before any row is
    built, refuses (:class:`EnumerationBudgetError`) rows times ``N + 1`` slots,
    pairs and ``horizon`` steps past ``budget`` (default ``DEFAULT.enum_budget``)."""
    if not isinstance(m, HMMModel):
        raise TypeError("the hitting-time lemmas need an HMMModel "
                        "(the read-out identity references its read-out rows)")
    jc = JointChain.from_hmm(m)
    A = spec.mask(jc)
    N = spec.occurrences if N is None else N
    if N < 1:
        raise ValueError("need at least one occurrence")
    X, K = len(jc.hidden_states), jc.n_symbols
    a_opts, sets = _pair_options(jc, A), _symbol_sets(K)
    rows = ((N >= 2) * (len(a_opts) ** N + X ** (N - 1) * (X * K + X))
            + N * X * len(sets) + (X * K) ** N)
    budget = DEFAULT.enum_budget if budget is None else int(budget)
    cost = rows * (N + 1) * jc.n_pairs * horizon
    if cost > budget:
        raise EnumerationBudgetError(
            f"the hitting-time lemmas at {N} occurrences need {rows} instances, "
            f"{cost} slot-pair-steps at horizon {horizon}, exceeding the budget of {budget}")

    requests = _MassRequests(jc.n_pairs)
    none = (0,) * N
    requests.add(none, None)        # row 0: the N occurrences, unconstrained

    def ratio(num_occ, num_shift, den_occ, den_shift):
        return requests.add(num_occ, num_shift), requests.add(den_occ, den_shift)

    @cache
    def omask(opt, on_target=False):
        """Slot of an (hidden, symbol set or None) option's mask, times A if ``on_target``."""
        mask = jc.mask(hidden=opt[0], symbols=opt[1])
        return requests.slot(mask * A if on_target else mask)

    label = cache(partial(_opt_label, jc))

    @cache
    def factor(kk, opt):
        """P(pair one step after occurrence kk in opt | its hidden state)."""
        before = (0,) * (kk - 1)
        return ratio((0,) * kk, (*before, omask(opt)), (0,) * kk, (*before, omask((opt[0], None))))

    tables: dict = {}

    # (1) generalized strong splitting, constraints at the occurrences themselves
    table = tables["generalized_strong_splitting"] = []
    if N >= 2:
        for cond in iter_product(a_opts, repeat=N - 1):
            cond_occ = tuple(map(omask, cond))
            rhs_cond = (0,) * (N - 2) + (omask((cond[-1][0], None), on_target=True),)
            cond_lab = " ".join(map(label, cond))
            for tgt in a_opts:
                t = omask(tgt, on_target=True)
                table.append((f"occ[{cond_lab}] -> {label(tgt)}",
                              ratio((*cond_occ, t), None, (*cond_occ, 0), None),
                              (ratio((*rhs_cond, t), None, (*rhs_cond, 0), None),), 1.0))

    # (2) shifted variant: hidden-state constraints one step after each occurrence.
    # Conditioning uses hidden values only (symbol sets full): constraining the
    # symbol emitted at gamma_k + 1 would pin down whether that very step is the
    # next occurrence, which the identity does not quotient out.
    table = tables["shifted_strong_splitting"] = []
    if N >= 2:
        full = tuple(range(K))
        cond_opts = [(x, full) for x in range(X)]
        tgt_opts = _pair_options(jc) + cond_opts
        for cond in iter_product(cond_opts, repeat=N - 1):
            cond_shift = tuple(map(omask, cond))
            rhs_shift = (0,) * (N - 2) + (omask((cond[-1][0], None)),)
            cond_lab = " ".join(map(label, cond))
            for tgt in tgt_opts:
                t = omask(tgt)
                table.append((f"shift[{cond_lab}] -> {label(tgt)}",
                              ratio(none, (*cond_shift, t), none, (*cond_shift, 0)),
                              (ratio(none, (*rhs_shift, t), none, (*rhs_shift, 0)),), 1.0))

    # (3) read-out one step after the n-th hitting time equals the read-out row
    table = tables["readout_at_stopping_time"] = []
    for n in range(1, N + 1):
        for x2 in range(X):
            for es in sets:
                table.append((f"tau={n} P(Y_(tau+1) in {_set_label(jc, es)} | "
                              f"X_(tau+1)={jc.hidden_states[x2]})",
                              factor(n, (x2, es)), (), float(m.readout[x2, list(es)].sum())))

    # (4) conditional independence product across the shifted times.
    # Checked in the literal joint form. The product is exact whenever the law
    # of the hidden state one step ahead matches its law at the next return
    # (delta read-outs, identity chains, identical-row blocks); on generic
    # chains the jointly-conditioned form picks up boundary terms where an
    # emitted symbol decides whether gamma_{k+1} = gamma_k + 1, so battery
    # models are chosen within the exact scope.
    table = tables["conditional_independence_product"] = []
    for combo in iter_product(_pair_options(jc), repeat=N):
        table.append(("prod[" + " ".join(map(label, combo)) + "]",
                      ratio(none, tuple(map(omask, combo)),
                            none, tuple(omask((o[0], None)) for o in combo)),
                      tuple(factor(kk + 1, o) for kk, o in enumerate(combo)), 1.0))
    return jc, A, N, requests, tables


def check_hitting_time_lemmas(m, spec: HittingTimeSpec, N: int | None = None,
                              horizon: int = 8, tol: float | None = None,
                              floor: float | None = None,
                              budget=None) -> tuple[LemmaCheckResult, ...]:
    """The four identities across the first ``N`` hitting times of the target set.

    Returns one result per identity: ``generalized_strong_splitting``, its
    ``shifted_strong_splitting`` (+1) variant, ``readout_at_stopping_time``
    (the emission one step after a stopping time is the plain read-out), and
    ``conditional_independence_product``. Requires an :class:`HMMModel` since
    the read-out identity references the model's read-out rows. All masses are
    truncated at the horizon; each instance's tolerance is inflated by the
    conditional unrealized mass. Tables past ``budget`` are refused (see
    :func:`_lemma_tables`).

    Each identity becomes an instance table of ratios of mass requests, and the
    distinct requests of all four are evaluated together in one propagation over
    their shared prefixes (:meth:`_MassRequests.evaluate`) that sums as one per
    request does.
    """
    tol = _require_tol(tol)
    jc, A, N, requests, tables = _lemma_tables(m, spec, N, horizon, budget)
    mass, residual = requests.evaluate(jc, A, horizon)
    _require_realized(f"{N} occurrences", mass[0], floor)

    def ratio(num, den):
        d, res = mass[den], residual[den]
        if d <= MASS_FLOOR:
            return None
        return mass[num] / d, (res / (d + res) if res > 0 else 0.0)

    checks = {lemma: _instance_checks(table, ratio) for lemma, table in tables.items()}
    return _lemma_results(checks, lambda tail_l, tail_r: tol + tail_l + tail_r, residual[0], tol)


# ---------------------------------------------------------------------------
# Monte Carlo mode


def _sample_joint_paths(jc: JointChain, length: int, count: int,
                        src: RandomSource) -> np.ndarray:
    """``count`` paths of pair indices (one byte each up to 256 pairs); path ``i``
    reads row ``i`` of a row-major ``(count, length)`` block of ``src``'s uniforms."""
    gen = src.generator()
    P = jc.n_pairs
    cum = cdf_table([*jc.trans, jc.init])           # row P draws the first pair
    block = max(1, DRAWS_PER_CHUNK // length)
    step = walk(cum, np.broadcast_to(np.arange(cum.shape[1]), cum.shape), block, count * length)
    out = np.empty((count, length), dtype=np.min_scalar_type(P - 1))
    for lo in range(0, count, block):
        us = gen.random((min(block, count - lo), length))
        out[lo:lo + len(us)] = step(np.full(len(us), P), us)[0]
    return out


def check_lemmas_mc(m, spec: HittingTimeSpec, samples: int, src: RandomSource,
                    horizon: int = 12, N: int | None = None,
                    floor: float | None = None, alpha: float | None = None,
                    budget=None) -> tuple[LemmaCheckResult, ...]:
    """Monte Carlo counterpart of :func:`check_hitting_time_lemmas`, over the same
    instance tables: each mass request becomes the count of the ``samples``
    joint paths (sampled together, see :mod:`chainmix.sim`) that realize it.

    An instance passes when its gap is within ``z`` combined binomial standard
    errors of its lhs and factors, ``z`` two-sided Bonferroni at level ``alpha``
    (default ``DEFAULT.alpha``) over all instances checked. A zero denominator
    count skips the instance, labelled with its counts. Like the exact mode, it
    refuses tables past ``budget`` (before sampling) and a share of paths
    realizing the ``N`` occurrences by the horizon below ``floor``.
    """
    if samples < 10_000:
        raise ValueError("Monte Carlo mode needs at least 10^4 samples")
    alpha = _require_level(alpha)
    jc, A, N, requests, tables = _lemma_tables(m, spec, N, horizon, budget)
    paths = _sample_joint_paths(jc, horizon + 2, samples, src)

    visits = np.cumsum((A > 0)[paths[:, :horizon + 1]], axis=1, dtype=np.int32)
    hits = visits[:, -1]                            # occurrences realized by the horizon
    # occurrence k is at the first t <= horizon with k visits; counted only if k <= hits
    t = np.stack([np.argmax(visits > kk, axis=1) for kk in range(N)], axis=1)
    at, after = np.take_along_axis(paths, t, 1), np.take_along_axis(paths, t + 1, 1)
    P = jc.n_pairs
    counts = requests.count({
        (n, shifted): np.bincount((after if shifted else at)[hits >= n, :n]
                                  @ P ** np.arange(n - 1, -1, -1),     # row-major rank
                                  minlength=P ** n).reshape((P,) * n)
        for n in range(1, N + 1) for shifted in (False, True)})
    residual = 1.0 - counts[0] / samples
    _require_realized(f"{N} occurrences", 1.0 - residual, floor, "increase the horizon")

    def ratio(num, den):
        n = counts[den]
        if n == 0:
            return None
        p = counts[num] / n
        return p, max(math.sqrt(p * (1 - p) / n), 1.0 / n) ** 2

    def skip_label(label, ratios):
        return f"{label} (den counts {'/'.join(str(counts[den]) for _, den in ratios)})"

    checks = {lemma: _instance_checks(table, ratio, skip_label)
              for lemma, table in tables.items()}
    from statistics import NormalDist       # here: keeps it off every command's start-up
    checked = sum(len(labels) for _, labels, _ in checks.values())
    z = NormalDist().inv_cdf(1.0 - alpha / (2 * max(checked, 1)))
    return _lemma_results(checks, lambda var_l, var_r: z * np.sqrt(var_l + var_r),
                          residual, float("nan"))
