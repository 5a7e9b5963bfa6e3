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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iter_product

import numpy as np

from .config import DEFAULT
from .errors import EnumerationBudgetError, TruncationError
from .model_core import Alphabet, HMMModel, require_valid
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
        init = np.array(self.init, dtype=float)
        trans = np.array(self.trans, dtype=float)
        init.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "trans", trans)

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
        """0/1 mask over pairs; None means unconstrained on that coordinate."""
        K = self.n_symbols
        out = np.ones(self.n_pairs)
        if hidden is not None:
            hs = {hidden} if isinstance(hidden, int) else set(hidden)
            keep = np.zeros(self.n_pairs)
            for x in hs:
                keep[x * K:(x + 1) * K] = 1.0
            out *= keep
        if symbols is not None:
            es = {symbols} if isinstance(symbols, int) else set(symbols)
            keep = np.zeros(self.n_pairs)
            for e in es:
                keep[e::K] = 1.0
            out *= keep
        return out


def as_joint(model) -> JointChain:
    return model if isinstance(model, JointChain) else JointChain.from_hmm(model)


def corrupted_previous_symbol_joint(m: HMMModel, trigger: str | None = None) -> JointChain:
    """Negative-control joint law: the read-out depends on the previous state.

    Whenever the previously emitted symbol equals ``trigger`` (default: the
    first emittable symbol), the next emission uses each hidden state's read-out
    row cyclically shifted by one column. The joint law stays a proper Markov
    chain on pairs but is not an HMM, so the splitting identity must fail.
    """
    require_valid(m)
    X, K = m.n_hidden, m.alphabet.size
    trig = m.alphabet.emit_index(trigger) if trigger is not None else 0
    shifted = np.roll(m.readout, 1, axis=1)
    base = (m.P.rows[:, :, None] * m.readout[None, :, :]).reshape(X, X * K)
    odd = (m.P.rows[:, :, None] * shifted[None, :, :]).reshape(X, X * K)
    trans = np.empty((X * K, X * K))
    for x in range(X):
        for e in range(K):
            trans[x * K + e] = odd[x] if e == trig else base[x]
    init = (m.pi.weights[:, None] * m.readout).ravel()
    return JointChain(m.hidden_states, m.alphabet, init, trans)


@dataclass(frozen=True)
class HittingTimeSpec:
    """Target set of (hidden, symbol) pairs whose successive visits are the
    hitting times; ``"*"`` is a wildcard on either coordinate."""

    targets: frozenset
    occurrences: int = 1

    @classmethod
    def for_symbol(cls, symbol: str, occurrences: int = 1) -> "HittingTimeSpec":
        return cls(frozenset({("*", symbol)}), occurrences)

    @classmethod
    def for_pair(cls, hidden: str, symbol: str, occurrences: int = 1) -> "HittingTimeSpec":
        return cls(frozenset({(hidden, symbol)}), occurrences)

    def mask(self, jc: JointChain) -> np.ndarray:
        out = np.zeros(jc.n_pairs)
        for p in range(jc.n_pairs):
            x, y = jc.pair_label(p)
            for hx, hy in self.targets:
                if (hx == "*" or hx == x) and (hy == "*" or hy == y):
                    out[p] = 1.0
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


@dataclass(frozen=True)
class LemmaCheckResult:
    lemma: str
    checked: tuple[InstanceCheck, ...]
    skipped: tuple[str, ...]
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checked)

    @property
    def max_gap(self) -> float:
        return max((c.gap for c in self.checked), default=0.0)

    def failures(self) -> list[InstanceCheck]:
        return [c for c in self.checked if not c.passed]


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
    if symbol_sets is not None:
        return [tuple(sorted(s)) for s in symbol_sets]
    if K <= 3:
        sets = []
        for r in range(1, K + 1):
            sets.extend(combinations(range(K), r))
        return sets
    return [(e,) for e in range(K)] + [tuple(range(K))]


def _set_label(jc: JointChain, es: tuple[int, ...]) -> str:
    em = jc.alphabet.emittable
    if len(es) == jc.n_symbols:
        return "*"
    return "{" + ",".join(em[e] for e in es) + "}"


def check_splitting(model, N: int = 3, tol: float | None = None,
                    symbol_sets=None) -> LemmaCheckResult:
    """Full-past versus one-step conditioning at fixed times.

    For every ``n <= N`` and every instance ``(x_1..x_{n-1}, S_1..S_{n-1}, x, S_n)``
    with positive conditioning mass, compares

    ``P(X_n=x, Y_n in S_n | X_1^{n-1}=x_1^{n-1}, Y_1^{n-1} in S_1^{n-1})``

    against ``P(X_n=x, Y_n in S_n | X_{n-1}=x_{n-1})``. Zero-mass conditioning
    events are reported as skipped.
    """
    tol = DEFAULT.tol_exact if tol is None else tol
    jc = as_joint(model)
    X, K = len(jc.hidden_states), jc.n_symbols
    sets = _symbol_sets(K, symbol_sets)
    combos = [(x, es) for x in range(X) for es in sets]
    masks = {(x, es): jc.mask(hidden=x, symbols=es) for x, es in combos}
    targets = [((x, es), jc.mask(hidden=x, symbols=es)) for x, es in combos]

    checked: list[InstanceCheck] = []
    skipped: list[str] = []

    def combo_label(x, es):
        return f"(x={jc.hidden_states[x]},S={_set_label(jc, es)})"

    for n in range(2, N + 1):
        marginal = jc.init.copy()
        for _ in range(n - 1):
            marginal = marginal @ jc.trans
        rhs_table = {}
        for x_prev in range(X):
            u = marginal * jc.mask(hidden=x_prev)
            den = float(u.sum())
            if den <= MASS_FLOOR:
                rhs_table[x_prev] = None
                continue
            v = u @ jc.trans
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
                post = vec @ jc.trans
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
                if depth == n - 1:
                    descend(nxt, depth + 1, trail + [combo_label(x, es)], x)
                else:
                    descend(nxt @ jc.trans, depth + 1, trail + [combo_label(x, es)], x)

        descend(jc.init @ jc.trans, 1, [], -1)

    return LemmaCheckResult("splitting", tuple(checked), tuple(skipped), 0.0, tol)


# ---------------------------------------------------------------------------
# Strong splitting across the first hitting time


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
    """
    tol = DEFAULT.tol_exact if tol is None else tol
    floor = DEFAULT.horizon_floor if floor is None else floor
    jc = as_joint(model)
    X, K = len(jc.hidden_states), jc.n_symbols
    A = spec.mask(jc)
    Ac = 1.0 - A
    T = jc.trans
    Tk = np.linalg.matrix_power(T, k)

    w = [jc.init]
    for _ in range(horizon + 1):
        w.append((w[-1] * Ac) @ T)
    unrealized = float(w[horizon + 1].sum())
    if 1.0 - unrealized < floor:
        raise TruncationError(
            f"first hitting time realized with mass {1 - unrealized:.6g} < floor {floor}; "
            "increase the horizon or use the Monte Carlo mode"
        )
    hits = [w[r] * A for r in range(horizon + 1)]

    sets = _symbol_sets(K, symbol_sets)
    target_sets = [tuple(range(K))] if k == 0 else sets
    hs = jc.hidden_states
    if n_values is None:
        n_values = range(1, horizon + 1)
    n_values = list(n_values)
    if any(n < 1 or n > horizon for n in n_values):
        raise ValueError("free conditioning times n must lie in 1..horizon")

    q_cols = {(x, es): Tk @ jc.mask(hidden=x, symbols=es) for x in range(X)
              for es in target_sets}
    rhs_cache = {}
    for x_tilde in range(X):
        R = sum(hits) * jc.mask(hidden=x_tilde)
        den = float(R.sum())
        rhs_cache[x_tilde] = None if den <= MASS_FLOOR else (R, den)

    checked: list[InstanceCheck] = []
    skipped: list[str] = []
    for n in n_values:
        for x_bar in range(X):
            for s1 in sets:
                maskB = jc.mask(hidden=x_bar, symbols=s1)
                wb = w[n] * maskB
                line = [wb]
                for _ in range(n, horizon):
                    line.append((line[-1] * Ac) @ T)
                tail_b = float(((line[-1] * Ac) @ T).sum()) if line else 0.0
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
                                lhs = float(V @ q) / den
                                rhs = float(R @ q) / rden
                                label = f"{base} -> ({hs[x]},{_set_label(jc, s3)}) k={k}"
                                checked.append(InstanceCheck(label, lhs, rhs,
                                                             abs(lhs - rhs), allowed))
    return LemmaCheckResult("strong_splitting", tuple(checked), tuple(skipped),
                            unrealized, tol)


# ---------------------------------------------------------------------------
# Occurrence-counting transfer-matrix engine


def _occurrence_mass(jc: JointChain, A: np.ndarray, occ_masks, shifted_masks,
                     horizon: int) -> tuple[float, float]:
    """Mass of paths whose first ``N`` target occurrences happen by ``horizon``
    and satisfy the per-occurrence constraints.

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
                done += float(((v[N] @ T) * shifted_masks[N - 1]).sum())
                continue
            w = (v[kk] * A) @ T
            if kk >= 1 and shifted_masks[kk - 1] is not None:
                w = w * shifted_masks[kk - 1]
            w = w + (v[kk] * Ac) @ T
            entering = w * A * occ(kk + 1)
            if kk + 1 == N and not need_tail:
                done += float(entering.sum())
            else:
                new[kk + 1] += entering
            new[kk] += w * Ac
        v = new

    if need_tail and v[N].any():
        done += float(((v[N] @ T) * shifted_masks[N - 1]).sum())
        v[N][:] = 0.0
    residual = float(sum(v[kk].sum() for kk in range(N)))
    return done, residual


def _pair_options(jc: JointChain, restrict_mask=None):
    """Singleton (hidden, symbol-set) constraint options, optionally restricted
    to pairs of a target mask; adds per-hidden slices when they group pairs."""
    K = jc.n_symbols
    opts = []
    if restrict_mask is None:
        for x in range(len(jc.hidden_states)):
            for e in range(K):
                opts.append((x, (e,)))
        return opts
    by_x: dict = {}
    for p in np.flatnonzero(restrict_mask):
        x, e = divmod(int(p), K)
        by_x.setdefault(x, []).append(e)
    for x, es in sorted(by_x.items()):
        for e in es:
            opts.append((x, (e,)))
        if len(es) > 1:
            opts.append((x, tuple(es)))
    return opts


def _opt_label(jc: JointChain, opt) -> str:
    x, es = opt
    return f"({jc.hidden_states[x]},{_set_label(jc, es)})"


def check_hitting_time_lemmas(m, spec: HittingTimeSpec, N: int | None = None,
                              horizon: int = 8, tol: float | None = None,
                              floor: float | None = None) -> tuple[LemmaCheckResult, ...]:
    """The four identities across the first ``N`` hitting times of the target set.

    Returns one result per identity: ``generalized_strong_splitting``, its
    ``shifted_strong_splitting`` (+1) variant, ``readout_at_stopping_time``
    (the emission one step after a stopping time is the plain read-out), and
    ``conditional_independence_product``. Requires an :class:`HMMModel` since
    the read-out identity references the model's read-out rows. All masses are
    truncated at the horizon; each instance's tolerance is inflated by the
    conditional unrealized mass.
    """
    tol = DEFAULT.tol_exact if tol is None else tol
    floor = DEFAULT.horizon_floor if floor is None else floor
    if not isinstance(m, HMMModel):
        raise TypeError("check_hitting_time_lemmas needs an HMMModel "
                        "(the read-out identity references its read-out rows)")
    require_valid(m)
    jc = JointChain.from_hmm(m)
    A = spec.mask(jc)
    N = spec.occurrences if N is None else N
    if N < 1:
        raise ValueError("need at least one occurrence")

    base_done, base_res = _occurrence_mass(jc, A, [None] * N, [None] * N, horizon)
    if base_done < floor:
        raise TruncationError(
            f"{N} occurrences realized with mass {base_done:.6g} < floor {floor}; "
            "increase the horizon or use the Monte Carlo mode"
        )

    cache: dict = {}

    def mass(occ, shifted):
        key = (tuple(x if x is None else x.tobytes() for x in occ),
               tuple(x if x is None else x.tobytes() for x in shifted),
               len(occ))
        if key not in cache:
            cache[key] = _occurrence_mass(jc, A, list(occ), list(shifted), horizon)
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

    # (1) generalized strong splitting, constraints at the occurrences themselves
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

    # (2) shifted variant: hidden-state constraints one step after each occurrence.
    # Conditioning uses hidden values only (symbol sets full): constraining the
    # symbol emitted at gamma_k + 1 would pin down whether that very step is the
    # next occurrence, which the identity does not quotient out.
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

    # (3) read-out one step after the n-th hitting time equals the read-out row
    checked, skipped = [], []
    sets = _symbol_sets(jc.n_symbols)
    ones = np.ones(jc.n_pairs)
    for n in range(1, N + 1):
        for x2 in range(len(jc.hidden_states)):
            den_shift = [None] * (n - 1) + [jc.mask(hidden=x2)]
            for es in sets:
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

    # (4) conditional independence product across the shifted times.
    # Checked in the literal joint form. The product is exact whenever the law
    # of the hidden state one step ahead matches its law at the next return
    # (delta read-outs, identity chains, identical-row blocks); on generic
    # chains the jointly-conditioned form picks up boundary terms where an
    # emitted symbol decides whether gamma_{k+1} = gamma_k + 1, so battery
    # models are chosen within the exact scope.
    checked, skipped = [], []
    opts = _pair_options(jc)
    per_k: dict = {}

    def factor(kk, opt):
        if (kk, opt) not in per_k:
            den_shift = [None] * (kk - 1) + [jc.mask(hidden=opt[0])]
            num_shift = [None] * (kk - 1) + [omask(opt)]
            per_k[(kk, opt)] = ratio([None] * kk, num_shift, [None] * kk, den_shift)
        return per_k[(kk, opt)]

    for combo in iter_product(opts, repeat=N):
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


# ---------------------------------------------------------------------------
# Monte Carlo mode


def _sample_joint_paths(jc: JointChain, length: int, count: int,
                        src: RandomSource) -> np.ndarray:
    """``count`` paths of pair indices, advanced in lockstep; path ``i`` reads
    row ``i`` of a row-major ``(count, length)`` block of ``src``'s uniforms."""
    gen = src.generator()
    P = jc.n_pairs
    cum = cdf_table([*jc.trans, jc.init])           # row P draws the first pair
    nxt = np.broadcast_to(np.arange(cum.shape[1]), cum.shape)
    out = np.empty((count, length), dtype=np.int64)
    block = max(1, DRAWS_PER_CHUNK // length)
    for lo in range(0, count, block):
        us = gen.random((min(block, count - lo), length))
        out[lo:lo + len(us)] = walk(cum, nxt, np.full(len(us), P), us)[0].T
    return out


def check_lemmas_mc(m, spec: HittingTimeSpec, samples: int, src: RandomSource,
                    horizon: int = 12, N: int | None = None) -> tuple[LemmaCheckResult, ...]:
    """Monte Carlo counterpart of :func:`check_hitting_time_lemmas`.

    Estimates each identity's two sides by empirical conditional frequencies
    over ``samples`` simulated joint paths; an instance passes when the gap is
    within three combined binomial standard errors. Instances whose conditioning
    event never occurs are skipped with a count report.

    Paths are sampled in lockstep (see :mod:`chainmix.sim`). Every frequency is
    an integer count over its denominator, read from count tables of the pairs
    at (and one step after) the first ``N`` occurrences.
    """
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


# ---------------------------------------------------------------------------
# Trajectory-level helpers


def hidden_after_visits(t, symbol: str) -> tuple[str, ...]:
    """The hidden-state sequence sampled at the steps right after each visit to
    ``symbol`` (needs a hidden trace); the induced chain of the successors row."""
    if t.hidden is None:
        raise ValueError("trajectory has no hidden trace")
    out = []
    for i in range(len(t) - 1):
        if t.symbols[i] == symbol:
            out.append(t.hidden[i + 1])
    return tuple(out)
