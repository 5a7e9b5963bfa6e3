"""Core model types, validation, and exact finite-horizon laws.

Four generative model classes over a shared finite alphabet:

* ``IIDMixtureModel``          draw a component distribution once, then emit i.i.d.
* ``MarkovMixtureModel``       draw a transition matrix once, run the chain from ``y0``
* ``HMMModel``                 hidden Markov chain with per-state read-out distributions
* ``PartitionedKernelMixture`` chain whose kernel depends on the current symbol only
  through the cell of a fixed partition (finite stand-in for a general state space)

Each class gets an exact law operation producing a :class:`FiniteLaw` -- the full
probability table over bounded-horizon strings, the universal comparison object.
String conventions follow the generative definitions: i.i.d. mixtures and HMMs
produce laws over ``(Y_0, ..., Y_N)``; Markov and partitioned mixtures fix
``Y_0 = y0`` and produce laws over ``(Y_1, ..., Y_N)``.

The fictitious symbol ``@del`` occupies alphabet index 0 everywhere. No model may
emit it; it exists for successors-array padding semantics and partition cell 0.
All numeric arrays are indexed over the *emittable* symbols (alphabet minus
``@del``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .errors import EnumerationBudgetError, InvalidModelError

DELTA = "@del"            # reserved fictitious symbol, always alphabet index 0
SUM_TOL = 1e-12           # distribution / stochastic-row sum tolerance
LAW_SUM_TOL = 1e-9        # enumeration rounding budget for law tables
SPARSE_FRACTION = 0.25    # tables with fewer nonzeros than this fraction go sparse
BLOCK = 4096              # ranks decoded at a time: bounds the codec's scratch arrays


def _frozen(a, ndim):
    a = np.array(a, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol labels; index 0 is the reserved fictitious symbol ``@del``."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))

    @classmethod
    def of(cls, emittable) -> "Alphabet":
        """Build an alphabet from emittable labels, prepending ``@del``."""
        return cls((DELTA, *emittable))

    @property
    def emittable(self) -> tuple[str, ...]:
        return self.symbols[1:]

    @property
    def size(self) -> int:
        """Number of emittable symbols."""
        return len(self.symbols) - 1

    @cached_property
    def _emit_index(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols[1:])}

    def emit_index(self, label: str) -> int:
        """0-based position of an emittable symbol within array axes."""
        try:
            return self._emit_index[label]
        except KeyError:
            raise KeyError(f"symbol {label!r} is not an emittable symbol of this alphabet") from None

    def __contains__(self, label) -> bool:
        return label in self._emit_index


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite index set."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights, 1))

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, i) -> float:
        return float(self.weights[i])


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic square matrix with state labels."""

    rows: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        rows = _frozen(self.rows, 2)
        object.__setattr__(self, "rows", rows)
        labels = tuple(self.labels) or tuple(str(i) for i in range(rows.shape[0]))
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no state labelled {label!r}") from None


@dataclass(frozen=True)
class HMMModel:
    """Hidden Markov model: chain ``P`` on hidden states, read-out matrix ``readout``.

    ``readout[x]`` is the emission distribution of hidden state ``x`` over the
    emittable alphabet. The output process is conditionally independent given
    the hidden chain by construction of :func:`hmm_law` and :func:`chainmix.sim.sample`.
    """

    hidden_states: tuple[str, ...]
    alphabet: Alphabet
    pi: Distribution
    P: StochasticMatrix
    readout: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hidden_states", tuple(self.hidden_states))
        object.__setattr__(self, "readout", _frozen(self.readout, 2))

    @property
    def n_hidden(self) -> int:
        return len(self.hidden_states)


@dataclass(frozen=True)
class MarkovMixtureModel:
    """Mixture of Markov chains: weights over components, all started at ``y0``."""

    alphabet: Alphabet
    y0: str
    weights: Distribution
    components: tuple[StochasticMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class IIDMixtureModel:
    """Mixture of i.i.d. sequences: weights over component emission distributions."""

    alphabet: Alphabet
    weights: Distribution
    components: tuple[Distribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Partition:
    """Cells ``E_1 .. E_J`` over the emittable alphabet; cell 0 is ``{@del}``, implicit."""

    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(tuple(c) for c in self.cells))

    @property
    def n_cells(self) -> int:
        """Number of real cells J (cell 0 not counted)."""
        return len(self.cells)

    @cached_property
    def _cell_of(self) -> dict:
        out = {}
        for j, cell in enumerate(self.cells, start=1):
            for s in cell:
                out[s] = j
        return out

    def cell_index_of(self, label: str) -> int:
        """1-based cell index of a symbol."""
        try:
            return self._cell_of[label]
        except KeyError:
            raise KeyError(f"symbol {label!r} belongs to no cell of the partition") from None


@dataclass(frozen=True)
class PartitionedKernelMixture:
    """Mixture of cell-indexed-kernel chains over a fine alphabet.

    ``kernels[h, j-1]`` is the distribution of the next symbol when the current
    symbol lies in cell ``E_j``. The start symbol ``y0`` must belong to ``E_1``.
    """

    alphabet: Alphabet
    partition: Partition
    weights: Distribution
    kernels: np.ndarray          # shape (H, J, K)
    y0: str

    def __post_init__(self):
        object.__setattr__(self, "kernels", _frozen(self.kernels, 3))

    @property
    def n_components(self) -> int:
        return self.kernels.shape[0]

    @cached_property
    def cell_index_array(self) -> np.ndarray:
        """1-based cell index per emittable symbol, as an array."""
        return np.array([self.partition.cell_index_of(s) for s in self.alphabet.emittable])

    def kernel(self, h: int, j: int) -> np.ndarray:
        """Row ``t_h(j, .)`` for a real cell index ``j >= 1``."""
        if j < 1:
            raise IndexError("cell 0 is the reserved {@del} cell; kernels cover cells 1..J")
        return self.kernels[h, j - 1]


@dataclass(frozen=True)
class FiniteLaw:
    """Exact probability table over all strings of a fixed length.

    Stored densely as a flat array indexed by rank (row-major, first symbol most
    significant, see :func:`rank_digits`) or, when the table has few nonzeros,
    sparsely as a dict from emit-index (digit) tuples of Python ints to
    probabilities. Dicts built from ranks are filled in ascending rank, which is
    alphabet order. ``length`` is the number of symbols per string.
    """

    alphabet: Alphabet
    length: int
    dense: np.ndarray | None = None
    sparse: dict | None = None

    @classmethod
    def from_flat(cls, alphabet: Alphabet, length: int, flat: np.ndarray) -> "FiniteLaw":
        flat = np.asarray(flat, dtype=float)
        nonzero = np.flatnonzero(flat)
        if nonzero.size < SPARSE_FRACTION * flat.size:
            return cls(alphabet, length,
                       sparse=rank_table(nonzero, flat[nonzero], alphabet.size, length))
        flat = flat.copy()
        flat.setflags(write=False)
        return cls(alphabet, length, dense=flat)

    @classmethod
    def from_probs(cls, alphabet: Alphabet, length: int, probs: dict) -> "FiniteLaw":
        """Build from ``{tuple-of-symbol-labels: probability}``."""
        table = {}
        for labels, p in probs.items():
            if len(labels) != length:
                raise ValueError(f"string {labels!r} does not have length {length}")
            if p != 0.0:
                table[tuple(alphabet.emit_index(s) for s in labels)] = float(p)
        return cls(alphabet, length, sparse=table)

    @property
    def table_size(self) -> int:
        return self.alphabet.size ** self.length

    def prob(self, labels) -> float:
        idx = tuple(self.alphabet.emit_index(s) for s in labels)
        if len(idx) != self.length:
            raise ValueError(f"string has length {len(idx)}, law has length {self.length}")
        if self.sparse is not None:
            return self.sparse.get(idx, 0.0)
        return float(self.dense.reshape((self.alphabet.size,) * self.length)[idx])

    def nonzero(self) -> dict:
        """Nonzero entries as ``{emit-index tuple: probability}``."""
        if self.sparse is not None:
            return dict(self.sparse)
        ranks = np.flatnonzero(self.dense)
        return rank_table(ranks, self.dense[ranks], self.alphabet.size, self.length)

    def to_flat(self) -> np.ndarray:
        if self.dense is not None:
            return np.asarray(self.dense)
        k = self.alphabet.size
        flat = np.zeros(k ** self.length)
        digits = np.array(list(self.sparse), dtype=np.int64).reshape(-1, self.length)
        flat[digits @ k ** np.arange(self.length - 1, -1, -1)] = list(self.sparse.values())
        return flat

    def total(self) -> float:
        if self.sparse is not None:
            return float(sum(self.sparse.values()))
        return float(self.dense.sum())

    def labels_of(self, idx) -> tuple[str, ...]:
        em = self.alphabet.emittable
        return tuple(em[i] for i in idx)

    def label_blocks(self):
        """Yield ``(label tuples, probabilities)`` of the nonzero entries in alphabet order,
        ``BLOCK`` at a time. Sparse keys are sorted, never ranked: ranks may exceed int64."""
        em = np.array(self.alphabet.emittable, dtype=object)
        keys = np.flatnonzero(self.dense) if self.sparse is None else sorted(self.sparse)
        for i in range(0, len(keys), BLOCK):
            block = keys[i:i + BLOCK]
            if self.sparse is None:
                digits = rank_digits(block, self.alphabet.size, self.length)
                yield zip(*em[digits].T.tolist()), self.dense[block].tolist()
            else:
                yield zip(*em[np.array(block)].T.tolist()), [self.sparse[s] for s in block]

    def entries(self):
        """Yield ``(label tuple, probability)`` for nonzero entries in alphabet order
        (ascending rank), decoded ``BLOCK`` (4096) entries at a time."""
        for labels, probs in self.label_blocks():
            yield from zip(labels, probs)


def rank_digits(ranks, k: int, length: int) -> np.ndarray:
    """``(n, length)`` matrix of the base-``k`` digits of int64 ``ranks``, most
    significant first: the emit-index strings at those flat indices of a table."""
    digits = np.asarray(ranks, dtype=np.int64)[:, None] // k ** np.arange(length - 1, -1, -1)
    digits %= k
    return digits


def rank_table(ranks: np.ndarray, probs: np.ndarray, k: int, length: int) -> dict:
    """``{emit-index tuple: probability}`` keyed in the order of ``ranks``, ``BLOCK`` at a
    time. Zipping digit columns makes the key tuples without a list per row."""
    table = {}
    for i in range(0, len(ranks), BLOCK):
        columns = rank_digits(ranks[i:i + BLOCK], k, length).T.tolist()
        table.update(zip(zip(*columns), probs[i:i + BLOCK].tolist()))
    return table


# ---------------------------------------------------------------------------
# Validation


def validate_model(model) -> list[str]:
    """Check every invariant of the given object; return violations (empty = valid).

    Accepts any of the model classes plus ``Alphabet``, ``Distribution``,
    ``StochasticMatrix`` and ``FiniteLaw``. Violations are returned, never raised.
    """
    if isinstance(model, Alphabet):
        return _check_alphabet(model)
    if isinstance(model, Distribution):
        return _check_distribution(model.weights, "distribution")
    if isinstance(model, StochasticMatrix):
        return _check_matrix(model, "matrix")
    if isinstance(model, FiniteLaw):
        return _check_law(model)
    if isinstance(model, HMMModel):
        return _check_hmm(model)
    if isinstance(model, MarkovMixtureModel):
        return _check_markov_mixture(model)
    if isinstance(model, IIDMixtureModel):
        return _check_iid_mixture(model)
    if isinstance(model, PartitionedKernelMixture):
        return _check_partitioned(model)
    return [f"unknown model type {type(model).__name__}"]


def require_valid(model):
    """Raise :class:`InvalidModelError` unless ``validate_model`` comes back clean."""
    violations = validate_model(model)
    if violations:
        raise InvalidModelError(violations)
    return model


def _check_alphabet(a: Alphabet) -> list[str]:
    out = []
    if not a.symbols:
        return ["alphabet: empty"]
    if a.symbols[0] != DELTA:
        out.append(f"alphabet: index 0 must be the fictitious symbol {DELTA!r}")
    if len(set(a.symbols)) != len(a.symbols):
        out.append("alphabet: labels are not unique")
    if DELTA in a.symbols[1:]:
        out.append(f"alphabet: {DELTA!r} may appear only at index 0")
    if a.size == 0:
        out.append("alphabet: no emittable symbols")
    return out


def _check_distribution(w: np.ndarray, name: str, strictly_positive=False) -> list[str]:
    out = []
    if w.ndim != 1:
        return [f"{name}: not a vector"]
    if np.any(w < 0):
        bad = int(np.argmin(w))
        out.append(f"{name}: weight {bad} is negative ({w[bad]:g})")
    s = float(w.sum())
    if abs(s - 1.0) > SUM_TOL:
        out.append(f"{name}: sums to {s:.12g}")
    if strictly_positive and np.any(w <= 0):
        bad = int(np.argmin(w))
        out.append(f"{name}: weight {bad} not strictly positive")
    return out


def _check_matrix(m: StochasticMatrix, name: str) -> list[str]:
    out = []
    if m.rows.ndim != 2 or m.rows.shape[0] != m.rows.shape[1]:
        return [f"{name}: not square (shape {m.rows.shape})"]
    if len(m.labels) != m.rows.shape[0]:
        out.append(f"{name}: {len(m.labels)} labels for {m.rows.shape[0]} states")
    for i, row in enumerate(m.rows):
        if np.any(row < 0):
            out.append(f"{name}: row {i} has a negative entry")
        s = float(row.sum())
        if abs(s - 1.0) > SUM_TOL:
            out.append(f"{name}: row {i} sums to {s:.12g}")
    return out


def _check_law(law: FiniteLaw) -> list[str]:
    out = _check_alphabet(law.alphabet)
    if (law.dense is None) == (law.sparse is None):
        return out + ["law: exactly one of dense/sparse must be set"]
    values = law.dense if law.dense is not None else np.array(list(law.sparse.values()) or [0.0])
    if np.any(values < 0):
        out.append("law: negative probability entry")
    total = law.total()
    if abs(total - 1.0) > LAW_SUM_TOL:
        out.append(f"law: table sums to {total:.12g}")
    return out


def _check_hmm(m: HMMModel) -> list[str]:
    out = _check_alphabet(m.alphabet)
    n, k = m.n_hidden, m.alphabet.size
    if m.pi.size != n:
        out.append(f"pi: size {m.pi.size} for {n} hidden states")
    else:
        out += _check_distribution(m.pi.weights, "pi")
    if m.P.rows.shape != (n, n):
        out.append(f"P: shape {m.P.rows.shape} for {n} hidden states")
    else:
        out += _check_matrix(m.P, "P")
        if m.P.labels != m.hidden_states:
            out.append("P: labels differ from hidden_states")
    if m.readout.shape != (n, k):
        out.append(f"readout: shape {m.readout.shape}, expected {(n, k)}")
    else:
        for x in range(n):
            out += _check_distribution(m.readout[x], f"readout row {x}")
    if len(set(m.hidden_states)) != n:
        out.append("hidden_states: labels are not unique")
    return out


def _check_markov_mixture(m: MarkovMixtureModel) -> list[str]:
    out = _check_alphabet(m.alphabet)
    k = m.alphabet.size
    if m.weights.size != m.n_components:
        out.append(f"weights: size {m.weights.size} for {m.n_components} components")
    else:
        out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    if m.y0 not in m.alphabet:
        out.append(f"y0: {m.y0!r} not in the alphabet")
    for h, comp in enumerate(m.components):
        if comp.rows.shape != (k, k):
            out.append(f"component {h}: shape {comp.rows.shape}, expected {(k, k)}")
            continue
        out += _check_matrix(comp, f"component {h}")
        if comp.labels != m.alphabet.emittable:
            out.append(f"component {h}: labels differ from the alphabet")
    if not out and m.y0 in m.alphabet:
        from . import chain_analysis  # late import: chain_analysis builds on these types

        for h, comp in enumerate(m.components):
            if not chain_analysis.is_recurrent(comp, [m.y0]):
                out.append(f"component {h}: states reachable from y0 include transient states")
    return out


def _check_iid_mixture(m: IIDMixtureModel) -> list[str]:
    out = _check_alphabet(m.alphabet)
    k = m.alphabet.size
    if m.weights.size != m.n_components:
        out.append(f"weights: size {m.weights.size} for {m.n_components} components")
    else:
        out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    for h, comp in enumerate(m.components):
        if comp.size != k:
            out.append(f"component {h}: size {comp.size} for alphabet of {k}")
        else:
            out += _check_distribution(comp.weights, f"component {h}")
    return out


def _check_partitioned(m: PartitionedKernelMixture) -> list[str]:
    out = _check_alphabet(m.alphabet)
    if out:
        return out
    k = m.alphabet.size
    cells = m.partition.cells
    seen: set[str] = set()
    for j, cell in enumerate(cells, start=1):
        if not cell:
            out.append(f"partition: cell {j} is empty")
        for s in cell:
            if s not in m.alphabet:
                out.append(f"partition: cell {j} contains unknown symbol {s!r}")
            elif s in seen:
                out.append(f"partition: symbol {s!r} appears in more than one cell")
            seen.add(s)
    missing = set(m.alphabet.emittable) - seen
    if missing:
        out.append(f"partition: symbols {sorted(missing)} belong to no cell")
    if out:
        return out
    J = m.partition.n_cells
    if m.kernels.shape != (m.weights.size, J, k):
        return out + [f"kernels: shape {m.kernels.shape}, expected {(m.weights.size, J, k)}"]
    out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    if m.y0 not in m.alphabet:
        out.append(f"y0: {m.y0!r} not in the alphabet")
    elif m.partition.cell_index_of(m.y0) != 1:
        out.append(f"y0: {m.y0!r} must lie in cell 1")
    cell_of = np.array([m.partition.cell_index_of(s) for s in m.alphabet.emittable])
    for h in range(m.n_components):
        for j in sorted(_reachable_cells(m.kernels[h], cell_of, J)):
            out += _check_distribution(m.kernels[h, j - 1], f"kernel[{h}] cell {j}")
    return out


def _reachable_cells(table: np.ndarray, cell_of: np.ndarray, J: int) -> set[int]:
    """Cells reachable from cell 1 under positive kernel mass (cell 1 included)."""
    frontier, seen = [1], {1}
    while frontier:
        j = frontier.pop()
        row = table[j - 1]
        for j2 in range(1, J + 1):
            if j2 not in seen and float(row[cell_of == j2].sum()) > 1e-14:
                seen.add(j2)
                frontier.append(j2)
    return seen


# ---------------------------------------------------------------------------
# Exact finite-horizon laws


def _check_budget(entries: int, budget) -> None:
    budget = DEFAULT.enum_budget if budget is None else int(budget)
    if entries > budget:
        raise EnumerationBudgetError(
            f"enumeration needs {entries} table entries, exceeding the budget of {budget}"
        )


def iid_mixture_law(m: IIDMixtureModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_0, ..., Y_N)``: ``sum_h mu_h prod_n p_h(y_n)``."""
    require_valid(m)
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    k, L = m.alphabet.size, N + 1
    _check_budget(k ** L, budget)
    flat = np.zeros(k ** L)
    for mu, comp in zip(m.weights.weights, m.components):
        t = comp.weights
        for _ in range(L - 1):
            t = np.multiply.outer(t, comp.weights).ravel()
        flat += mu * t
    return FiniteLaw.from_flat(m.alphabet, L, flat)


def markov_mixture_law(m: MarkovMixtureModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_1, ..., Y_N)`` given ``Y_0 = y0``:
    ``sum_h mu_h P^h[y0,y1] P^h[y1,y2] ... P^h[y_{N-1},yN]``."""
    require_valid(m)
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    k = m.alphabet.size
    _check_budget(k ** N, budget)
    y0 = m.alphabet.emit_index(m.y0)
    flat = np.zeros(k ** N)
    for mu, comp in zip(m.weights.weights, m.components):
        P = comp.rows
        t = P[y0]
        for _ in range(N - 1):
            t = (t.reshape(-1, k)[:, :, None] * P[None, :, :]).ravel()
        flat += mu * t
    return FiniteLaw.from_flat(m.alphabet, N, flat)


def hmm_law(m: HMMModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_0, ..., Y_N)`` by the forward recursion.

    Maintains one forward vector over hidden states per string prefix
    (``alpha[prefix] = P(prefix, X_n = .)``); hidden paths are never enumerated.
    """
    require_valid(m)
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    k, X, L = m.alphabet.size, m.n_hidden, N + 1
    _check_budget(X * k ** L, budget)
    f = m.readout                              # (X, K)
    alphas = (m.pi.weights[:, None] * f).T     # (K, X): row y = pi * f[:, y]
    for _ in range(L - 1):
        beta = alphas @ m.P.rows               # (K^k, X)
        alphas = (beta[:, None, :] * f.T[None, :, :]).reshape(-1, X)
    return FiniteLaw.from_flat(m.alphabet, L, alphas.sum(axis=1))


def partitioned_mixture_law(m: PartitionedKernelMixture, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_1, ..., Y_N)`` given ``Y_0 = y0`` for cell-indexed kernels.

    The cell index of each ``y_n`` is determined by the partition, so the sum
    over cell paths collapses: each string carries exactly the product
    ``mu_h t_h(1, y_1) t_h(j_1, y_2) ... t_h(j_{N-1}, y_N)`` with ``j_n = cell(y_n)``.
    """
    require_valid(m)
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    k = m.alphabet.size
    _check_budget(k ** N, budget)
    cell_of = m.cell_index_array
    flat = np.zeros(k ** N)
    for h in range(m.n_components):
        # effective symbol-to-symbol transition rows: row z = t_h(cell(z), .)
        P = m.kernels[h][cell_of - 1]
        t = m.kernels[h][0]                    # first step uses cell(y0) = 1
        for _ in range(N - 1):
            t = (t.reshape(-1, k)[:, :, None] * P[None, :, :]).ravel()
        flat += m.weights[h] * t
    return FiniteLaw.from_flat(m.alphabet, N, flat)
