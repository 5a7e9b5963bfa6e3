"""Core model types, validation, and exact finite-horizon laws.

Four generative model classes over a shared finite alphabet:

* ``IIDMixtureModel``          draw a component distribution once, then emit i.i.d.
* ``MarkovMixtureModel``       draw a transition matrix once, run the chain from ``y0``
* ``HMMModel``                 hidden Markov chain with per-state read-out distributions
* ``PartitionedKernelMixture`` chain whose kernel depends on the current symbol only
  through the cell of a fixed partition (finite stand-in for a general state space)

Each type checks its array shapes and its matrices' labels against its alphabet,
hidden states, components and cells when it is built, and raises ``ValueError``
if they do not fit. What the arrays hold is validation: :func:`validate_model`
returns the violations.

Each class gets an exact law operation producing a :class:`FiniteLaw`, the
universal comparison object, held as the sorted ranks and probabilities of its
live strings; :func:`model_law` dispatches on the model type. The three mixtures
are read as mixtures of symbol chains (:func:`symbol_chains`), which differ only
in the row that draws the next symbol; one engine gives their laws. Laws are
enumerated over live prefixes only: work and memory follow the strings of
positive probability, not the ``K^length`` table, and the budget counts the
entries of each extension of the live prefixes before it is allocated (a
mixture's, before any is built). String conventions follow the generative
definitions: i.i.d. mixtures and HMMs produce laws over ``(Y_0, ..., Y_N)``;
Markov and partitioned mixtures fix ``Y_0 = y0`` and produce laws over
``(Y_1, ..., Y_N)``.

The fictitious symbol ``@del`` occupies alphabet index 0 everywhere. No model may
emit it; it exists for successors-array padding semantics and partition cell 0.
All numeric arrays are indexed over the *emittable* symbols (alphabet minus
``@del``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bytetext import g17, joined, numbers, padded, text
from .config import DEFAULT
from .errors import (EnumerationBudgetError, InvalidModelError, ModelFormatError,
                     UnsupportedModelError)

DELTA = "@del"            # reserved fictitious symbol, always alphabet index 0
SUM_TOL = 1e-12           # distribution / stochastic-row sum tolerance
LAW_SUM_TOL = 1e-9        # enumeration rounding budget for law tables
BLOCK = 4096              # ranks decoded at a time: bounds the codec's scratch arrays


def _frozen(a, ndim, name):
    a = np.array(a, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-d array, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _fits(name: str, shape: tuple, expected: tuple, what: str) -> None:
    """Refuse a field whose shape does not match the sizes the rest of the object fixes."""
    if shape != expected:
        raise ValueError(f"{name}: shape {shape}, expected {expected} for {what}")


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
        object.__setattr__(self, "weights", _frozen(self.weights, 1, "weights"))

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
        rows = _frozen(self.rows, 2, "rows")
        object.__setattr__(self, "rows", rows)
        labels = tuple(self.labels) or tuple(str(i) for i in range(rows.shape[0]))
        object.__setattr__(self, "labels", labels)
        if rows.shape != (len(labels),) * 2:
            raise ValueError(f"rows: shape {rows.shape}, expected {(len(labels),) * 2} "
                             f"for labels {labels}")

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
        object.__setattr__(self, "readout", _frozen(self.readout, 2, "readout"))
        n, k = self.n_hidden, self.alphabet.size
        _fits("pi", self.pi.weights.shape, (n,), "the hidden states")
        _fits("readout", self.readout.shape, (n, k), "the hidden states and symbols")
        if self.P.labels != self.hidden_states:
            raise ValueError(f"P: labels {self.P.labels} differ from hidden_states")

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
        _fits("weights", self.weights.weights.shape, (self.n_components,), "the components")
        for h, comp in enumerate(self.components):
            if comp.labels != self.alphabet.emittable:
                raise ValueError(f"component {h}: labels {comp.labels} differ from the alphabet")

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
        _fits("weights", self.weights.weights.shape, (self.n_components,), "the components")
        for h, comp in enumerate(self.components):
            _fits(f"component {h}", comp.weights.shape, (self.alphabet.size,), "the alphabet")

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
        return {s: j for j, cell in enumerate(self.cells, start=1) for s in cell}

    def cells_of(self, labels) -> np.ndarray:
        """1-based cell index of each label, 0 for a label in no cell."""
        return np.array([self._cell_of.get(s, 0) for s in labels], dtype=np.intp)

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
        object.__setattr__(self, "kernels", _frozen(self.kernels, 3, "kernels"))
        _fits("kernels", self.kernels.shape,
              (self.weights.size, self.partition.n_cells, self.alphabet.size),
              "the weights, cells and symbols")

    @property
    def n_components(self) -> int:
        return self.kernels.shape[0]

    @cached_property
    def cell_index_array(self) -> np.ndarray:
        """1-based cell index per emittable symbol, as an array (0 for a symbol in no cell)."""
        return self.partition.cells_of(self.alphabet.emittable)


@dataclass(frozen=True, eq=False)
class FiniteLaw:
    """Exact probability table over the strings of ``length`` symbols, stored as its
    live entries only: the ascending, unique ``ranks`` of the strings of positive
    probability and their ``probs``, both read-only. A rank is the string's
    emit-index digits in base ``K``, first symbol most significant (see
    :func:`rank_digits`), so ascending rank is alphabet order. Ranks are int64
    while ``K**length - 1`` fits in int64, and Python ints (``object``) beyond.
    """

    alphabet: Alphabet
    length: int
    ranks: np.ndarray
    probs: np.ndarray

    __hash__ = None

    def __eq__(self, other):
        """Exact value equality: the same alphabet, length, live ranks and probabilities."""
        if not isinstance(other, FiniteLaw):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.length == other.length
                and np.array_equal(self.ranks, other.ranks)
                and np.array_equal(self.probs, other.probs))

    def __post_init__(self):
        for name, dtype in (("ranks", rank_dtype(self.alphabet.size, self.length)),
                            ("probs", float)):
            values = np.asarray(getattr(self, name), dtype=dtype)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @classmethod
    def from_ranks(cls, alphabet: Alphabet, length: int, ranks, probs) -> "FiniteLaw":
        """Build from ascending ``ranks`` and their probabilities (``ranks`` None: ``probs``
        is the full table), dropping zeros such as underflowed products; no copy if none."""
        probs = np.asarray(probs, dtype=float)
        ranks = np.arange(probs.size) if ranks is None else np.asarray(ranks)
        live = probs != 0.0
        if not live.all():
            ranks, probs = ranks[live], probs[live]
        return cls(alphabet, length, ranks, probs)

    @classmethod
    def from_flat(cls, alphabet: Alphabet, length: int, flat: np.ndarray) -> "FiniteLaw":
        return cls.from_ranks(alphabet, length, None, flat)

    @classmethod
    def from_probs(cls, alphabet: Alphabet, length: int, probs: dict) -> "FiniteLaw":
        """Build from ``{tuple-of-symbol-labels: probability}``."""
        ranks, values = [], []
        for labels, p in probs.items():
            if len(labels) != length:
                raise ValueError(f"string {labels!r} does not have length {length}")
            if p != 0.0:
                ranks.append(_rank(alphabet.size, [alphabet.emit_index(s) for s in labels]))
                values.append(float(p))
        ranks = np.array(ranks, dtype=rank_dtype(alphabet.size, length))
        order = np.argsort(ranks, kind="stable")
        return cls(alphabet, length, ranks[order], np.array(values)[order])

    @property
    def table_size(self) -> int:
        return self.alphabet.size ** self.length

    def prob(self, labels) -> float:
        idx = [self.alphabet.emit_index(s) for s in labels]
        if len(idx) != self.length:
            raise ValueError(f"string has length {len(idx)}, law has length {self.length}")
        r = _rank(self.alphabet.size, idx)
        i = int(np.searchsorted(self.ranks, r))
        return float(self.probs[i]) if i < self.ranks.size and self.ranks[i] == r else 0.0

    def nonzero(self) -> dict:
        """Nonzero entries as ``{emit-index tuple: probability}``, in ascending rank."""
        digits = rank_digits(self.ranks, self.alphabet.size, self.length)
        return dict(zip(zip(*digits.T.tolist()), self.probs.tolist()))

    # perfbench/tracing.py counts live entries as len(law.sparse): the ranks, not a dict
    sparse = property(lambda self: self.ranks)

    def to_flat(self) -> np.ndarray:
        flat = np.zeros(self.table_size)
        flat[self.ranks] = self.probs
        return flat

    def total(self) -> float:
        """The correctly rounded sum of the probabilities."""
        return math.fsum(self.probs)

    def labels_of(self, idx) -> tuple[str, ...]:
        em = self.alphabet.emittable
        return tuple(em[i] for i in idx)

    def entries(self):
        """Yield ``(label tuple, probability)`` of the live entries in alphabet order."""
        em = np.array(self.alphabet.emittable, dtype=object)
        for i in range(0, self.ranks.size, BLOCK):
            digits = rank_digits(self.ranks[i:i + BLOCK], self.alphabet.size, self.length)
            yield from zip(zip(*em[digits].T.tolist()), self.probs[i:i + BLOCK].tolist())

    def text_blocks(self, line: str = "%s %s\n", spell=str, joiner: str = " ", number=None):
        """Yield the live entries as text, ``BLOCK`` at a time and in alphabet order:
        ``line`` per entry, its two ``%s`` filled with the labels and the probability,
        the labels being each symbol's ``spell`` joined by ``joiner``, the probability
        as ``'%.17g' %`` writes it (``bytetext.g17``) or as ``number`` writes it. The
        defaults give the ``law`` lines; ``law --json`` passes its entry template,
        ``json.dumps``, its own joiner and ``repr``.

        The labels of the last ``m`` symbols come from one table (the largest ``m``
        with ``K**m <= BLOCK``); the rest of a rank is a prefix, decoded and joined
        once per run of equal prefixes. The text before the labels goes with the
        prefixes and the text between labels and probability with the table. Each
        block is one byte matrix, a row per entry with every piece padded to its
        widest (``bytetext``).
        """
        k, m = self.alphabet.size, 0
        em = np.array([spell(s) for s in self.alphabet.emittable], dtype=object)
        while m < self.length and k ** (m + 1) <= BLOCK:
            m += 1
        sep = joiner if 0 < m < self.length else ""
        before, middle, after = line.split("%s")
        suffixes = padded([sep + joiner.join(s) + middle for s in
                           em[rank_digits(np.arange(k ** m), k, m)].tolist()])
        tail = padded([after])
        for i in range(0, self.ranks.size, BLOCK):
            ranks, probs = self.ranks[i:i + BLOCK], self.probs[i:i + BLOCK]
            prefixes, rest = ranks // k ** m, (ranks % k ** m).astype(np.int64)
            starts = np.r_[True, prefixes[1:] != prefixes[:-1]]
            heads = padded([before + joiner.join(s) for s in
                            em[rank_digits(prefixes[starts], k, self.length - m)].tolist()])
            run = np.cumsum(starts) - 1
            values = g17(probs)[0] if number is None else numbers(map(number, probs.tolist()))
            yield text(joined([heads.take(run, axis=0), suffixes.take(rest, axis=0), values,
                               tail], ranks.size))


def rank_dtype(k: int, length: int):
    """int64 while the ranks of ``length``-symbol strings over ``k`` fit it, else object;
    decided without forming ``k ** length`` past 64 symbols (``k ** 64 >= 2 ** 64`` for k >= 2)."""
    return np.int64 if k < 2 or k ** min(length, 64) <= 2 ** 63 else object


def _rank(k: int, digits) -> int:
    """Rank of one emit-index string, as a Python int."""
    return sum(d * k ** e for e, d in enumerate(reversed(digits)))


def rank_digits(ranks, k: int, length: int) -> np.ndarray:
    """``(n, length)`` int64 matrix of the base-``k`` digits of ``ranks``, most
    significant first: the emit-index strings at those ranks."""
    dtype = rank_dtype(k, length)
    powers = np.array([k ** e for e in range(length - 1, -1, -1)], dtype=dtype)
    digits = np.asarray(ranks, dtype=dtype)[:, None] // powers
    digits %= k
    return digits.astype(np.int64, copy=False)


def rank_union(*rank_arrays) -> np.ndarray:
    """Ascending union of ascending rank arrays: a stable sort merges the runs (no hashing)."""
    ranks = np.concatenate(rank_arrays)
    ranks.sort(kind="stable")
    keep = np.ones(ranks.size, dtype=bool)
    keep[1:] = ranks[1:] != ranks[:-1]
    return ranks[keep]


# ---------------------------------------------------------------------------
# Validation


def validate_model(model) -> list[str]:
    """Check what the given object holds; return violations (empty = valid). Its
    shapes were checked when it was built.

    Accepts any of the model classes plus ``Alphabet``, ``Distribution``,
    ``StochasticMatrix`` and ``FiniteLaw``. Violations are returned, never raised.
    """
    check = {Alphabet: _check_alphabet, FiniteLaw: _check_law, HMMModel: _check_hmm,
             MarkovMixtureModel: _check_markov_mixture, IIDMixtureModel: _check_iid_mixture,
             PartitionedKernelMixture: _check_partitioned,
             Distribution: lambda d: _check_distribution(d.weights, "distribution"),
             StochasticMatrix: lambda m: _check_matrix(m, "matrix")}.get(type(model))
    return [f"unknown model type {type(model).__name__}"] if check is None else check(model)


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


def _check_distribution(w: np.ndarray, name: str, strictly_positive=False, sums=True) -> list[str]:
    out = []
    if not np.all(w >= 0):                 # a NaN fails this too
        bad = int(np.argmin(w))            # the first NaN, if any
        what = "NaN" if np.isnan(w[bad]) else f"negative ({w[bad]:g})"
        out.append(f"{name}: weight {bad} is {what}")
    s = float(w.sum())
    if sums and not abs(s - 1.0) <= SUM_TOL:
        out.append(f"{name}: sums to {s:.12g}")
    if strictly_positive and np.any(w <= 0):
        bad = int(np.argmin(w))
        out.append(f"{name}: weight {bad} not strictly positive")
    return out


def _check_matrix(m: StochasticMatrix, name: str) -> list[str]:
    out = []
    for i, row in enumerate(m.rows):
        if not np.all(row >= 0):
            what = "NaN" if np.isnan(row).any() else "negative"
            out.append(f"{name}: row {i} has a {what} entry")
        s = float(row.sum())
        if not abs(s - 1.0) <= SUM_TOL:
            out.append(f"{name}: row {i} sums to {s:.12g}")
    return out


def _check_law(law: FiniteLaw) -> list[str]:
    out = _check_alphabet(law.alphabet)
    ranks, probs = law.ranks, law.probs
    if ranks.ndim != 1 or ranks.shape != probs.shape:
        return out + [f"law: ranks of shape {ranks.shape}, probabilities of shape {probs.shape}"]
    if np.any(ranks[1:] <= ranks[:-1]):
        out.append("law: ranks are not strictly ascending")
    if ranks.size and (ranks.min() < 0 or ranks.max() >= law.table_size):
        out.append(f"law: ranks outside [0, {law.table_size})")
    if np.any(probs < 0):
        out.append("law: negative probability entry")
    if not np.all(np.isfinite(probs)):
        out.append("law: non-finite probability entry")
    elif abs(law.total() - 1.0) > LAW_SUM_TOL:
        out.append(f"law: table sums to {law.total():.12g}")
    return out


def _check_hmm(m: HMMModel) -> list[str]:
    out = _check_alphabet(m.alphabet) + _check_distribution(m.pi.weights, "pi")
    out += _check_matrix(m.P, "P")
    for x, row in enumerate(m.readout):
        out += _check_distribution(row, f"readout row {x}")
    if len(set(m.hidden_states)) != m.n_hidden:
        out.append("hidden_states: labels are not unique")
    return out


def _check_markov_mixture(m: MarkovMixtureModel) -> list[str]:
    out = _check_markov_structure(m)
    if not out:
        from . import chain_analysis  # late import: chain_analysis builds on these types

        for h, comp in enumerate(m.components):
            if not chain_analysis.is_recurrent(comp, [m.y0]):
                out.append(f"component {h}: states reachable from y0 include transient states")
    return out


def _check_markov_structure(m: MarkovMixtureModel) -> list[str]:
    """Every check of a Markov mixture but recurrence, which needs all of them to hold."""
    out = _check_alphabet(m.alphabet)
    out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    if m.y0 not in m.alphabet:
        out.append(f"y0: {m.y0!r} not in the alphabet")
    for h, comp in enumerate(m.components):
        out += _check_matrix(comp, f"component {h}")
    return out


def _check_iid_mixture(m: IIDMixtureModel) -> list[str]:
    out = _check_alphabet(m.alphabet)
    out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    for h, comp in enumerate(m.components):
        out += _check_distribution(comp.weights, f"component {h}")
    return out


def _check_partitioned(m: PartitionedKernelMixture) -> list[str]:
    out = _check_alphabet(m.alphabet)
    if out:
        return out
    seen: set[str] = set()
    for j, cell in enumerate(m.partition.cells, start=1):
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
    out += _check_distribution(m.weights.weights, "weights", strictly_positive=True)
    if m.y0 not in m.alphabet:
        out.append(f"y0: {m.y0!r} not in the alphabet")
    elif m.partition.cell_index_of(m.y0) != 1:
        out.append(f"y0: {m.y0!r} must lie in cell 1")
    from .chain_analysis import EDGE_TOL, reachability  # late import, as above

    for h, mass in enumerate(_cell_masses(m)):
        reached = reachability(mass > EDGE_TOL)[0]
        for j, row in enumerate(m.kernels[h], start=1):    # unreached rows need no sum of 1
            out += _check_distribution(row, f"kernel[{h}] cell {j}", sums=reached[j - 1])
    return out


def _cell_masses(m: PartitionedKernelMixture) -> np.ndarray:
    """``mass[h, i, j]``: the kernel mass that component ``h`` sends from cell ``i + 1``
    into cell ``j + 1``, each a sum over the cell's symbols in alphabet order."""
    cell_of = m.cell_index_array
    return np.stack([m.kernels[:, :, cell_of == j].sum(axis=2)
                     for j in range(1, m.partition.n_cells + 1)], axis=2)


# ---------------------------------------------------------------------------
# Exact finite-horizon laws


def _check_law_input(m, N: int, length: int, budget, per_string: int = 1) -> int:
    """Refuse a horizon below 1, strings whose ranks overflow int64, and a first
    frontier over the budget; return the budget every later frontier is checked against."""
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    k, budget = m.alphabet.size, DEFAULT.enum_budget if budget is None else int(budget)
    if rank_dtype(k, length) is not np.int64:
        raise EnumerationBudgetError(f"horizon {N} over an alphabet of {k} symbols: the "
                                     f"ranks of its strings of {length} symbols go beyond int64")
    _check_frontier(per_string * k, 1, budget)
    return budget


def _check_frontier(entries: int, length: int, budget: int) -> None:
    """Refuse, before it is allocated, a frontier of ``entries`` values at prefix
    ``length`` that exceeds the budget: live prefixes times values per prefix."""
    if entries > budget:
        raise EnumerationBudgetError(f"enumeration needs {entries} entries at length "
                                     f"{length}, exceeding the budget of {budget}")


def _extend(ranks: np.ndarray, k: int) -> np.ndarray:
    """Ranks of the one-symbol extensions of the prefixes at ``ranks``, ascending."""
    return ((ranks * k)[:, None] + np.arange(k)).ravel()


def _prune(live: np.ndarray, ranks: np.ndarray, values: np.ndarray) -> tuple:
    """The frontier ``(ranks, values)`` without the prefixes where ``live`` is false.
    A frontier holds the live prefixes of one length: their ascending ranks and values."""
    return (ranks, values) if live.all() else (ranks[live], values[live])


def contract(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``A @ M`` for a 2-d ``M``, each ``sum_x A[..., x] M[x, y]`` taken left to right with one
    multiply and one add per term: no BLAS build and no other row moves its digits. Every
    float contraction on an exact path calls it; integer, bool and float32 count matmuls are
    exact in any order, and ``sum``, ``cumsum`` and ``fsum`` call no BLAS. Neither does einsum:
    on C-contiguous operands its loop over ``x`` runs outside the one over ``M``'s columns."""
    A, M = np.ascontiguousarray(A), np.ascontiguousarray(M)
    if M.shape[1] == 1:     # a single column would make the sum einsum's inner loop
        return contract(A, np.pad(M, ((0, 0), (0, 1))))[..., :1]
    return np.einsum("...x,xy->...y", A, M, optimize=False)


def symbol_chains(m) -> tuple:
    """A valid mixture as symbol chains, ``(weights, rows, state, y0)``: ``rows[h]`` is
    ``(S, K)``, component ``h``'s next-symbol rows (one for i.i.d., one per symbol for
    Markov, one per cell for cell kernels); ``state[y]`` is the row drawing the symbol
    after ``y``; ``y0`` is the fixed first symbol, or None (``Y_0`` drawn from row 0)."""
    if isinstance(m, IIDMixtureModel):
        rows, state = np.array([[c.weights] for c in m.components]), np.zeros(m.alphabet.size, int)
    elif isinstance(m, MarkovMixtureModel):
        rows, state = np.stack([c.rows for c in m.components]), np.arange(m.alphabet.size)
    elif isinstance(m, PartitionedKernelMixture):
        rows, state = m.kernels, m.cell_index_array - 1
    else:
        raise UnsupportedModelError(f"{type(m).__name__} is not a mixture of symbol chains")
    return m.weights.weights, rows, state, getattr(m, "y0", None)


def _chain_mixture_law(m, N: int, budget) -> FiniteLaw:
    """Law of ``sum_h mu_h first_h[s_1] chain_h[s_1, s_2] ... chain_h[s_{n-1}, s_n]`` over
    the strings of ``N + (y0 is None)`` symbols, where ``chain_h = rows[h, state]`` and
    ``first_h`` is the row of ``y0`` (row 0 if none) in :func:`symbol_chains`.

    The budget is checked first, on each step's live prefixes counted as walks on
    the supports ``rows != 0``: the frontier sizes, unless a product underflows
    to 0. A step is refused if the entries held (the terms of the components done,
    kept until the merge, and the new frontier) would pass ``budget``. Each
    component then extends its frontier, dropping exact zeros after every step,
    and the terms accumulate as ``0.0 + mu_h t_h``, the floats of full tables.
    """
    weights, rows, state, y0 = symbol_chains(require_valid(m))
    k, length = m.alphabet.size, N + (y0 is None)
    budget = _check_law_input(m, N, length, budget)
    firsts = rows[:, 0 if y0 is None else state[m.alphabet.emit_index(y0)]]
    held, terms = 0, []
    for first, support in zip(firsts != 0.0, rows != 0.0):
        # live prefixes by last symbol: at most K**length, which fits uint64 (rank_dtype)
        count = first.astype(np.uint64)
        for n in range(1, length):
            _check_frontier(held + int(count.sum()) * k, n + 1, budget)
            by_row = np.zeros(len(support), np.uint64)
            np.add.at(by_row, state, count)
            count = by_row @ support
        held += int(count.sum())
    for first, R in zip(firsts, rows):
        ranks, vals = _prune(first != 0.0, np.arange(k), first)
        for n in range(1, length):
            if ranks.size == k ** n:   # every prefix live: chain row z extends every k-th value
                P = np.broadcast_to(R, (k, k)) if len(R) == 1 else R[state]
                vals = (vals.reshape(-1, k)[:, :, None] * P).ravel()
            else:
                vals = (vals[:, None] * R[state[ranks % k]]).ravel()
            ranks, vals = _prune(vals != 0.0, _extend(ranks, k), vals)
        terms.append((ranks, vals))
    full = [ranks for ranks, _ in terms if ranks.size == k ** length]   # already the union
    live = full[0] if full else rank_union(*(ranks for ranks, _ in terms))
    acc = np.zeros(live.size)
    for mu, (ranks, vals) in zip(weights, terms):
        if ranks.size == acc.size:
            acc += mu * vals
        else:
            acc[np.searchsorted(live, ranks)] += mu * vals
    return FiniteLaw.from_ranks(m.alphabet, length, live, acc)


def iid_mixture_law(m: IIDMixtureModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_0, ..., Y_N)``: ``sum_h mu_h prod_n p_h(y_n)``."""
    return _chain_mixture_law(m, N, budget)


def markov_mixture_law(m: MarkovMixtureModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_1, ..., Y_N)`` given ``Y_0 = y0``: ``sum_h mu_h prod P^h[y_{n-1},y_n]``."""
    return _chain_mixture_law(m, N, budget)


def hmm_law(m: HMMModel, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_0, ..., Y_N)`` by the forward recursion.

    Maintains one forward vector over hidden states per live string prefix
    (``alpha[prefix] = P(prefix, X_n = .)``), dropping all-zero ones before each step
    without moving a float (:func:`contract`); hidden paths are never enumerated.
    """
    k, X, L = m.alphabet.size, m.n_hidden, N + 1
    budget = _check_law_input(require_valid(m), N, L, budget, per_string=X)
    f = m.readout                              # (X, K)
    ranks = np.arange(k)
    alphas = (m.pi.weights[:, None] * f).T     # (K, X): row y = pi * f[:, y]
    for n in range(1, L):
        live = alphas[:, 0] != 0.0             # column by column: faster than any(axis=1)
        for column in alphas.T[1:]:
            live |= column != 0.0
        ranks, alphas = _prune(live, ranks, alphas)
        _check_frontier(X * ranks.size * k, n + 1, budget)
        beta = contract(alphas, m.P.rows)      # (live prefixes, X)
        alphas = (beta[:, None, :] * f.T[None, :, :]).reshape(-1, X)
        ranks = _extend(ranks, k)
    return FiniteLaw.from_ranks(m.alphabet, L, ranks, alphas.sum(axis=1))  # drops zero sums


def partitioned_mixture_law(m: PartitionedKernelMixture, N: int, budget=None) -> FiniteLaw:
    """Exact law of ``(Y_1, ..., Y_N)`` given ``Y_0 = y0`` for cell-indexed kernels: the cells
    follow the symbols, so the sum over cell paths collapses to the one product
    ``mu_h t_h(1, y_1) t_h(j_1, y_2) ... t_h(j_{N-1}, y_N)`` with ``j_n = cell(y_n)``."""
    return _chain_mixture_law(m, N, budget)


# law functions by name, looked up when called: a rebound one (a wrapper, a mock) is called
LAWS = {IIDMixtureModel: "iid_mixture_law", MarkovMixtureModel: "markov_mixture_law",
        HMMModel: "hmm_law", PartitionedKernelMixture: "partitioned_mixture_law"}


def model_law(model, N: int, budget=None) -> FiniteLaw:
    """Exact law of a model of any class: the law function ``LAWS`` names for its type."""
    if type(model) not in LAWS:
        raise ModelFormatError(f"no law operation for {type(model).__name__}")
    return globals()[LAWS[type(model)]](model, N, budget)
