"""Deterministic seeded sampling of trajectories from any model type.

Randomness comes from numpy's Philox counter-based bit generator keyed on
``(seed, stream)``: identical keys give bit-identical draws on every platform,
and distinct stream ids give independent streams by construction. Every draw is
an inverse-CDF lookup against one uniform, in a documented order (component
index or initial hidden state first, then one or two uniforms per time step),
so trajectories are a pure function of ``(model, length, seed, stream)``.

Every model is sampled as one automaton, and a batch of trajectories advances
in lockstep: one vectorised lookup (:func:`walk`) takes the next draw of all of
them. Batches too small for that to pay, such as a single trajectory, take one
scalar lookup per draw, and i.i.d. components all their draws at once. Each
trajectory still reads its own stream in the order above, fetched in time
chunks; Philox draws split across calls equal one call, so a trajectory is the
same whether it is sampled alone or in a batch of any size.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model_core import (
    Alphabet,
    FiniteLaw,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    PartitionedKernelMixture,
    require_valid,
)

STREAMS_PER_BLOCK = 1024   # trajectories advanced together
DRAWS_PER_CHUNK = 1 << 14  # uniforms held in memory at once
# Lockstep pays for its per-draw vector operations (about one per table column)
# once a batch holds this many automata per column: the measured crossover
# with scalar bisect_right, for tables of 2 to 20 columns, lies at 10 to 20.
LOCKSTEP_PER_COLUMN = 16


@dataclass(frozen=True)
class RandomSource:
    """(seed, stream) key for a Philox counter-based generator."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64 and 0 <= self.stream < 2 ** 64):
            raise ValueError(f"seed {self.seed} and stream {self.stream} must lie in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, k: int) -> "RandomSource":
        """Child source for batch element / substream ``k``, ``0 <= k < 2**20``.

        The child stream id is ``stream * 2**20 + k + 1``; a ``k`` out of range or
        a child id reaching ``2**64`` would reuse another stream and raises ValueError.
        """
        if not 0 <= k < 0x100000:
            raise ValueError(f"substream {k} is outside [0, 2**20) and would reuse another stream")
        return RandomSource(self.seed, self.stream * 0x100000 + k + 1)


@dataclass(frozen=True)
class Trajectory:
    """Finite symbol sequence, optionally with the aligned hidden-state sequence."""

    symbols: tuple[str, ...]
    hidden: tuple[str, ...] | None = None
    source: RandomSource | None = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.hidden is not None:
            object.__setattr__(self, "hidden", tuple(self.hidden))
            if len(self.hidden) != len(self.symbols):
                raise ValueError("hidden trace must align with the symbol sequence")

    def __len__(self) -> int:
        return len(self.symbols)


def cdf_table(rows) -> np.ndarray:
    """Running sums of distributions of any widths, one row each, for :func:`walk`.

    Each row's last entry, and the padding after it, is stored as +inf, so
    ``#{j : cum[r, j] <= u}`` never exceeds ``n - 1``.
    """
    out = np.full((len(rows), max(len(r) for r in rows)), np.inf)
    for i, r in enumerate(rows):
        out[i, :len(r) - 1] = np.cumsum(r)[:-1]
    return out


def walk(cum: np.ndarray, nxt: np.ndarray, row: np.ndarray, us: np.ndarray):
    """Advance one automaton per row of ``us``, one draw per column.

    Automaton ``i`` at row ``r`` draws, for its next uniform ``u``, outcome
    ``c = min(#{j : cum[r, j] <= u}, n - 1)`` of the ``n`` outcomes of row ``r``
    (``bisect_right`` clamped to the last outcome, the choice a scalar lookup
    makes with the same uniform), then moves to ``nxt[r, c]``. Returns the
    outcomes, one row per draw, and the rows after the last draw.

    Three loops give the same outcomes; the arguments choose one. When every
    automaton sits on a row it never leaves (an i.i.d. component), all draws
    are looked up at once. Otherwise a batch of at least ``LOCKSTEP_PER_COLUMN``
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
    if len(row) < LOCKSTEP_PER_COLUMN * cum.shape[1]:
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


def _automaton(model):
    """The per-class dispatch of sampling: ``(cum, nxt, start, lead, stride, first)``.

    From row ``start``, ``lead`` draws pick the mixture component; then every
    time step takes ``stride`` draws, the symbol or, for HMMs, the hidden state
    and then the symbol. ``first`` is a fixed first symbol that is not drawn.
    """
    if isinstance(model, HMMModel):
        # rows: P[x] for x < X, then pi (start), then the read-out f_x at X + 1 + x
        X = model.n_hidden
        cum = cdf_table([*model.P.rows, model.pi.weights, *model.readout])
        nxt = np.empty(cum.shape, dtype=np.intp)
        nxt[:X + 1] = X + 1 + np.arange(cum.shape[1])
        nxt[X + 1:] = np.arange(X)[:, None]
        return cum, nxt, X, 0, 2, None
    # mixtures: row h * S + s draws the next symbol of component h in state s,
    # and row H * S (start) draws the component
    K = model.alphabet.size
    if isinstance(model, IIDMixtureModel):
        rows = [c.weights for c in model.components]
        state, s0, first = np.zeros(K, dtype=np.intp), 0, None
    elif isinstance(model, MarkovMixtureModel):
        rows = [r for c in model.components for r in c.rows]
        state, s0, first = np.arange(K), model.alphabet.emit_index(model.y0), model.y0
    elif isinstance(model, PartitionedKernelMixture):
        rows = [r for k in model.kernels for r in k]
        state = model.cell_index_array - 1
        s0, first = model.partition.cell_index_of(model.y0) - 1, model.y0
    else:
        raise TypeError(f"cannot sample from {type(model).__name__}")
    H = len(model.weights.weights)
    S = len(rows) // H
    cum = cdf_table([*rows, model.weights.weights])
    nxt = np.zeros(cum.shape, dtype=np.intp)
    # padding columns, never drawn, stay in the component, so that an i.i.d.
    # component's row maps every column to itself
    nxt[:H * S] = np.repeat(np.arange(H) * S, S)[:, None]
    nxt[:H * S, :K] += state
    nxt[H * S, :H] = np.arange(H) * S + s0
    return cum, nxt, H * S, 1, 1, first


def _fill(lists, labels: np.ndarray, at: int) -> None:
    for lst, row in zip(lists, labels.tolist()):
        lst[at:at + len(row)] = row


def _sample_streams(model, length, srcs, trace_hidden) -> list[Trajectory]:
    """One trajectory per source, all advanced together."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if trace_hidden and not isinstance(model, HMMModel):
        raise ValueError("hidden tracing requires an HMM")
    cum, nxt, start, lead, stride, first = _automaton(model)
    gens = [src.generator() for src in srcs]
    draw = lambda n: np.array([g.random(n) for g in gens])   # next n uniforms per stream
    _, row = walk(cum, nxt, np.full(len(gens), start), draw(lead))
    em = np.array(model.alphabet.emittable, dtype=object)
    hs = np.array(model.hidden_states, dtype=object) if trace_hidden else None
    # exactly sized label lists filled chunk by chunk, so no count x length
    # array of codes or uniforms is ever held
    symbols = [[first] * length for _ in gens]
    hidden = [[None] * length if trace_hidden else None for _ in gens]
    skip = first is not None
    chunk = max(1, DRAWS_PER_CHUNK // (len(gens) * stride))
    for t0 in range(0, length - skip, chunk):
        out, row = walk(cum, nxt, row, draw(min(chunk, length - skip - t0) * stride))
        _fill(symbols, em[out[stride - 1::stride].T], skip + t0)
        if trace_hidden:
            _fill(hidden, hs[out[::stride].T], t0)
    # popped so that each label list is freed once its tuple exists
    return [Trajectory(symbols.pop(0), hidden.pop(0), src) for src in srcs]


def sample(model, length: int, src: RandomSource, trace_hidden: bool = False) -> Trajectory:
    """Draw one trajectory of ``length`` symbols from a validated model.

    Mixtures draw their component index once per trajectory, then run that
    component; HMMs draw the hidden chain and emit through the read-outs.
    ``trace_hidden`` records the hidden states and is only meaningful for HMMs.
    """
    require_valid(model)
    return _sample_streams(model, length, [src], trace_hidden)[0]


def sample_many(model, length: int, count: int, src: RandomSource,
                trace_hidden: bool = False) -> list[Trajectory]:
    """``count`` independent trajectories on derived streams ``src.derive(i)``.

    Trajectory ``i`` equals ``sample(model, length, src.derive(i), trace_hidden)``;
    blocks of trajectories are advanced together.
    """
    require_valid(model)
    out = []
    for lo in range(0, count, STREAMS_PER_BLOCK):
        srcs = [src.derive(i) for i in range(lo, min(lo + STREAMS_PER_BLOCK, count))]
        out.extend(_sample_streams(model, length, srcs, trace_hidden))
    return out


def empirical_law(trajectories, length: int, alphabet: Alphabet | None = None) -> FiniteLaw:
    """Relative frequencies of length-``length`` prefixes as a FiniteLaw."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("empirical_law needs at least one trajectory")
    for t in trajectories:
        if len(t) < length:
            raise ValueError(f"trajectory of length {len(t)} is shorter than {length}")
    if alphabet is None:
        seen = sorted({s for t in trajectories for s in t.symbols})
        alphabet = Alphabet.of(seen)
    counts = Counter(t.symbols[:length] for t in trajectories)
    total = sum(counts.values())
    return FiniteLaw.from_probs(alphabet, length,
                                {prefix: c / total for prefix, c in counts.items()})
