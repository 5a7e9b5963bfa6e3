"""Deterministic seeded sampling of trajectories from any model type.

Randomness comes from numpy's Philox counter-based bit generator keyed on
``(seed, stream)``: identical keys give bit-identical draws on every platform,
and distinct stream ids give independent streams by construction. Every draw is
an inverse-CDF lookup against one uniform, in a documented order (component
index or initial hidden state first, then one or two uniforms per time step),
so trajectories are a pure function of ``(model, length, seed, stream)``.
Each draw's outcome, a label's index, goes straight into one code array per
block of trajectories (:class:`Trajectory` holds codes, not labels). Every
label -> code map, file lines' and successors rows' too, is filled by :func:`encode`.

Every model is sampled as one automaton through one lookup table (:func:`walk`),
a mixture's built from its symbol chains. Each trajectory reads its own stream
in the order above, in time chunks; Philox draws split across calls equal one
call, so a trajectory is the same whether sampled alone or in a batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .model_core import Alphabet, FiniteLaw, HMMModel, require_valid, symbol_chains

STREAMS_PER_BLOCK = 1024   # trajectories advanced together
DRAWS_PER_CHUNK = 1 << 17  # uniforms held in memory at once
_TABLE_ENTRIES = 1 << 14  # (row, bucket tuple) entries of walk's table, 16 B each at m = 4
_LISTS_BELOW = 4           # fewer automata walk through lists (measured crossover 4-6)
_DICT_BELOW = 384          # shorter label sequences are encoded by dict (crossover 384-512)


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


def encode(labels, index: dict) -> np.ndarray:
    """Codes of ``labels`` under ``index`` (label -> code), in the smallest unsigned
    dtype that fits. The labels a call adds enter ``index`` in sorted order, so a
    label's code does not depend on where it first appears. A ``str`` is read as its
    characters. Fewer than ``_DICT_BELOW`` labels are looked up one by one; more,
    of one character each, once per code point."""
    if not isinstance(labels, str):
        labels = list(labels)
        if len(labels) < _DICT_BELOW:
            return _lookup(labels, index)
        try:
            joined = "".join(labels)
        except TypeError:           # not all str
            return _lookup(labels, index)
        if len(joined) != len(labels) or "" in labels:
            return _lookup(labels, index)
        labels = joined
    return _lookup(labels, index) if len(labels) < _DICT_BELOW else _by_code_point(labels, index)


def _by_code_point(chars: str, index: dict) -> np.ndarray:
    """:func:`encode` of the characters of ``chars`` by one lookup per code point."""
    points = np.frombuffer(chars.encode("utf-32-le"), "<u4")
    counts = np.bincount(points, minlength=1)
    codes = _lookup(list(map(chr, np.flatnonzero(counts).tolist())), index)  # code-point order
    lut = np.zeros(counts.size, codes.dtype)
    lut[counts > 0] = codes
    return lut.take(points)


def _lookup(labels, index: dict) -> np.ndarray:
    """:func:`encode` by one dict lookup per label."""
    dtype = np.min_scalar_type(max(len(index) - 1, 0))
    try:
        return np.fromiter(map(index.__getitem__, labels), dtype, len(labels))
    except KeyError:
        for s in sorted(set(labels).difference(index)):
            index[s] = len(index)
        return _lookup(labels, index)


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """Finite symbol sequence, optionally with the aligned hidden-state sequence,
    held as ``codes`` into ``labels`` (``hidden_codes`` into ``hidden_labels``) and
    decoded to ``symbols`` (``hidden``) on first read. ``symbols`` and ``hidden``
    are encoded once unless their ``labels`` are given; then they are codes."""

    codes: np.ndarray
    labels: tuple[str, ...]
    hidden_codes: np.ndarray | None
    hidden_labels: tuple[str, ...] | None
    source: RandomSource | None

    def __init__(self, symbols, hidden=None, source=None, labels=None, hidden_labels=None):
        if labels is None:
            symbols = encode(symbols, labels := {})
        if hidden is not None and hidden_labels is None:
            hidden = encode(hidden, hidden_labels := {})
        if hidden is not None and len(hidden) != len(symbols):
            raise ValueError("hidden trace must align with the symbol sequence")
        vars(self).update(codes=symbols, labels=tuple(labels), hidden_codes=hidden, source=source,
                          hidden_labels=None if hidden is None else tuple(hidden_labels))

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, self.codes.tolist()))

    @cached_property
    def hidden(self) -> tuple[str, ...] | None:
        if self.hidden_codes is not None:
            return tuple(map(self.hidden_labels.__getitem__, self.hidden_codes.tolist()))

    @cached_property
    def transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(used, counts)``: ascending codes, every code that occurs among them, and
        the integer matrix whose entry ``[i, j]`` counts the positions where code
        ``used[i]`` is followed by code ``used[j]``. One bincount, made on first read
        and kept. ``used`` is every code of ``labels`` unless that square has more
        entries than the trajectory has positions; then it is the codes that occur."""
        L, codes = len(self.labels), self.codes
        used = np.arange(L)
        if L * L > len(codes):
            used = np.flatnonzero(np.bincount(codes, minlength=L))
            codes = used.searchsorted(codes)
        K = len(used)
        pairs = codes[:-1] * np.min_scalar_type(max(K * K - 1, 0)).type(K)   # no wrap
        pairs += codes[1:]
        return used, np.bincount(pairs, minlength=K * K).reshape(K, K)

    def observed(self) -> tuple[str, ...]:
        """The labels that occur in the trajectory, in code order: the first one, and
        every successor counted in :attr:`transitions`."""
        if not len(self.codes):
            return ()
        used, counts = self.transitions
        seen = counts.any(axis=0)
        seen[used.searchsorted(self.codes[0])] = True
        return tuple(map(self.labels.__getitem__, used[seen].tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Trajectory) and (self.symbols, self.hidden, self.source) == (
            other.symbols, other.hidden, other.source)

    def __hash__(self) -> int:
        return hash((self.symbols, self.hidden, self.source))

    def __len__(self) -> int:
        return len(self.codes)


def cdf_table(rows) -> np.ndarray:
    """Running sums of distributions of any widths, one row each, for :func:`walk`;
    each row's last entry and its padding are +inf, so ``#{j : cum[r, j] <= u} < n``."""
    out = np.full((len(rows), max(len(r) for r in rows)), np.inf)
    for i, r in enumerate(rows):
        out[i, :len(r) - 1] = np.cumsum(r)[:-1]
    return out


def walk(cum: np.ndarray, nxt: np.ndarray, count: int, draws: int):
    """``step(row, us)`` moves automaton ``i`` from row ``row[i]`` by one draw per
    uniform of ``us[i]``: outcome ``c = #{j : cum[r, j] <= u}`` at row ``r``, then row
    ``nxt[r, c]``; it returns the outcomes and the last rows. ``c = tab[r, b]`` exactly
    for the bucket ``b = #{i : B_i <= u}`` among the distinct finite entries ``B`` of
    ``cum``, so a table of the outcomes and rows after each row and ``m``-tuple of
    buckets takes ``m`` draws per two gathers, or list lookups for fewer than
    ``_LISTS_BELOW`` of the ``count`` automata. Past ``_TABLE_ENTRIES`` each draw
    gathers and compares rows instead; ``m`` is capped by the ``draws`` served.
    """
    B = np.array(sorted(set(cum[np.isfinite(cum)].tolist())))  # np.unique imports numpy.ma
    R, nb = len(cum), B.size + 1
    if R * nb > _TABLE_ENTRIES:
        def step(row, us):
            out = np.empty(us.shape, np.intp)
            for t, u in enumerate(us.T):
                out[:, t] = c = (cum[row] <= u[:, None]).sum(1)
                row = nxt[row, c]
            return out, row
        return step
    tab = np.array([c.searchsorted(np.r_[-np.inf, B], "right") for c in cum])  # rows ascend
    m = max(k for k in range(1, 17) if k == 1 or R * nb ** k <= min(_TABLE_ENTRIES, draws))
    outs = np.empty((R * nb ** m, m), np.min_scalar_type(cum.shape[1] - 1))  # [row, tuple]
    rows = np.empty(outs.shape, np.min_scalar_type(R - 1))       # the row after each draw
    r = np.arange(R)[:, None]
    for i, bi in enumerate(np.indices((nb,) * m).reshape(m, -1)):
        outs[:, i] = (c := tab[r, bi]).ravel()
        rows[:, i] = (r := nxt[r, c]).ravel()
    after = rows[:, -1].astype(np.intp) * nb ** m      # the next group's table offset
    lists = after.tolist() if count < _LISTS_BELOW else None

    def step(row, us):
        b = (B.searchsorted(us, "right") if B.size >= 160 else   # one pass each up to 160
             sum((us >= x for x in B), np.zeros(us.shape, np.uint8)))
        b = np.pad(b, ((0, 0), (0, -(T := us.shape[1]) % m))).T   # extra draws are dropped
        F = b[::m].astype(np.intp, order="C")         # [group, automaton]: bucket tuple
        for i in range(1, m):
            F = F * nb + b[i::m]
        F[:1] += row * nb ** m                        # then each group's table entry
        if lists is None:
            for f, g in zip(F, F[1:]):
                g += after.take(f)
        else:
            F = np.array([list(accumulate(col, lambda f, x: lists[f] + x))
                          for col in F.T.tolist()], np.intp).T
        last = rows[F[-1], (T - 1) % m].astype(np.intp) if T else row
        return outs[F.T].reshape(len(row), -1)[:, :T], last
    return step


def _automaton(model):
    """The automaton that samples ``model``: ``(cum, nxt, start, lead, stride, first)``.

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
    weights, rows, state, y0 = symbol_chains(model)
    H, S, K = rows.shape
    s0 = 0 if y0 is None else state[model.alphabet.emit_index(y0)]
    cum = cdf_table([*rows.reshape(H * S, K), weights])
    nxt = np.zeros(cum.shape, dtype=np.intp)
    nxt[:H * S, :K] = np.repeat(np.arange(H) * S, S)[:, None] + state
    nxt[H * S, :H] = np.arange(H) * S + s0
    return cum, nxt, H * S, 1, 1, y0


def _sample_streams(model, length, srcs, trace_hidden) -> list[Trajectory]:
    """One trajectory per source, all advanced together."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if trace_hidden and not isinstance(model, HMMModel):
        raise ValueError("hidden tracing requires an HMM")
    cum, nxt, start, lead, stride, first = _automaton(model)
    gens = [src.generator() for src in srcs]

    def draw(n):        # the next n uniforms of each stream, one row each
        u = np.empty((len(gens), n))
        for g, row in zip(gens, u):
            g.random(out=row)
        return u

    step = walk(cum, nxt, len(gens), len(gens) * (lead + length * stride))
    _, row = step(np.full(len(gens), start), draw(lead))
    em, hs = model.alphabet.emittable, getattr(model, "hidden_states", None)
    # one code array per block, filled chunk by chunk: no count x length uniforms
    shape = (len(gens), length)
    codes = np.empty(shape, np.min_scalar_type(len(em) - 1))
    hidden = np.empty(shape, np.min_scalar_type(len(hs) - 1)) if trace_hidden else None
    if skip := first is not None:
        codes[:, 0] = model.alphabet.emit_index(first)
    chunk = max(1, DRAWS_PER_CHUNK // (len(gens) * stride))
    for t0 in range(0, length - skip, chunk):
        out, row = step(row, draw(min(chunk, length - skip - t0) * stride))
        codes[:, skip + t0:skip + t0 + out.shape[1] // stride] = out[:, stride - 1::stride]
        if trace_hidden:
            hidden[:, t0:t0 + out.shape[1] // stride] = out[:, ::stride]
    return [Trajectory(codes[i], None if hidden is None else hidden[i], src, em, hs)
            for i, src in enumerate(srcs)]


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
    blocks of trajectories are advanced together and share one code array.
    ``count`` and ``length`` must be at least 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    src.derive(count - 1)      # a count past the substreams is refused before any draw
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
        alphabet = Alphabet.of(sorted(set().union(*(t.observed() for t in trajectories))))
    counts = Counter(tuple(map(t.labels.__getitem__, t.codes[:length].tolist()))
                     for t in trajectories)
    total = sum(counts.values())
    return FiniteLaw.from_probs(alphabet, length,
                                {prefix: c / total for prefix, c in counts.items()})
