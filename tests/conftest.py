"""Shared random-model generators and assertion helpers. All test randomness is
seeded explicitly."""

import importlib.util
import os
from pathlib import Path

import numpy as np

from chainmix.model_core import (
    Alphabet,
    Distribution,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
)

SYMBOLS = ["a", "b", "c", "d", "e"]


def rng(seed):
    return np.random.default_rng(seed)


def load_script(name: str):
    """The module of ``scripts/<name>.py``, freshly executed."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_same_text(got: str, want: str, context: int = 60) -> None:
    """Exact string equality. A failure reports the lengths and the first differing
    offset with ``context`` characters on each side, never a diff of the whole
    strings (pytest's diff of a long ``repr`` can take minutes)."""
    if got == want:
        return
    i = len(os.path.commonprefix([got, want]))
    lo, hi = max(0, i - context), i + context
    raise AssertionError(f"strings differ: lengths {len(got)} and {len(want)}, first "
                         f"difference at offset {i}:\n  got  ...{got[lo:hi]!r}...\n"
                         f"  want ...{want[lo:hi]!r}...")


def random_distribution(r, k):
    return Distribution(r.dirichlet(np.ones(k)))


def random_stochastic_matrix(r, n, labels=()):
    return StochasticMatrix(r.dirichlet(np.ones(n), size=n), labels)


def random_iid_mixture(r, n_symbols=None, n_components=None):
    k = n_symbols or int(r.integers(2, 5))
    h = n_components or int(r.integers(1, 4))
    alphabet = Alphabet.of(SYMBOLS[:k])
    return IIDMixtureModel(alphabet, random_distribution(r, h),
                           tuple(random_distribution(r, k) for _ in range(h)))


def random_markov_mixture(r, n_symbols=None, n_components=None):
    """Components have strictly positive rows, hence are irreducible (recurrent)."""
    k = n_symbols or int(r.integers(2, 5))
    h = n_components or int(r.integers(1, 4))
    alphabet = Alphabet.of(SYMBOLS[:k])
    comps = tuple(StochasticMatrix(r.dirichlet(np.ones(k), size=k), alphabet.emittable)
                  for _ in range(h))
    y0 = SYMBOLS[int(r.integers(0, k))]
    return MarkovMixtureModel(alphabet, y0, random_distribution(r, h), comps)


def random_hmm(r, n_hidden=None, n_symbols=None):
    """Strictly positive transition rows: the underlying chain is recurrent."""
    x = n_hidden or int(r.integers(2, 5))
    k = n_symbols or int(r.integers(2, 4))
    hidden = tuple(f"s{i}" for i in range(x))
    return HMMModel(hidden, Alphabet.of(SYMBOLS[:k]),
                    random_distribution(r, x),
                    StochasticMatrix(r.dirichlet(np.ones(x), size=x), hidden),
                    r.dirichlet(np.ones(k), size=x))


def random_block_iid_hmm(r, n_blocks=2, max_block=3, n_symbols=3):
    """Identical rows within each block and an invariant initial law: the
    hypothesis under which class-lumping preserves the output law exactly."""
    sizes = [int(r.integers(1, max_block + 1)) for _ in range(n_blocks)]
    n = sum(sizes)
    P = np.zeros((n, n))
    pi = np.zeros(n)
    mu = r.dirichlet(np.ones(n_blocks))
    start = 0
    for h, size in enumerate(sizes):
        p = r.dirichlet(np.ones(size))
        P[start:start + size, start:start + size] = np.tile(p, (size, 1))
        pi[start:start + size] = mu[h] * p
        start += size
    hidden = tuple(f"s{i}" for i in range(n))
    return HMMModel(hidden, Alphabet.of(SYMBOLS[:n_symbols]),
                    Distribution(pi), StochasticMatrix(P, hidden),
                    r.dirichlet(np.ones(n_symbols), size=n))


def random_class_mixture(r, n_symbols=None, n_components=None):
    """Each component splits the symbols into closed groups, irreducible by a cycle through
    each: every state recurs, and the groups ``y0`` misses are zero-mass recurrence classes
    of the unpruned ``markov_mixture_to_hmm`` image."""
    k = n_symbols or int(r.integers(2, 5))
    h = n_components or int(r.integers(1, 4))
    alphabet = Alphabet.of(SYMBOLS[:k])
    comps = []
    for _ in range(h):
        group = r.integers(0, int(r.integers(1, k + 1)), size=k)
        keep = (r.random((k, k)) < 0.5) & (group[:, None] == group)
        rows = r.dirichlet(np.ones(k), size=k) * keep
        for g in np.unique(group):
            members = np.flatnonzero(group == g)
            rows[members, np.roll(members, -1)] += 0.5
        comps.append(StochasticMatrix(rows / rows.sum(axis=1, keepdims=True), alphabet.emittable))
    y0 = SYMBOLS[int(r.integers(0, k))]
    return MarkovMixtureModel(alphabet, y0, random_distribution(r, h), tuple(comps))


def split_hidden_state(m, r):
    """``m`` with a random hidden state ``x`` split into two copies. Both keep ``x``'s row
    and read-out, and they share ``x``'s column, row by row, and its initial mass in random
    ratios. The output law does not change."""
    n = m.n_hidden
    x = int(r.integers(0, n))
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = m.P.rows
    P[n] = P[x]
    P[:, n] = P[:, x] * r.random(n + 1)
    P[:, x] -= P[:, n]
    pi = np.append(m.pi.weights, m.pi.weights[x] * r.random())
    pi[x] -= pi[n]
    hidden = (*m.hidden_states, m.hidden_states[x] + "'")
    return HMMModel(hidden, m.alphabet, Distribution(pi), StochasticMatrix(P, hidden),
                    np.vstack([m.readout, m.readout[x]]))


def move_transition(m, r, eps):
    """``m`` with ``eps`` (at most the entry) moved from a random positive transition to
    another entry of its row."""
    P = m.P.rows.copy()
    positive = np.argwhere(P > 0)
    i, j = positive[int(r.integers(0, len(positive)))]
    c = (j + 1 + int(r.integers(0, len(P) - 1))) % len(P)
    d = min(eps, P[i, j])
    P[i, j] -= d
    P[i, c] += d
    return HMMModel(m.hidden_states, m.alphabet, m.pi, StochasticMatrix(P, m.hidden_states),
                    m.readout)


def random_partitioned(r, n_symbols=None, n_cells=None, n_components=None):
    k = n_symbols or int(r.integers(3, 6))
    j = n_cells or int(r.integers(2, min(4, k + 1)))
    h = n_components or int(r.integers(1, 3))
    symbols = SYMBOLS[:k]
    perm = list(r.permutation(k))
    bounds = sorted(r.choice(np.arange(1, k), size=j - 1, replace=False)) if j > 1 else []
    cells, prev = [], 0
    for b in list(bounds) + [k]:
        cells.append(tuple(symbols[perm[i]] for i in range(prev, b)))
        prev = b
    alphabet = Alphabet.of(symbols)
    partition = Partition(tuple(cells))
    kernels = r.dirichlet(np.ones(k), size=(h, j))
    y0 = cells[0][int(r.integers(0, len(cells[0])))]
    return PartitionedKernelMixture(alphabet, partition, random_distribution(r, h),
                                    kernels, y0)
