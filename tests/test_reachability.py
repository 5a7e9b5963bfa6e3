"""Every structural question read from one reachability closure, checked against
the per-question searches kept in ``tests/oracles.py``: Tarjan's strongly
connected components and depth-first reach over states and over cells.

Graphs have 1 to 12 states. Entries exactly at ``EDGE_TOL`` are not edges and
entries at twice it are. Rows with no edge at all occur too: a valid partitioned
model may leave all-zero the kernel of a cell that ``y0`` never reaches.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from chainmix import chain_analysis
from chainmix.chain_analysis import EDGE_TOL, decompose, is_recurrent, reachability
from chainmix.constructions import _prune_hidden
from chainmix.model_core import (
    Alphabet,
    Distribution,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
    _check_distribution,
    validate_model,
)

EDGE_VALUES = [EDGE_TOL, 2 * EDGE_TOL, 0.05, 0.5]


def tables(n_rows, n_cols, values=EDGE_VALUES):
    """``n_rows x n_cols`` arrays of 0s and ``values``; zeros weigh 1 to 8 times the rest."""
    return st.integers(1, 8).flatmap(lambda zeros: st.lists(
        st.sampled_from([0.0] * zeros + values), min_size=n_rows * n_cols,
        max_size=n_rows * n_cols).map(lambda e: np.array(e).reshape(n_rows, n_cols)))


def edge_matrices(values=EDGE_VALUES):
    return st.integers(1, 12).flatmap(lambda n: tables(n, n, values))


def _no_solve(rows, members):
    return np.full(len(members), 1.0 / len(members))


@given(edge_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_closure_answers_equal_the_searches(rows, data):
    n = len(rows)
    R = reachability(rows > EDGE_TOL)
    assert [set(np.flatnonzero(r).tolist()) for r in R] == [
        oracles.reference_reachable_states(rows, [i]) for i in range(n)]
    # the structure alone: a closed class without a stationary vector (an empty row)
    # is still a class
    with mock.patch.object(chain_analysis, "_class_stationary", _no_solve):
        dec = decompose(StochasticMatrix(rows))
    assert (dec.classes, dec.transient) == oracles.reference_classes(rows)
    support = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    assert is_recurrent(StochasticMatrix(rows), support) == \
        oracles.reference_is_recurrent(rows, support)


@given(edge_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_pruning_keeps_the_states_reachable_from_the_initial_support(rows, data):
    n = len(rows)
    pi = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n)))
    labels = tuple(f"x{i}" for i in range(n))
    readout = np.arange(2.0 * n).reshape(n, 2)
    got = _prune_hidden(labels, pi, rows, readout)
    keep = sorted(oracles.reference_reachable_states(rows, np.flatnonzero(pi > 0).tolist()))
    assert got[0] == tuple(labels[i] for i in keep)
    for a, b in zip(got[1:], (pi[keep], rows[np.ix_(keep, keep)], readout[keep])):
        assert np.array_equal(a, b)


@given(st.integers(1, 12), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_partitioned_validation_checks_the_kernels_of_reachable_cells(K, H, data):
    J = data.draw(st.integers(1, K))
    cell_of = np.array(list(range(1, J + 1))
                       + data.draw(st.lists(st.integers(1, J), min_size=K - J,
                                            max_size=K - J)))
    symbols = [f"s{y}" for y in range(K)]
    partition = Partition(tuple(tuple(s for s, c in zip(symbols, cell_of) if c == j)
                                for j in range(1, J + 1)))
    kernels = np.stack([data.draw(tables(J, K)) for _ in range(H)])
    m = PartitionedKernelMixture(Alphabet.of(symbols), partition,
                                 Distribution(np.full(H, 1.0 / H)), kernels, symbols[0])
    want = [v for h in range(H)
            for j in sorted(oracles.reference_reachable_cells(kernels[h], cell_of, J))
            for v in _check_distribution(kernels[h, j - 1], f"kernel[{h}] cell {j}")]
    assert validate_model(m) == want

