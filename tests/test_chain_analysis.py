import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_stochastic_matrix, rng
from chainmix.chain_analysis import (
    cesaro_limit,
    decompose,
    is_recurrent,
    stationary_distribution,
)
from chainmix.errors import ReducibleMatrixError, TransientStatesError
from chainmix.model_core import StochasticMatrix


def mat(rows, labels=()):
    return StochasticMatrix(np.array(rows, dtype=float), labels)


TRANSIENT_EXAMPLE = [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def direct_sum(r, sizes):
    n = sum(sizes)
    out = np.zeros((n, n))
    start = 0
    for size in sizes:
        out[start:start + size, start:start + size] = r.dirichlet(np.ones(size), size=size)
        start += size
    return StochasticMatrix(out)


# ---------------------------------------------------------------------------
# decompose / is_recurrent


def test_identity_three_singleton_classes():
    dec = decompose(mat(np.eye(3)))
    assert dec.classes == ((0,), (1,), (2,))
    assert dec.transient == ()


def test_two_cycle_single_class():
    dec = decompose(mat([[0, 1], [1, 0]]))
    assert dec.classes == ((0, 1),)
    assert dec.transient == ()


def test_transient_state_detected():
    dec = decompose(mat(TRANSIENT_EXAMPLE))
    assert dec.classes == ((1,), (2,))
    assert dec.transient == (0,)


def test_is_recurrent():
    assert is_recurrent(mat(np.eye(2)), [0])
    assert not is_recurrent(mat(TRANSIENT_EXAMPLE), [0])
    assert is_recurrent(mat(TRANSIENT_EXAMPLE), [1])
    two_blocks = direct_sum(rng(1), [2, 3])
    assert is_recurrent(two_blocks, range(5))


def test_decompose_recovers_planted_direct_sums():
    r = rng(2)
    for _ in range(10):
        sizes = [int(r.integers(1, 4)) for _ in range(int(r.integers(1, 4)))]
        dec = decompose(direct_sum(r, sizes))
        expected, start = [], 0
        for size in sizes:
            expected.append(tuple(range(start, start + size)))
            start += size
        assert dec.classes == tuple(expected)
        assert dec.transient == ()


# ---------------------------------------------------------------------------
# stationary_distribution


def test_identical_rows_block_stationary_is_its_row():
    p = np.array([0.2, 0.5, 0.3])
    stat = stationary_distribution(mat(np.tile(p, (3, 1))))
    assert np.allclose(stat.weights, p, atol=1e-14)


def test_two_cycle_stationary():
    stat = stationary_distribution(mat([[0, 1], [1, 0]]))
    assert np.allclose(stat.weights, [0.5, 0.5], atol=1e-14)


def test_stationary_hand_value():
    stat = stationary_distribution(mat([[0.9, 0.1], [0.5, 0.5]]))
    assert np.allclose(stat.weights, [5 / 6, 1 / 6], atol=1e-12)


def test_stationary_rejects_reducible():
    with pytest.raises(ReducibleMatrixError):
        stationary_distribution(mat(np.eye(2)))
    with pytest.raises(ReducibleMatrixError):
        stationary_distribution(mat(TRANSIENT_EXAMPLE))


# Off-diagonal rates of the random chains: the cycle 0 -> 1 -> ... -> 0 that makes
# them irreducible takes the positive ones, so some chains are stiff to 1e-13
RATES = [1e-13, 1e-9, 1e-5, 0.01, 0.3, 1.0]


@st.composite
def irreducible_chains(draw):
    n = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(st.sampled_from([0.0] * 6 + RATES),
                                  min_size=n * n, max_size=n * n))).reshape(n, n)
    cycle = np.roll(np.arange(n), -1)
    rows[np.arange(n), cycle] = draw(st.lists(st.sampled_from(RATES), min_size=n, max_size=n))
    for i in range(n):
        rows[i, i] = 0.0
        rest = np.arange(n) != cycle[i]
        room = 1 - rows[i, cycle[i]]
        if rows[i, rest].sum() > room:
            rows[i, rest] *= room / rows[i, rest].sum()
        rows[i, i] = max(0.0, 1 - math.fsum(rows[i]))
    return rows


@given(irreducible_chains())
@settings(max_examples=200, deadline=None)
def test_stationary_entries_are_relatively_accurate(rows):
    # GTH never subtracts, so each entry is within a small multiple of n^3 u of the
    # exact solution relative to itself (O'Cinneide 1993), however small the entry
    n = len(rows)
    got = stationary_distribution(StochasticMatrix(rows)).weights
    u = np.finfo(float).eps / 2
    bound = 2 * n ** 3 * u
    for g, exact in zip(got, oracles.reference_stationary(rows)):
        assert g > 0
        assert abs(Fraction(g) - exact) <= bound * exact


def test_stationary_residual_bound():
    r = rng(3)
    for n in (2, 4, 6):
        P = random_stochastic_matrix(r, n)
        stat = stationary_distribution(P)
        assert np.max(np.abs(stat.weights @ P.rows - stat.weights)) < 1e-10


# ---------------------------------------------------------------------------
# cesaro_limit


def test_cesaro_identity():
    assert np.allclose(cesaro_limit(mat(np.eye(3))).rows, np.eye(3))


def test_cesaro_two_cycle():
    got = cesaro_limit(mat([[0, 1], [1, 0]]))
    assert np.allclose(got.rows, 0.5 * np.ones((2, 2)), atol=1e-14)


def test_cesaro_direct_sum_blockwise():
    P = np.zeros((5, 5))
    P[:3, :3] = np.eye(3)
    P[3:, 3:] = [[0, 1], [1, 0]]
    got = cesaro_limit(mat(P))
    want = np.zeros((5, 5))
    want[:3, :3] = np.eye(3)
    want[3:, 3:] = 0.5
    assert np.allclose(got.rows, want, atol=1e-14)


def test_cesaro_rejects_transient():
    with pytest.raises(TransientStatesError):
        cesaro_limit(mat(TRANSIENT_EXAMPLE))


def test_cesaro_identical_rows_within_classes_and_idempotent():
    r = rng(4)
    for _ in range(5):
        P = direct_sum(r, [int(r.integers(1, 4)), int(r.integers(1, 4))])
        star = cesaro_limit(P)
        dec = decompose(P)
        for members in dec.classes:
            block = star.rows[np.ix_(members, members)]
            assert np.max(np.abs(block - block[0])) < 1e-12
        again = cesaro_limit(star)
        assert np.max(np.abs(again.rows - star.rows)) < 1e-10


def test_cesaro_invariance_under_multiplication():
    r = rng(5)
    for _ in range(5):
        P = direct_sum(r, [2, 3])
        star = cesaro_limit(P).rows
        assert np.max(np.abs(P.rows @ star - star)) < 1e-10
        assert np.max(np.abs(star @ P.rows - star)) < 1e-10


def test_cesaro_against_iterative_averaging():
    r = rng(6)
    for _ in range(5):
        P = direct_sum(r, [int(r.integers(1, 4)), int(r.integers(2, 4))])
        star = cesaro_limit(P).rows
        assert np.max(np.abs(oracles.cesaro_by_halving(P.rows, 200) - star)) < 1e-9
        # the defining partial average converges like 1/n
        assert np.max(np.abs(oracles.cesaro_by_partial_average(P.rows, 4000) - star)) < 2e-3
