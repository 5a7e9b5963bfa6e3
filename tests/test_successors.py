import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from chainmix.fixtures import separated_recovery_mixture
from chainmix.model_core import Alphabet, Partition
from chainmix.sim import RandomSource, Trajectory, sample
from chainmix.successors import extract, extract_partitioned


def traj(*symbols):
    return Trajectory(tuple(symbols))


def test_hand_trace():
    arr = extract(traj("a", "b", "a", "a", "b"))
    assert arr.rows["a"] == ("b", "a", "b")
    assert arr.rows["b"] == ("a",)


def test_single_symbol_with_alphabet():
    arr = extract(traj("a", "a", "a", "a"), Alphabet.of(["a", "b"]))
    assert arr.rows["a"] == ("a", "a", "a")
    assert arr.rows["b"] == ()


def test_length_two():
    arr = extract(traj("a", "b"))
    assert arr.rows["a"] == ("b",)
    assert arr.rows["b"] == ()


def test_too_short_rejected():
    with pytest.raises(ValueError):
        extract(traj("a"))


def test_partitioned_singleton_cells_match_plain_extract():
    t = traj("a", "c", "b", "a", "c")
    partition = Partition((("a",), ("b",), ("c",)))
    plain = extract(t, Alphabet.of(["a", "b", "c"]))
    keyed = extract_partitioned(t, partition)
    assert keyed.rows == {1: plain.rows["a"], 2: plain.rows["b"], 3: plain.rows["c"]}


def test_partitioned_hand_trace():
    t = traj("1", "3", "2", "4", "1")
    partition = Partition((("1", "2"), ("3", "4")))
    arr = extract_partitioned(t, partition)
    assert arr.rows[1] == ("3", "4")
    assert arr.rows[2] == ("2", "1")


def test_partitioned_unvisited_cell_empty():
    t = traj("1", "2", "1")
    arr = extract_partitioned(t, Partition((("1", "2"), ("3",))))
    assert arr.rows[2] == ()


def test_partitioned_rejects_symbol_outside_partition():
    with pytest.raises(ValueError):
        extract_partitioned(traj("1", "9"), Partition((("1",),)))


@given(st.lists(st.sampled_from("abc"), min_size=2, max_size=60))
@settings(max_examples=60, deadline=None)
def test_row_lengths_sum_to_length_minus_one(symbols):
    arr = extract(Trajectory(tuple(symbols)))
    assert arr.total_entries() == len(symbols) - 1


@given(st.lists(st.sampled_from("abc"), min_size=2, max_size=40),
       st.permutations(["x", "y", "z"]))
@settings(max_examples=60, deadline=None)
def test_extraction_commutes_with_relabeling(symbols, image):
    rename = dict(zip("abc", image))
    before = extract(Trajectory(tuple(symbols)))
    after = extract(Trajectory(tuple(rename[s] for s in symbols)))
    assert after.rows == {rename[k]: tuple(rename[s] for s in row)
                          for k, row in before.rows.items()}


def test_row_frequencies_converge_to_component_row():
    # emitted symbols of the delta-read-out pair construction over a single
    # component: successors-row frequencies approach the matrix rows
    from chainmix.constructions import markov_mixture_to_hmm

    m = separated_recovery_mixture()
    single = type(m)(m.alphabet, m.y0,
                     type(m.weights)(np.array([1.0])), m.components[:1])
    h = markov_mixture_to_hmm(single)
    t = sample(h, 100_000, RandomSource(21))
    arr = extract(t, m.alphabet)
    P = m.components[0].rows
    for y in m.alphabet.emittable:
        row = arr.rows[y]
        yi = m.alphabet.emit_index(y)
        freq = np.array([sum(1 for s in row if s == z) / len(row)
                         for z in m.alphabet.emittable])
        assert 0.5 * np.abs(freq - P[yi]).sum() <= 0.02


@pytest.mark.parametrize("symbols", [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")])
def test_symbol_outside_alphabet_rejected_at_every_position(symbols):
    with pytest.raises(ValueError, match="'b' is not in the given alphabet"):
        extract(Trajectory(symbols), Alphabet.of(["a"]))


@given(st.integers(1, 6), st.lists(st.integers(0, 5), min_size=2, max_size=200),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_extract_matches_reference(k, codes, explicit):
    symbols = tuple("abcdef"[c % k] for c in codes)
    alphabet = Alphabet.of("fedcba"[6 - k:]) if explicit else None
    got = extract(Trajectory(symbols), alphabet)
    want = oracles.reference_extract(Trajectory(symbols), alphabet)
    assert got == want
    assert list(got.rows) == list(want.rows)
