import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from chainmix.fixtures import separated_recovery_mixture
from chainmix.model_core import Alphabet, Partition
from chainmix.sim import RandomSource, Trajectory, sample
from chainmix import successors
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
    with pytest.raises(ValueError, match="length >= 2"):
        extract(traj("a"))
    with pytest.raises(ValueError, match="length >= 2"):
        extract_partitioned(traj("a"), Partition((("a",),)))


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


@given(st.integers(1, 20), st.lists(st.integers(0, 19), min_size=2, max_size=200),
       st.booleans(), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_extract_matches_reference(k, codes, explicit, width):
    # up to 20 keys, so pair codes pass 255; labels of one or two characters each
    names = [c * width for c in "abcdefghijklmnopqrst"]
    symbols = tuple(names[c % k] for c in codes)
    alphabet = Alphabet.of(names[:k][::-1]) if explicit else None
    got = extract(Trajectory(symbols), alphabet)
    want = oracles.reference_extract(Trajectory(symbols), alphabet)
    assert got == want
    assert list(got.rows) == list(want.rows)
    keys = list(want.rows)
    assert got.pair_counts.tolist() == [[row.count(s) for s in keys] for row in want.rows.values()]


NAMES = ("a", "b", "c", "d", "ee", "ff", "g", "hh", "i", "j")


@given(st.permutations(NAMES).map(lambda p: p[:len(NAMES) - 2]), st.integers(1, 8),
       st.lists(st.integers(0, 7), min_size=1, max_size=120),
       st.none() | st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
@settings(max_examples=300, deadline=None)
def test_counts_shared_by_observed_and_extract(labels, used, codes, alphabet):
    # a file-wide label map: labels the trajectory never shows, others outside the
    # alphabet, and squares of labels both larger and smaller than the trajectory
    codes = [c % used for c in codes]
    t = Trajectory(np.array(codes, np.uint8), labels=labels)
    symbols = [labels[c] for c in codes]
    assert t.observed() == tuple(s for s in labels if s in symbols)
    alphabet = None if alphabet is None else Alphabet.of(alphabet)
    keys = sorted(set(symbols)) if alphabet is None else list(alphabet.emittable)
    stray = next((s for s in symbols if s not in keys), None)
    if len(t) < 2 or stray is not None:
        with pytest.raises(ValueError) as got:
            extract(t, alphabet)
        if len(t) >= 2:
            assert str(got.value) == f"trajectory symbol {stray!r} is not in the given alphabet"
        if stray in symbols[:-1]:       # the reference checks every symbol but the last
            with pytest.raises(ValueError) as want:
                oracles.reference_extract(t, alphabet)
            assert str(got.value) == str(want.value)
        return
    got, want = extract(t, alphabet), oracles.reference_extract(t, alphabet)
    assert got == want and list(got.rows) == list(want.rows) == keys
    pairs = [[sum(p == (a, b) for p in zip(symbols, symbols[1:])) for b in keys] for a in keys]
    assert got.pair_counts.tolist() == pairs and got.pair_counts.dtype == np.intp


@given(st.integers(1, 6), st.lists(st.integers(0, 5), min_size=2, max_size=200),
       st.lists(st.integers(0, 3), min_size=6, max_size=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_extract_partitioned_matches_reference(k, codes, cell_of, shared_labels):
    # cell_of[i] is the cell of "abcdef"[i], 0 for none; with shared_labels the
    # trajectory's label map also holds labels that do not occur in it, as when
    # read_trajectories shares one map across a file
    symbols = tuple("abcdef"[c % k] for c in codes)
    cells = tuple(c for c in (tuple(s for s, j in zip("abcdef", cell_of) if j == i)
                              for i in (1, 2, 3)) if c)
    partition = Partition(cells or (("z",),))
    t = Trajectory(symbols)
    if shared_labels:
        index = {s: i for i, s in enumerate("fedcba")}
        t = Trajectory(np.array([index[s] for s in symbols]), labels="fedcba")
    try:
        want = oracles.reference_extract_partitioned(t, partition)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            extract_partitioned(t, partition)
        assert str(got.value) == str(exc)
        return
    got = extract_partitioned(t, partition)
    assert isinstance(got.rows, successors._CodedRows)
    assert got == want and list(got.rows) == list(want.rows)
