from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (
    random_hmm,
    random_iid_mixture,
    random_markov_mixture,
    random_partitioned,
    rng,
)
from chainmix.errors import EnumerationBudgetError
from chainmix import model_core, sim
from chainmix.exact_law import laws_equal, lift_with_prefix, marginalize_last
from chainmix.model_core import (
    Alphabet,
    Distribution,
    FiniteLaw,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
    hmm_law,
    iid_mixture_law,
    markov_mixture_law,
    partitioned_mixture_law,
    validate_model,
)
from chainmix.sim import RandomSource, sample_many


def ab():
    return Alphabet.of(["a", "b"])


def delta(k, i):
    v = np.zeros(k)
    v[i] = 1.0
    return Distribution(v)


# ---------------------------------------------------------------------------
# validate_model


def test_identity_matrix_is_valid():
    assert validate_model(StochasticMatrix(np.eye(2))) == []


def test_non_stochastic_row_names_row_and_sum():
    bad = StochasticMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
    violations = validate_model(bad)
    assert any("row 0 sums to 1.1" in v for v in violations)


def test_zero_weight_not_strictly_positive():
    m = MarkovMixtureModel(
        ab(), "a", Distribution(np.array([0.5, 0.5, 0.0])),
        tuple(StochasticMatrix(np.eye(2), ("a", "b")) for _ in range(3)))
    violations = validate_model(m)
    assert any("weight 2 not strictly positive" in v for v in violations)


def test_alphabet_invariants():
    assert validate_model(Alphabet.of(["a", "b"])) == []
    assert validate_model(Alphabet(("a", "b"))) == [            # no reserved slot
        "alphabet: index 0 must be the fictitious symbol '@del'"]
    assert validate_model(Alphabet(("@del", "a", "a"))) == ["alphabet: labels are not unique"]
    assert validate_model(Alphabet(())) == ["alphabet: empty"]
    assert validate_model(Alphabet(("@del", "a", "@del"))) == [
        "alphabet: labels are not unique", "alphabet: '@del' may appear only at index 0"]
    assert validate_model(Alphabet(("@del",))) == ["alphabet: no emittable symbols"]


def test_duplicate_hidden_state_labels_are_invalid():
    hidden = ("s", "s")
    m = HMMModel(hidden, ab(), Distribution(np.array([0.5, 0.5])),
                 StochasticMatrix(np.eye(2), hidden), np.eye(2))
    assert validate_model(m) == ["hidden_states: labels are not unique"]


def _st(labels=("s", "t")):
    return StochasticMatrix(np.eye(len(labels)), labels)


@pytest.mark.parametrize("build, message", [
    (lambda: StochasticMatrix(np.ones((2, 3)) / 3), r"rows: shape \(2, 3\), expected \(2, 2\)"),
    (lambda: StochasticMatrix(np.eye(2), ("u", "v", "w")),
     r"rows: shape \(2, 2\), expected \(3, 3\) for labels \('u', 'v', 'w'\)"),
    (lambda: Distribution(np.eye(2)), r"weights: expected a 1-d array, got shape \(2, 2\)"),
    (lambda: HMMModel(("s", "t"), ab(), delta(3, 0), _st(), np.eye(2)),
     r"pi: shape \(3,\), expected \(2,\)"),
    (lambda: HMMModel(("s", "t"), ab(), delta(2, 0), _st(), np.ones((2, 3)) / 3),
     r"readout: shape \(2, 3\), expected \(2, 2\)"),
    (lambda: HMMModel(("s", "t"), ab(), delta(2, 0), _st(("t", "s")), np.eye(2)),
     "P: labels .* differ from hidden_states"),
    (lambda: MarkovMixtureModel(ab(), "a", delta(2, 0), (_st(("a", "b")),)),
     r"weights: shape \(2,\), expected \(1,\)"),
    (lambda: MarkovMixtureModel(ab(), "a", delta(1, 0), (_st(("b", "a")),)),
     "component 0: labels .* differ from the alphabet"),
    (lambda: MarkovMixtureModel(ab(), "a", delta(1, 0), (_st(("a", "b", "c")),)),
     "component 0: labels .* differ from the alphabet"),
    (lambda: IIDMixtureModel(ab(), delta(1, 0), (delta(2, 0), delta(2, 1))),
     r"weights: shape \(1,\), expected \(2,\)"),
    (lambda: IIDMixtureModel(ab(), delta(1, 0), (delta(3, 0),)),
     r"component 0: shape \(3,\), expected \(2,\)"),
    (lambda: PartitionedKernelMixture(ab(), Partition((("a",), ("b",))), delta(1, 0),
                                      np.full((1, 1, 2), 0.5), "a"),
     r"kernels: shape \(1, 1, 2\), expected \(1, 2, 2\)"),
], ids=["square", "labels", "vector", "pi", "readout", "P labels", "markov weights",
        "component labels", "component size", "iid weights", "iid component", "kernels"])
def test_inconsistent_shapes_are_refused_when_built(build, message):
    # shapes are each type's own rule, checked once when it is built, never a violation
    with pytest.raises(ValueError, match=message):
        build()


def test_partition_validation():
    alphabet = Alphabet.of(["1", "2", "3"])
    good = PartitionedKernelMixture(
        alphabet, Partition((("1", "2"), ("3",))),
        Distribution(np.array([1.0])),
        np.array([[[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]]), "1")
    assert validate_model(good) == []
    off_cell = PartitionedKernelMixture(
        alphabet, Partition((("1", "2"), ("3",))),
        Distribution(np.array([1.0])),
        np.array([[[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]]), "3")
    assert any("cell 1" in v for v in validate_model(off_cell))
    # what the partition and y0 hold stays validation: listed, not raised when built
    for cells, y0, want in [
        ((("1", "2"), (), ("3",)), "1", ["partition: cell 2 is empty"]),
        ((("1", "9"), ("2", "3")), "1", ["partition: cell 1 contains unknown symbol '9'"]),
        ((("1", "2"), ("2", "3")), "1", ["partition: symbol '2' appears in more than one cell"]),
        ((("1",), ("3",)), "1", ["partition: symbols ['2'] belong to no cell"]),
        ((("1", "2"), ("3",)), "9", ["y0: '9' not in the alphabet"]),
    ]:
        kernels = np.full((1, len(cells), 3), 1 / 3)
        m = PartitionedKernelMixture(alphabet, Partition(cells), Distribution(np.array([1.0])),
                                     kernels, y0)
        assert validate_model(m) == want


# NaN probabilities: every comparison with NaN is false, so each check is written to
# fail on NaN, and its message names NaN; messages for finite input stay as they were.

NAN = float("nan")


def test_nan_in_an_iid_component_is_invalid():
    m = IIDMixtureModel(ab(), Distribution(np.array([1.0])),
                        (Distribution(np.array([NAN, NAN])),))
    assert validate_model(m) == ["component 0: weight 0 is NaN", "component 0: sums to nan"]


def test_nan_in_a_markov_component_row_is_invalid():
    # y0 = a never leaves a, so the NaN row is not reached; it is still checked
    comp = StochasticMatrix(np.array([[1.0, 0.0], [NAN, 0.5]]), ("a", "b"))
    m = MarkovMixtureModel(ab(), "a", Distribution(np.array([1.0])), (comp,))
    assert validate_model(m) == ["component 0: row 1 has a NaN entry",
                                 "component 0: row 1 sums to nan"]


@pytest.mark.parametrize("field, where, want", [
    ("pi", (1,), "pi: weight 1 is NaN"),
    ("P", (0, 1), "P: row 0 has a NaN entry"),
    ("readout", (1, 0), "readout row 1: weight 0 is NaN"),
])
def test_nan_in_an_hmm_is_invalid(field, where, want):
    arrays = {"pi": np.array([0.5, 0.5]), "P": np.array([[0.7, 0.3], [0.4, 0.6]]),
              "readout": np.array([[0.9, 0.1], [0.2, 0.8]])}
    arrays[field][where] = NAN
    hidden = ("s0", "s1")
    m = HMMModel(hidden, ab(), Distribution(arrays["pi"]),
                 StochasticMatrix(arrays["P"], hidden), arrays["readout"])
    assert want in validate_model(m)


def test_nan_in_a_reachable_kernel_row_is_invalid():
    # cell 1 sends mass 0.5 into cell 2, whose row holds the NaN
    m = PartitionedKernelMixture(
        Alphabet.of(["1", "2", "3"]), Partition((("1", "2"), ("3",))),
        Distribution(np.array([1.0])), np.array([[[0.2, 0.3, 0.5], [NAN, 0.2, 0.2]]]), "1")
    assert validate_model(m) == ["kernel[0] cell 2: weight 0 is NaN",
                                 "kernel[0] cell 2: sums to nan"]


@pytest.mark.parametrize("bad, want", [(NAN, "NaN"), (-0.5, "negative (-0.5)")])
def test_nan_or_negative_in_an_unreached_kernel_row_is_invalid(bad, want):
    # cell 1 keeps its mass: cell 2's row is never used and need not sum to 1, but no
    # weight may be NaN or negative
    m = PartitionedKernelMixture(
        Alphabet.of(["1", "2", "3"]), Partition((("1", "2"), ("3",))),
        Distribution(np.array([1.0])), np.array([[[0.2, 0.8, 0.0], [bad, 0.0, 0.0]]]), "1")
    assert validate_model(m) == [f"kernel[0] cell 2: weight 0 is {want}"]


def test_negative_weight_message_is_unchanged():
    d = Distribution(np.array([1.1, -0.1]))
    assert validate_model(d) == ["distribution: weight 1 is negative (-0.1)"]
    bad = StochasticMatrix(np.array([[1.1, -0.1], [0.0, 1.0]]))
    assert validate_model(bad) == ["matrix: row 0 has a negative entry"]


# ---------------------------------------------------------------------------
# iid_mixture_law


def test_iid_single_deterministic_component():
    m = IIDMixtureModel(ab(), Distribution(np.array([1.0])), (delta(2, 0),))
    law = iid_mixture_law(m, 2)
    assert law.prob(("a", "a", "a")) == 1.0
    assert law.prob(("a", "a", "b")) == 0.0


def test_iid_two_delta_components():
    m = IIDMixtureModel(ab(), Distribution(np.array([0.5, 0.5])),
                        (delta(2, 0), delta(2, 1)))
    law = iid_mixture_law(m, 2)
    assert law.prob(("a", "a", "a")) == pytest.approx(0.5, abs=1e-15)
    assert law.prob(("b", "b", "b")) == pytest.approx(0.5, abs=1e-15)
    assert law.prob(("a", "b", "a")) == 0.0


def test_iid_hand_value():
    # 0.5*(0.9^2) + 0.5*(0.1^2) = 0.41 at the string aa
    m = IIDMixtureModel(ab(), Distribution(np.array([0.5, 0.5])),
                        (Distribution(np.array([0.9, 0.1])),
                         Distribution(np.array([0.1, 0.9]))))
    assert iid_mixture_law(m, 1).prob(("a", "a")) == pytest.approx(0.41, abs=1e-15)


def test_iid_law_matches_path_oracle():
    r = rng(100)
    for _ in range(5):
        m = random_iid_mixture(r)
        law = iid_mixture_law(m, 3)
        assert oracles.max_gap(law, oracles.iid_law_by_paths(m, 3)) < 1e-13


def test_iid_single_component_is_product_law():
    r = rng(101)
    m = random_iid_mixture(r, n_components=1)
    law = iid_mixture_law(m, 2)
    p = m.components[0].weights
    em = m.alphabet.emittable
    for i, si in enumerate(em):
        for j, sj in enumerate(em):
            for k, sk in enumerate(em):
                assert law.prob((si, sj, sk)) == pytest.approx(p[i] * p[j] * p[k], abs=1e-15)


# ---------------------------------------------------------------------------
# markov_mixture_law


def test_markov_single_component_equals_chain_law():
    r = rng(102)
    m = random_markov_mixture(r, n_components=1)
    law = markov_mixture_law(m, 3)
    assert oracles.max_gap(law, oracles.markov_law_by_paths(m, 3)) < 1e-14


def test_markov_stay_swap_example():
    stay = StochasticMatrix(np.eye(2), ("a", "b"))
    swap = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
    m = MarkovMixtureModel(ab(), "a", Distribution(np.array([0.5, 0.5])), (stay, swap))
    law = markov_mixture_law(m, 2)
    assert law.prob(("a", "a")) == pytest.approx(0.5, abs=1e-15)
    assert law.prob(("b", "a")) == pytest.approx(0.5, abs=1e-15)
    assert law.prob(("a", "b")) == 0.0
    assert law.prob(("b", "b")) == 0.0


def test_markov_horizon_one_is_row_mixture():
    r = rng(103)
    m = random_markov_mixture(r)
    law = markov_mixture_law(m, 1)
    y0 = m.alphabet.emit_index(m.y0)
    mix = sum(mu * comp.rows[y0]
              for mu, comp in zip(m.weights.weights, m.components))
    for i, s in enumerate(m.alphabet.emittable):
        assert law.prob((s,)) == pytest.approx(mix[i], abs=1e-15)


# ---------------------------------------------------------------------------
# contract: one left-to-right sum per output entry


def _layout(M, layout):
    """``M``'s values in a C-contiguous, transposed-view or strided-view array."""
    if layout == "transposed":
        return np.ascontiguousarray(M.T).T
    if layout == "strided":
        wide = np.zeros((2 * M.shape[0], 3 * M.shape[1]))
        wide[::2, ::3] = M
        return wide[::2, ::3]
    return M


@given(st.lists(st.integers(1, 4), max_size=3), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from(["contiguous", "transposed", "strided"]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_contract_equals_the_left_to_right_loop_bit_for_bit(batch, X, Y, layout, seed):
    r = rng(seed)
    A, M = r.random((*batch, X)), r.random((X, Y))
    for arr in (A, M):
        arr[r.random(arr.shape) < 0.2] = 0.0
        tiny = r.random(arr.shape) < 0.1
        arr[tiny] *= 2.0 ** -1040                      # subnormal
    if A.size > X:
        A.reshape(-1, X)[r.integers(0, A.size // X)] = 0.0     # a zero row
    if X > 1:
        M[r.integers(0, X)] = 0.0
    got = model_core.contract(A, _layout(M, layout))
    want = oracles.reference_contract(A, M)
    assert got.shape == want.shape == (*batch, Y)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# hmm_law


def test_hmm_deterministic_chain():
    hidden = ("1", "2", "3")
    m = HMMModel(hidden, ab(), delta(3, 0),
                 StochasticMatrix(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float),
                                  hidden),
                 np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert hmm_law(m, 2).prob(("a", "a", "b")) == pytest.approx(1.0, abs=1e-15)


def test_identity_chain_hmm_equals_iid_mixture_law():
    f1, f2 = np.array([0.6, 0.4]), np.array([0.15, 0.85])
    hidden = ("h0", "h1")
    m = HMMModel(hidden, ab(), Distribution(np.array([0.3, 0.7])),
                 StochasticMatrix(np.eye(2), hidden), np.stack([f1, f2]))
    iid = IIDMixtureModel(ab(), Distribution(np.array([0.3, 0.7])),
                          (Distribution(f1), Distribution(f2)))
    for n in (1, 2, 4):
        assert laws_equal(hmm_law(m, n), iid_mixture_law(iid, n), 1e-12)


def test_forward_recursion_matches_hidden_path_oracle():
    r = rng(104)
    for _ in range(4):
        m = random_hmm(r, n_hidden=3)
        law = hmm_law(m, 4)
        assert oracles.max_gap(law, oracles.hmm_law_by_hidden_paths(m, 4)) < 1e-12
    # the stated envelope: four hidden states, horizon five
    m = random_hmm(r, n_hidden=4, n_symbols=2)
    assert oracles.max_gap(hmm_law(m, 5), oracles.hmm_law_by_hidden_paths(m, 5)) < 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_forward_equals_brute_force_up_to_four_hidden(seed):
    r = rng(seed)
    m = random_hmm(r, n_hidden=int(r.integers(1, 5)), n_symbols=2)
    n = int(r.integers(1, 4))
    assert oracles.max_gap(hmm_law(m, n), oracles.hmm_law_by_hidden_paths(m, n)) < 1e-12


# ---------------------------------------------------------------------------
# partitioned_mixture_law


def two_cell_example():
    alphabet = Alphabet.of(["1", "2", "3", "4"])
    partition = Partition((("1", "2"), ("3", "4")))
    kernels = np.array([
        [[0.4, 0.2, 0.3, 0.1], [0.1, 0.3, 0.2, 0.4]],
        [[0.25, 0.25, 0.25, 0.25], [0.5, 0.1, 0.1, 0.3]],
    ])
    return PartitionedKernelMixture(alphabet, partition,
                                    Distribution(np.array([0.6, 0.4])), kernels, "1")


def test_partitioned_two_cell_matches_cell_path_oracle():
    m = two_cell_example()
    law = partitioned_mixture_law(m, 3)
    assert oracles.max_gap(law, oracles.partitioned_law_by_cell_paths(m, 3)) < 1e-14


def test_partitioned_singleton_cells_equals_markov():
    r = rng(105)
    k, h = 3, 2
    symbols = ["a", "b", "c"]
    kernels = r.dirichlet(np.ones(k), size=(h, k))
    weights = Distribution(r.dirichlet(np.ones(h)))
    pm = PartitionedKernelMixture(
        Alphabet.of(symbols), Partition(tuple((s,) for s in symbols)),
        weights, kernels, "a")
    mm = MarkovMixtureModel(
        Alphabet.of(symbols), "a", weights,
        tuple(StochasticMatrix(kernels[i], tuple(symbols)) for i in range(h)))
    for n in (1, 2, 3):
        assert partitioned_mixture_law(pm, n) == markov_mixture_law(mm, n)
    src = RandomSource(105)
    assert sample_many(pm, 30, 40, src) == sample_many(mm, 30, 40, src)
    # an i.i.d. component is one row that never moves, so walk's table maps it to itself
    im = IIDMixtureModel(Alphabet.of(symbols), weights,
                         tuple(Distribution(p) for p in kernels[:, 0]))
    cum, nxt, start, *_ = sim._automaton(im)
    assert cum.shape[0] == start + 1 == h + 1
    assert (nxt[:h] == np.arange(h)[:, None]).all()


def test_partitioned_single_component_is_cell_chain():
    m = two_cell_example()
    single = PartitionedKernelMixture(m.alphabet, m.partition,
                                      Distribution(np.array([1.0])),
                                      m.kernels[:1], m.y0)
    law = partitioned_mixture_law(single, 2)
    # by hand: P(y1 y2) = t(1, y1) t(cell(y1), y2)
    t = m.kernels[0]
    cell = [1, 1, 2, 2]
    em = m.alphabet.emittable
    for i, s1 in enumerate(em):
        for j, s2 in enumerate(em):
            want = t[0, i] * t[cell[i] - 1, j]
            assert law.prob((s1, s2)) == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# Cross-cutting law invariants


def _law_of(kind, seed, n):
    r = rng(seed)
    if kind == "iid":
        return iid_mixture_law(random_iid_mixture(r), n)
    if kind == "markov":
        return markov_mixture_law(random_markov_mixture(r), n)
    if kind == "hmm":
        return hmm_law(random_hmm(r), n)
    return partitioned_mixture_law(random_partitioned(r), n)


@given(st.sampled_from(["iid", "markov", "hmm", "partitioned"]), st.integers(0, 10 ** 6))
@settings(max_examples=32, deadline=None)
def test_law_sums_to_one(kind, seed):
    law = _law_of(kind, seed, 3)
    assert law.total() == pytest.approx(1.0, abs=1e-9)


@given(st.sampled_from(["iid", "markov", "hmm", "partitioned"]), st.integers(0, 10 ** 6))
@settings(max_examples=24, deadline=None)
def test_marginal_consistency(kind, seed):
    longer = _law_of(kind, seed, 4)
    shorter = _law_of(kind, seed, 3)
    assert laws_equal(marginalize_last(longer), shorter, 1e-12)


def test_enumeration_budget_enforced():
    r = rng(106)
    m = random_iid_mixture(r, n_symbols=4)
    with pytest.raises(EnumerationBudgetError, match="exceeding the budget"):
        iid_mixture_law(m, 5, budget=100)


def test_hmm_budget_counts_hidden_states():
    # the forward table costs |hidden| * |alphabet|^(N+1) entries
    m = random_hmm(rng(107), n_hidden=4, n_symbols=2)
    hmm_law(m, 2, budget=4 * 2 ** 3)
    with pytest.raises(EnumerationBudgetError):
        hmm_law(m, 2, budget=4 * 2 ** 3 - 1)


def test_finite_law_sparse_dense_agree():
    # a flat table with 1 nonzero of 8 and the same law from its one live string
    flat = np.zeros(8)
    flat[5] = 1.0
    from_flat = FiniteLaw.from_flat(ab(), 3, flat)
    from_probs = FiniteLaw.from_probs(ab(), 3, {("b", "a", "b"): 1.0})
    assert from_flat.ranks.tolist() == from_probs.ranks.tolist() == [5]
    for s in [("a", "a", "a"), ("b", "a", "b"), ("a", "b", "a")]:
        assert from_flat.prob(s) == from_probs.prob(s) == (1.0 if s == ("b", "a", "b") else 0.0)
    assert dict(from_flat.entries()) == dict(from_probs.entries()) == {("b", "a", "b"): 1.0}
    full = FiniteLaw.from_flat(ab(), 3, np.full(8, 0.125))
    assert full.ranks.tolist() == list(range(8)) and full.total() == 1.0


def _ordered_items(table):
    """Items in insertion order, with the exact types of keys, digits and values."""
    return [(tuple((type(i), i) for i in k), type(p), p) for k, p in table.items()]


@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([0.0, 0.05, 0.2, 0.3, 1.0]),
       st.sampled_from([1, 3, model_core.BLOCK]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_codec_matches_per_entry_reference(k, length, live, block, seed):
    # tables of at most 6**4 entries; live shares on both sides of 1/4
    while k ** length > 6 ** 4:
        length -= 1
    r = rng(seed)
    flat = np.where(r.random(k ** length) < live, r.random(k ** length), 0.0)
    alphabet = Alphabet.of([f"s{i}" for i in range(k)])
    with mock.patch.object(model_core, "BLOCK", block):
        law = FiniteLaw.from_flat(alphabet, length, flat)
        expected = oracles.reference_rank_table(flat, k, length)
        labelled = {tuple(alphabet.emittable[d] for d in idx): p for idx, p in expected.items()}
        for f in [law, FiniteLaw.from_probs(alphabet, length, dict(reversed(labelled.items())))]:
            assert _ordered_items(f.nonzero()) == _ordered_items(expected)
            assert list(f.entries()) == list(oracles.reference_entries(f))
            assert np.array_equal(f.to_flat(), flat)
            lifted = lift_with_prefix(f, alphabet.emittable[-1])
            assert _ordered_items(lifted.nonzero()) == _ordered_items(
                {(k - 1, *idx): p for idx, p in expected.items()})
        other = FiniteLaw.from_flat(alphabet, length, r.random(k ** length))
        i = int(np.argmax(np.abs(flat - other.to_flat())))
        em = alphabet.emittable
        assert laws_equal(law, other, -1.0).worst_string == tuple(
            em[d] for d in oracles.reference_unrank(i, k, length))


def test_sparse_law_beyond_int64_ranks():
    # 3**45 > 2**63: a sparse law this long is ordered and printed without ranks
    alphabet = Alphabet.of(["a", "b", "c"])
    strings = [tuple("abc"[(i * j) % 3] for j in range(45)) for i in (2, 0, 1)]
    law = FiniteLaw.from_probs(alphabet, 45, dict(zip(strings, [0.5, 0.25, 0.25])))
    assert 3 ** 45 > 2 ** 63
    assert list(law.entries()) == list(oracles.reference_entries(law))
    assert [s for s, _ in law.entries()] == sorted(strings)
    assert _ordered_items(law.nonzero()) == _ordered_items(oracles.reference_nonzero(law))
    lifted = lift_with_prefix(law, "c")
    assert lifted.prob(("c", *strings[0])) == 0.5 and lifted.length == 46
    assert laws_equal(law, law, 0.0).equal
