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
from chainmix import model_core
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
    assert validate_model(Alphabet(("a", "b"))) != []          # no reserved slot
    assert validate_model(Alphabet(("@del", "a", "a"))) != []  # duplicate


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
        assert laws_equal(partitioned_mixture_law(pm, n), markov_mixture_law(mm, n), 1e-12)


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
    flat = np.zeros(8)
    flat[5] = 1.0
    sparse = FiniteLaw.from_flat(ab(), 3, flat)
    assert sparse.sparse is not None     # 1 nonzero of 8 -> sparse storage
    dense = FiniteLaw(ab(), 3, dense=flat)
    for s in [("a", "a", "a"), ("b", "a", "b"), ("a", "b", "a")]:
        assert sparse.prob(s) == dense.prob(s)
    assert dict(sparse.entries()) == dict(dense.entries())
    # a half-full table stays dense
    assert FiniteLaw.from_flat(ab(), 3, np.full(8, 0.125)).dense is not None


def _ordered_items(table):
    """Items in insertion order, with the exact types of keys, digits and values."""
    return [(tuple((type(i), i) for i in k), type(p), p) for k, p in table.items()]


@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([0.0, 0.05, 0.2, 0.3, 1.0]),
       st.sampled_from([1, 3, model_core.BLOCK]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_codec_matches_per_entry_reference(k, length, live, block, seed):
    # tables of at most 6**4 entries; live shares on both sides of SPARSE_FRACTION
    while k ** length > 6 ** 4:
        length -= 1
    r = rng(seed)
    flat = np.where(r.random(k ** length) < live, r.random(k ** length), 0.0)
    alphabet = Alphabet.of([f"s{i}" for i in range(k)])
    with mock.patch.object(model_core, "BLOCK", block):
        law = FiniteLaw.from_flat(alphabet, length, flat)
        expected = oracles.reference_rank_table(flat, k, length)
        if law.sparse is not None:
            assert _ordered_items(law.sparse) == _ordered_items(expected)
        forms = [law, FiniteLaw(alphabet, length, dense=flat),
                 FiniteLaw(alphabet, length, sparse=dict(reversed(expected.items())))]
        for f in forms:
            assert _ordered_items(f.nonzero()) == _ordered_items(oracles.reference_nonzero(f))
            assert list(f.entries()) == list(oracles.reference_entries(f))
            assert np.array_equal(f.to_flat(), flat)
            lifted = lift_with_prefix(f, alphabet.emittable[-1])
            assert _ordered_items(lifted.sparse) == _ordered_items(
                {(k - 1, *idx): p for idx, p in oracles.reference_nonzero(f).items()})
        other = FiniteLaw(alphabet, length, dense=r.random(k ** length))
        i = int(np.argmax(np.abs(flat - other.dense)))
        em = alphabet.emittable
        assert laws_equal(forms[1], other, -1.0).worst_string == tuple(
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
