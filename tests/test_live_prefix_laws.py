"""Exact laws over live prefixes against the full-table reference bodies.

The chain-mixture engine and the HMM forward pass must give the reference's
floats exactly, at the same live ranks in ascending order, however many rows
the HMM pass has pruned: each row's contraction is summed in one fixed order
that no other row affects. The budget counts the entries a step over the live
prefixes would hold, not the table, and refuses before allocating them.
"""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chainmix import model_core
from chainmix.cli import main
from chainmix.errors import EnumerationBudgetError, ModelFormatError
from chainmix.model_io import load_model
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
    model_law,
    partitioned_mixture_law,
    validate_model,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
SYMBOLS = ["a", "b", "c", "d"]


def sparse_rows(r, n, k, zeros=True):
    """``n`` random distributions over ``k`` entries, each with at least one
    positive entry and, when ``zeros``, about a third of the entries exactly 0."""
    rows = r.dirichlet(np.ones(k), size=n)
    if zeros:
        mask = r.random((n, k)) < 0.35
        mask[np.arange(n), r.integers(0, k, size=n)] = False
        rows = np.where(mask, 0.0, rows)
        rows /= rows.sum(axis=1, keepdims=True)
    return rows


def symmetric_support_chain(r, k):
    """Stochastic matrix whose support is symmetric, so every state is recurrent."""
    support = r.random((k, k)) < 0.6
    support |= support.T
    empty = ~support.any(axis=1)
    support[empty, empty] = True               # a self-loop for each empty row
    rows = np.where(support, r.random((k, k)) + 0.05, 0.0)
    return rows / rows.sum(axis=1, keepdims=True)


def random_mixture(kind, r, k, h):
    alphabet = Alphabet.of(SYMBOLS[:k])
    weights = Distribution(r.dirichlet(np.ones(h)))
    if kind == "iid":
        return IIDMixtureModel(alphabet, weights,
                               tuple(Distribution(p) for p in sparse_rows(r, h, k)))
    if kind == "markov":
        comps = tuple(StochasticMatrix(symmetric_support_chain(r, k), alphabet.emittable)
                      for _ in range(h))
        return MarkovMixtureModel(alphabet, SYMBOLS[int(r.integers(0, k))], weights, comps)
    j = int(r.integers(1, k + 1))
    bounds = [0, *sorted(r.choice(np.arange(1, k), size=j - 1, replace=False).tolist()), k]
    cells = tuple(tuple(SYMBOLS[a:b]) for a, b in zip(bounds, bounds[1:]))
    kernels = sparse_rows(r, h * j, k).reshape(h, j, k)
    return PartitionedKernelMixture(alphabet, Partition(cells), weights, kernels, cells[0][0])


def random_hmm(r, x, k, zeros):
    hidden = tuple(f"s{i}" for i in range(x))
    return HMMModel(hidden, Alphabet.of(SYMBOLS[:k]),
                    Distribution(sparse_rows(r, 1, x, zeros)[0]),
                    StochasticMatrix(sparse_rows(r, x, x, zeros), hidden),
                    sparse_rows(r, x, k, zeros))


def assert_same_law(got, want):
    """``got`` holds exactly ``want``'s live entries, as read-only int64 ranks."""
    want_ranks, want_probs = oracles.reference_live(want)
    assert got.length == want.length and got.ranks.dtype == np.int64
    assert np.array_equal(got.ranks, want_ranks) and np.array_equal(got.probs, want_probs)
    assert not got.ranks.flags.writeable and not got.probs.flags.writeable


LAW_BODIES = {
    "iid": (iid_mixture_law, oracles.reference_iid_mixture_law),
    "markov": (markov_mixture_law, oracles.reference_markov_mixture_law),
    "partitioned": (partitioned_mixture_law, oracles.reference_partitioned_mixture_law),
}


@given(st.sampled_from(sorted(LAW_BODIES)), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_mixture_laws_equal_the_full_table_bodies(kind, k, h, N, seed):
    m = random_mixture(kind, np.random.default_rng(seed), k, h)
    assert validate_model(m) == []
    law, reference = LAW_BODIES[kind]
    assert_same_law(law(m, N), reference(m, N))


@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_positive_hmm_law_equals_the_full_table_body(x, k, N, seed):
    m = random_hmm(np.random.default_rng(seed), x, k, zeros=False)
    assert_same_law(hmm_law(m, N), oracles.reference_hmm_law(m, N))


@given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
@example(8, 2, 3, 70)    # a BLAS product over the 8 live rows rounded 2 ulp off the full table's
def test_pruned_hmm_law_equals_the_full_table_body(x, k, N, seed):
    m = random_hmm(np.random.default_rng(seed), x, k, zeros=True)
    assert_same_law(hmm_law(m, N), oracles.reference_hmm_law(m, N))


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_hmm_law_is_within_gamma_of_the_rational_law(x, k, N, zeros, seed):
    # Every operation of the forward pass rounds a sum of nonnegative products, so each
    # entry is its exact value times at most m = (N + 1)(X + 1) factors (1 + d), |d| <= u:
    # relative error at most gamma_m = m u / (1 - m u) (Higham, 2nd ed., sec. 3.1).
    m = random_hmm(np.random.default_rng(seed), x, k, zeros)
    got = hmm_law(m, N).nonzero()
    exact = oracles.fraction_hmm_law(m, N)
    mu = Fraction((N + 1) * (x + 1), 2 ** 53)
    gamma = mu / (1 - mu)
    assert set(got) == {idx for idx, p in exact.items() if p > 0}
    for idx, p in got.items():
        assert abs(Fraction(p) - exact[idx]) <= gamma * exact[idx]


def test_pruning_keeps_only_live_prefixes():
    # two live strings out of 2**20 (mixture) and 2**21 (HMM)
    for path in ("stay_swap_mixture.json", "stay_swap_hmm.json"):
        law = model_law(load_model(MODELS / path), 20)
        assert law.ranks.size == 2


def test_from_ranks_drops_zeros():
    ab = Alphabet.of(["a", "b"])
    law = FiniteLaw.from_ranks(ab, 4, np.array([1, 4, 6]), np.array([0.5, 0.0, 0.5]))
    assert list(law.nonzero().items()) == [((0, 0, 0, 1), 0.5), ((0, 1, 1, 0), 0.5)]
    assert law.ranks.tolist() == [1, 6] and law.probs.tolist() == [0.5, 0.5]
    most = FiniteLaw.from_ranks(ab, 2, np.array([0, 2, 3]), np.array([0.25, 0.5, 0.25]))
    assert most.to_flat().tolist() == [0.25, 0.0, 0.5, 0.25]
    assert not most.ranks.flags.writeable and not most.probs.flags.writeable
    full = np.full(4, 0.25)
    assert_same_law(FiniteLaw.from_ranks(ab, 2, None, full), FiniteLaw.from_flat(ab, 2, full))
    assert_same_law(FiniteLaw.from_ranks(ab, 2, None, full),
                    oracles.reference_from_flat(ab, 2, full))


def test_model_law_dispatches_on_the_model_type():
    ab = Alphabet.of(["a", "b"])
    m = IIDMixtureModel(ab, Distribution([1.0]), (Distribution([0.5, 0.5]),))
    assert_same_law(model_law(m, 2), iid_mixture_law(m, 2))
    assert set(model_core.LAWS) == {IIDMixtureModel, MarkovMixtureModel, HMMModel,
                                    PartitionedKernelMixture}
    with pytest.raises(ModelFormatError, match="no law operation for StochasticMatrix"):
        model_law(StochasticMatrix(np.eye(2)), 2)


def test_sparse_compare_memory_follows_live_strings(capsys):
    # the full forward table of stay_swap_hmm at horizon 20 is 3 x 2**21 floats (150 MB)
    argv = ["compare", str(MODELS / "stay_swap_mixture.json"),
            str(MODELS / "stay_swap_hmm.json"), "--horizon", "20"]
    tracemalloc.start()
    try:
        status = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert capsys.readouterr().out == "tv 0\nmax_gap 0\n"
    assert peak < 16 * 2 ** 20


def test_budget_counts_live_entries(capsys):
    # 2 of the 2**31 strings are live; the parent refused the table of 6,442,450,944 entries
    assert main(["law", str(MODELS / "stay_swap_hmm.json"), "--horizon", "30"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in out] == [["a", "a", "a"], ["a", "b", "a"]]
    # each component has one live prefix, extended to 2 entries; the first
    # component's term (1 entry) is held while the second extends
    m = load_model(MODELS / "stay_swap_mixture.json")
    assert markov_mixture_law(m, 30, budget=3).ranks.size == 2
    with pytest.raises(EnumerationBudgetError, match="needs 3 entries at length 2"):
        markov_mixture_law(m, 30, budget=2)


def wide_iid_mixture(k=3000):
    ab = Alphabet.of([f"s{i}" for i in range(k)])
    return IIDMixtureModel(ab, Distribution([0.5, 0.5]), (Distribution(np.full(k, 1 / k)),) * 2)


@pytest.mark.parametrize("model", ["noisy_hmm.json", "separated_mixture.json", "wide_iid"])
def test_refused_dense_law_stays_within_the_budget(model):
    # every string is live: the table at horizon 40 has 2**41 (hmm) or 2**40 strings;
    # a step holds at most ``budget`` ranks and values besides the frontier it extends.
    # The wide i.i.d. mixture is refused at its second symbol (3000**2 entries): nothing
    # the size of a K x K chain may be built before that
    budget = 2 ** 18
    m, N = (wide_iid_mixture(), 1) if model == "wide_iid" else (load_model(MODELS / model), 40)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError, match="exceeding the budget of 262144"):
            model_law(m, N, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * budget


def law_or_refusal(law, m, N, budget):
    try:
        return law(m, N, budget)
    except EnumerationBudgetError as exc:
        return str(exc)


@given(st.sampled_from(sorted(LAW_BODIES)), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_budget_refusals_equal_the_in_loop_checks(kind, k, h, N, seed):
    # the budget is checked up front from the supports; its refusals and messages
    # must be the ones the checks inside the enumeration give, near the budget
    r = np.random.default_rng(seed)
    m = random_mixture(kind, r, k, h)
    lo, hi = 0, h * k ** (N + 1)            # hi is enough for any step
    while hi - lo > 1:                      # the least budget the in-loop checks accept
        mid = (lo + hi) // 2
        refused = isinstance(law_or_refusal(oracles.reference_in_loop_budget_law, m, N, mid), str)
        lo, hi = (mid, hi) if refused else (lo, mid)
    for budget in (hi - 1, hi, int(r.integers(1, hi + 1))):
        got = law_or_refusal(LAW_BODIES[kind][0], m, N, budget)
        want = law_or_refusal(oracles.reference_in_loop_budget_law, m, N, budget)
        assert type(got) is type(want) and got == want


def test_refused_mixture_law_does_no_work():
    # the two_cell horizon-12 law needs 20,971,520 entries at length 11 against the
    # default budget; the refusal comes before any frontier is built
    m = load_model(MODELS / "two_cell_partitioned.json")
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError, match="needs 20971520 entries at length 11"):
            partitioned_mixture_law(m, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
