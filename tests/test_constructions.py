import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import (
    move_transition,
    random_block_iid_hmm,
    random_class_mixture,
    random_hmm,
    random_iid_mixture,
    random_markov_mixture,
    random_partitioned,
    rng,
    split_hidden_state,
)
from chainmix import constructions
from chainmix.chain_analysis import decompose, is_recurrent
from chainmix.constructions import (
    geometric_i0_law,
    hmm_to_iid_mixture,
    hmm_to_markov_mixture_exact,
    iid_mixture_to_hmm,
    markov_mixture_to_hmm,
    partitioned_mixture_to_hmm,
    partitioned_product_states,
    point_i0_law,
    uniform_i0_law,
)
from chainmix.errors import (
    ConstructionError,
    NonRecurrentComponentError,
    StructureError,
    TransientStatesError,
)
from chainmix.exact_law import condition_on_first, laws_equal, marginalize_first, total_variation
from chainmix.fixtures import two_component_mixture, two_state_cycle
from chainmix.model_core import (
    Alphabet,
    Distribution,
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
from chainmix.model_io import model_to_dict


# ---------------------------------------------------------------------------
# iid_mixture_to_hmm


def test_single_component_becomes_one_state_emitter():
    m = random_iid_mixture(rng(0), n_components=1)
    h = iid_mixture_to_hmm(m)
    assert h.n_hidden == 1
    assert np.allclose(h.P.rows, np.eye(1))
    assert laws_equal(hmm_law(h, 3), iid_mixture_law(m, 3), 1e-12)


def test_two_component_identity_chain_law_equality():
    m = IIDMixtureModel(Alphabet.of(["a", "b"]), Distribution(np.array([0.3, 0.7])),
                        (Distribution(np.array([0.5, 0.5])),
                         Distribution(np.array([0.1, 0.9]))))
    h = iid_mixture_to_hmm(m)
    assert np.allclose(h.P.rows, np.eye(2))
    assert laws_equal(hmm_law(h, 4), iid_mixture_law(m, 4), 1e-12)


def test_identity_chain_is_recurrent():
    h = iid_mixture_to_hmm(random_iid_mixture(rng(1)))
    assert not decompose(h.P).transient


# ---------------------------------------------------------------------------
# markov_mixture_to_hmm


def test_singleton_mixture_is_chain_with_delta_readouts():
    m = random_markov_mixture(rng(2), n_components=1)
    h = markov_mixture_to_hmm(m)
    assert laws_equal(condition_on_first(hmm_law(h, 3), m.y0),
                      markov_mixture_law(m, 3), 1e-12)
    assert np.all((h.readout == 0) | (h.readout == 1))


def test_two_component_example_reproduced():
    h = markov_mixture_to_hmm(two_component_mixture(), prune=False)
    assert h.n_hidden == 4                      # |S| * |H| before pruning
    law = condition_on_first(hmm_law(h, 2), "a")
    assert law.prob(("a", "a")) == pytest.approx(0.5, abs=1e-15)
    assert law.prob(("b", "a")) == pytest.approx(0.5, abs=1e-15)


def test_output_chain_is_recurrent():
    for seed in range(3):
        m = random_markov_mixture(rng(40 + seed))
        h = markov_mixture_to_hmm(m)
        assert not decompose(h.P).transient


def test_state_count_before_pruning():
    m = random_markov_mixture(rng(3), n_symbols=3, n_components=2)
    assert markov_mixture_to_hmm(m, prune=False).n_hidden == 6


def test_non_recurrent_component_refused_with_index():
    alphabet = Alphabet.of(["a", "b"])
    leaky = StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]), alphabet.emittable)
    ok = StochasticMatrix(np.eye(2), alphabet.emittable)
    m = MarkovMixtureModel(alphabet, "a", Distribution(np.array([0.5, 0.5])), (ok, leaky))
    with pytest.raises(NonRecurrentComponentError) as err:
        markov_mixture_to_hmm(m)
    assert err.value.component == 1


# ---------------------------------------------------------------------------
# hmm_to_iid_mixture


def test_inverts_iid_construction_exactly():
    m = random_iid_mixture(rng(4), n_symbols=3, n_components=3)
    back = hmm_to_iid_mixture(iid_mixture_to_hmm(m))
    assert np.allclose(back.weights.weights, m.weights.weights, atol=1e-12)
    for got, want in zip(back.components, m.components):
        assert np.allclose(got.weights, want.weights, atol=1e-12)


def test_one_block_identical_rows_hand_example():
    hidden = ("c1", "c2")
    f = np.array([[0.6, 0.4], [0.1, 0.9]])
    m = HMMModel(hidden, Alphabet.of(["a", "b"]),
                 Distribution(np.array([0.2, 0.8])),
                 StochasticMatrix(np.tile([0.2, 0.8], (2, 1)), hidden), f)
    out = hmm_to_iid_mixture(m)
    assert out.n_components == 1
    assert np.allclose(out.components[0].weights, 0.2 * f[0] + 0.8 * f[1], atol=1e-14)
    assert laws_equal(iid_mixture_law(out, 3), hmm_law(m, 3), 1e-12)


def test_lumping_law_equality_under_hypothesis():
    for seed in range(5):
        m = random_block_iid_hmm(rng(50 + seed))
        out = hmm_to_iid_mixture(m)
        for n in (1, 3, 6):
            assert laws_equal(iid_mixture_law(out, n), hmm_law(m, n), 1e-12)


def test_lumping_agrees_with_cesaro_substitution():
    # replacing the chain by its Cesaro limit leaves classes, stationary
    # vectors and initial masses unchanged, so the lumped mixture is identical
    from chainmix.chain_analysis import cesaro_limit

    for seed in range(3):
        m = random_block_iid_hmm(rng(55 + seed))
        starred = HMMModel(m.hidden_states, m.alphabet, m.pi,
                           cesaro_limit(m.P), m.readout)
        a, b = hmm_to_iid_mixture(m), hmm_to_iid_mixture(starred)
        assert np.allclose(a.weights.weights, b.weights.weights, atol=1e-12)
        for ca, cb in zip(a.components, b.components):
            assert np.allclose(ca.weights, cb.weights, atol=1e-12)


def test_two_cycle_counterexample_not_exchangeable():
    # 'abab...' is not exchangeable: its lumping has another law, which is refused
    m = two_state_cycle()
    with pytest.raises(StructureError, match="lln_recover"):
        hmm_to_iid_mixture(m)


def test_exchangeable_output_without_identical_rows():
    # two hidden states with equal read-outs: the output is i.i.d. (hence
    # exchangeable) although the chain rows differ, and lumping preserves the law
    hidden = ("s0", "s1")
    f = np.array([[0.4, 0.6], [0.4, 0.6]])
    m = HMMModel(hidden, Alphabet.of(["a", "b"]),
                 Distribution(np.array([0.5, 0.5])),
                 StochasticMatrix(np.array([[0.3, 0.7], [0.6, 0.4]]), hidden), f)
    out = hmm_to_iid_mixture(m)
    for n in (1, 3, 5):
        assert laws_equal(iid_mixture_law(out, n), hmm_law(m, n), 1e-12)


def test_transient_chain_refused():
    hidden = ("s0", "s1")
    m = HMMModel(hidden, Alphabet.of(["a", "b"]),
                 Distribution(np.array([0.5, 0.5])),
                 StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]), hidden),
                 np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(TransientStatesError):
        hmm_to_iid_mixture(m)


def test_zero_mass_class_dropped_with_warning():
    hidden = ("s0", "s1")
    m = HMMModel(hidden, Alphabet.of(["a", "b"]),
                 Distribution(np.array([1.0, 0.0])),
                 StochasticMatrix(np.eye(2), hidden),
                 np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.warns(UserWarning, match="zero initial mass"):
        out = hmm_to_iid_mixture(m)
    assert out.n_components == 1
    assert validate_model(out) == []


# ---------------------------------------------------------------------------
# partitioned_mixture_to_hmm


def test_product_state_count():
    m = random_partitioned(rng(5), n_symbols=4, n_cells=3, n_components=2)
    assert len(partitioned_product_states(m)) == 2 * (3 + 1) ** 2


def test_partitioned_law_equality_and_i0_invariance():
    from chainmix.fixtures import two_cell_partitioned_mixture

    cases = [two_cell_partitioned_mixture()]
    cases += [random_partitioned(rng(60 + seed)) for seed in range(4)]
    for m in cases:
        want = partitioned_mixture_law(m, 4)
        laws = []
        for i0 in (point_i0_law(m), uniform_i0_law(m), geometric_i0_law(m)):
            h = partitioned_mixture_to_hmm(m, i0)
            assert validate_model(h) == []
            got = marginalize_first(hmm_law(h, 4))
            assert laws_equal(got, want, 1e-12)
            laws.append(got)
        assert laws_equal(laws[1], laws[2], 1e-12)


def test_default_i0_emits_start_symbol():
    m = random_partitioned(rng(6))
    h = partitioned_mixture_to_hmm(m)
    first = {s[0] for s, _ in hmm_law(h, 1).entries()}
    assert first == {m.y0}
    assert laws_equal(condition_on_first(hmm_law(h, 3), m.y0),
                      partitioned_mixture_law(m, 3), 1e-12)


def test_singleton_cells_single_component_is_plain_chain():
    r = rng(7)
    symbols = ["a", "b", "c"]
    from chainmix.model_core import Partition, PartitionedKernelMixture

    kernels = r.dirichlet(np.ones(3), size=(1, 3))
    m = PartitionedKernelMixture(Alphabet.of(symbols),
                                 Partition(tuple((s,) for s in symbols)),
                                 Distribution(np.array([1.0])), kernels, "a")
    mm = MarkovMixtureModel(Alphabet.of(symbols), "a", Distribution(np.array([1.0])),
                            (StochasticMatrix(kernels[0], tuple(symbols)),))
    h = partitioned_mixture_to_hmm(m)
    assert laws_equal(marginalize_first(hmm_law(h, 3)),
                      markov_mixture_law(mm, 3), 1e-12)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [-0.5, 1.0, 0.5]],
                         ids=["nan", "negative"])
def test_an_i0_law_that_is_no_distribution_is_refused(weights):
    from chainmix.fixtures import two_cell_partitioned_mixture

    with pytest.raises(ConstructionError, match="i0_law is not a distribution"):
        partitioned_mixture_to_hmm(two_cell_partitioned_mixture(),
                                   Distribution(np.array(weights)))


@pytest.mark.parametrize("weights, message", [
    ([0.5, 0.5], "i0_law must cover cell indices 0..2"),
    ([0.0, 0.0, 1.0], "component 0: i0_law puts no mass on states that can emit into cell 1"),
], ids=["size", "no way into cell 1"])
def test_an_i0_law_of_the_wrong_size_or_leading_nowhere_is_refused(weights, message):
    # each cell keeps to itself, so the states of cell 2 never emit into cell 1
    m = PartitionedKernelMixture(Alphabet.of(["a", "b"]), Partition((("a",), ("b",))),
                                 Distribution(np.array([1.0])),
                                 np.array([[[1.0, 0.0], [0.0, 1.0]]]), "a")
    with pytest.raises(ConstructionError, match=message):
        partitioned_mixture_to_hmm(m, Distribution(np.array(weights)))


def _sparse_partitioned(r, J):
    """A random partitioned mixture on ``J`` cells whose components reach a random set of
    cells from cell 1, with all-zero kernels on the cells they never reach and random
    zeros inside the rows they do; half the time every zero is -0.0."""
    m = random_partitioned(r, n_symbols=int(r.integers(J, 6)), n_cells=J,
                           n_components=int(r.integers(1, 4)))
    cell_of = m.cell_index_array
    kernels = np.zeros(m.kernels.shape)
    for h in range(m.n_components):
        reached = np.append(True, r.random(J - 1) < 0.6)       # cell 1 is always reached
        targets = np.flatnonzero(reached[cell_of - 1])
        for j in np.flatnonzero(reached):
            allowed = np.isin(np.arange(len(cell_of)), targets) & (r.random(len(cell_of)) < 0.7)
            allowed[r.choice(targets)] = True
            w = r.dirichlet(np.ones(len(cell_of))) * allowed
            kernels[h, j] = w / w.sum()
    if r.random() < 0.5:
        kernels[kernels == 0.0] = -0.0
    return PartitionedKernelMixture(m.alphabet, m.partition, m.weights, kernels, m.y0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from(["point", "uniform", "geometric", "random"]))
@settings(max_examples=200, deadline=None)
def test_partitioned_construction_equals_the_triple_loop(seed, J, law):
    # the array form against the loop over (component, previous cell, current cell)
    # triples: the same states, labels and floats, signed zeros included
    r = rng(seed)
    m = _sparse_partitioned(r, J)
    if law == "random":
        w = r.dirichlet(np.ones(J + 1)) * np.append(1.0, r.random(J) < 0.7)
        i0 = Distribution(w / w.sum())
    else:
        i0 = {"point": point_i0_law, "uniform": uniform_i0_law,
              "geometric": geometric_i0_law}[law](m)
    got = partitioned_mixture_to_hmm(m, i0)
    assert validate_model(got) == []
    want = oracles.reference_partitioned_to_hmm(m, i0)
    assert json.dumps(model_to_dict(got)) == json.dumps(model_to_dict(want))


# ---------------------------------------------------------------------------
# hmm_to_markov_mixture_exact


def test_round_trip_identity_up_to_order():
    m = two_component_mixture()
    back = hmm_to_markov_mixture_exact(markov_mixture_to_hmm(m))
    assert back.y0 == m.y0
    assert np.allclose(back.weights.weights, m.weights.weights, atol=1e-14)
    for got, want in zip(back.components, m.components):
        assert np.allclose(got.rows, want.rows, atol=1e-14)


def test_unpruned_image_drops_orphan_blocks_with_warning():
    # the stay-chain block of the unpruned image contains a zero-mass
    # self-loop state, which forms its own block and is dropped
    h = markov_mixture_to_hmm(two_component_mixture(), prune=False)
    with pytest.warns(UserWarning, match="zero initial mass"):
        back = hmm_to_markov_mixture_exact(h)
    assert back.n_components == 2


def test_round_trip_random_mixtures_law_level():
    for seed in range(4):
        m = random_markov_mixture(rng(70 + seed), n_symbols=3, n_components=2)
        back = hmm_to_markov_mixture_exact(markov_mixture_to_hmm(m))
        assert laws_equal(markov_mixture_law(back, 4), markov_mixture_law(m, 4), 1e-12)


def test_singleton_image_recovers_single_chain():
    m = random_markov_mixture(rng(8), n_components=1)
    back = hmm_to_markov_mixture_exact(markov_mixture_to_hmm(m, prune=False))
    assert back.n_components == 1
    assert np.allclose(back.components[0].rows, m.components[0].rows, atol=1e-14)


def test_identity_chain_iid_style_hmm_lacks_structure():
    m = iid_mixture_to_hmm(random_iid_mixture(rng(9), n_components=2))
    with pytest.raises(StructureError, match="lln_recover"):
        hmm_to_markov_mixture_exact(m)


# ---------------------------------------------------------------------------
# Randomized round trips (module-scale versions of the acceptance runs)


def test_round_trip_a_markov():
    for seed in range(6):
        m = random_markov_mixture(rng(80 + seed))
        h = markov_mixture_to_hmm(m)
        assert is_recurrent(h.P, [h.hidden_states[i]
                                  for i in np.flatnonzero(h.pi.weights > 0)])
        for n in (1, 4):
            assert laws_equal(condition_on_first(hmm_law(h, n), m.y0),
                              markov_mixture_law(m, n), 1e-12)


def test_round_trip_b_iid():
    for seed in range(6):
        m = random_iid_mixture(rng(90 + seed))
        h = iid_mixture_to_hmm(m)
        for n in (1, 4):
            assert laws_equal(hmm_law(h, n), iid_mixture_law(m, n), 1e-12)
        back = hmm_to_iid_mixture(h)
        assert np.allclose(back.weights.weights, m.weights.weights, atol=1e-12)


# ---------------------------------------------------------------------------
# The class construction and its certificate


def _uncertified(inverse, m):
    """What ``inverse`` builds from ``m`` before its certificate, as an HMM."""
    forward = {hmm_to_iid_mixture: iid_mixture_to_hmm,
               hmm_to_markov_mixture_exact: markov_mixture_to_hmm}[inverse]
    with mock.patch.object(constructions, "_certify", lambda *args: None):
        return forward(inverse(m))


def _two_symbol_image(r, mixture=random_markov_mixture, prune=True):
    m = mixture(r, n_symbols=2, n_components=int(r.integers(1, 4)))
    return markov_mixture_to_hmm(m, prune=prune)


def _with_class_construction(inverse, draw):
    """``draw``'s HMM paired with the HMM of ``inverse``'s uncertified output."""
    return lambda r: (lambda h: (h, _uncertified(inverse, h)))(draw(r))


def _moved(r):
    h = _two_symbol_image(r)
    return h, move_transition(h, r, 10.0 ** -r.choice([3, 6]))


# pairs of HMMs over one alphabet with at most 13 states together, at most 8 when K = 3;
# moves of 1e-9 can fall below the certificate's resolution, so none is drawn
CERTIFICATE_FAMILIES = {
    "random pair": lambda r: (random_hmm(r, int(r.integers(1, 4)), 3),
                              random_hmm(r, int(r.integers(1, 4)), 3)),
    "mixture image": _with_class_construction(hmm_to_markov_mixture_exact, lambda r: (
        _two_symbol_image(r, random_class_mixture, prune=bool(r.integers(0, 2))))),
    "moved transition": _moved,
    "block lumping": _with_class_construction(
        hmm_to_iid_mixture, lambda r: random_block_iid_hmm(r, 2, 3)),
    "random lumping": _with_class_construction(hmm_to_iid_mixture, lambda r: (
        random_hmm(r, int(r.integers(2, 5)), int(r.integers(2, 4))))),
    "split state": _with_class_construction(hmm_to_markov_mixture_exact, lambda r: (
        split_hidden_state(_two_symbol_image(r), r))),
    "random inverse": _with_class_construction(hmm_to_markov_mixture_exact, lambda r: (
        random_hmm(r, int(r.integers(2, 4)), int(r.integers(2, 4))))),
}


@given(st.sampled_from(sorted(CERTIFICATE_FAMILIES)), st.integers(0, 2**32 - 1))
@example("block lumping", 3026)     # nearly dependent read-outs: remainder 2.75e-7
@settings(max_examples=200, deadline=None)
def test_certificate_verdict_equals_brute_force(family, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # zero-mass classes of unpruned images
        a, b = CERTIFICATE_FAMILIES[family](rng(seed))
    N = a.n_hidden + b.n_hidden - 1         # strings of length X_a + X_b decide equality
    equal = total_variation(hmm_law(a, N), hmm_law(b, N)) <= 1e-12
    try:
        constructions._certify(a, b, "model")
        certified = True
    except StructureError as err:
        assert "use recovery.lln_recover" in str(err)
        certified = False
    assert certified == equal


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_class_construction_equals_the_product_inverse_on_images(seed, prune):
    h = markov_mixture_to_hmm(random_class_mixture(rng(seed)), prune=prune)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # zero-mass classes of unpruned images
        got, want = hmm_to_markov_mixture_exact(h), oracles.reference_product_inverse(h)
    assert model_to_dict(got) == model_to_dict(want)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_split_state_hmms_invert_where_the_product_inverse_refused(seed):
    r = rng(seed)
    h = split_hidden_state(markov_mixture_to_hmm(random_markov_mixture(r)), r)
    with pytest.raises(StructureError):
        oracles.reference_product_inverse(h)
    back = markov_mixture_to_hmm(hmm_to_markov_mixture_exact(h))
    assert total_variation(hmm_law(h, 5), hmm_law(back, 5)) <= 1e-12


def test_a_transient_state_counts_only_if_the_chain_reaches_it():
    # the unpruned image of a chain whose state b leads into a's class but is never
    # reached: b does not enter the law, and its symbol gets a self-loop row, where the
    # product inverse copied b's row
    alphabet = Alphabet.of(["a", "b"])
    m = MarkovMixtureModel(alphabet, "a", Distribution(np.array([1.0])), (
        StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), alphabet.emittable),))
    h = markov_mixture_to_hmm(m, prune=False)
    assert hmm_to_markov_mixture_exact(h).components[0].rows.tolist() == [[1, 0], [0, 1]]
    assert oracles.reference_product_inverse(h).components[0].rows.tolist() == [[1, 0], [1, 0]]
    assert hmm_to_iid_mixture(h).components[0].weights.tolist() == [1, 0]
    reached = HMMModel(h.hidden_states, alphabet, Distribution(np.array([0.5, 0.5])), h.P,
                       h.readout)
    for inverse in (hmm_to_iid_mixture, hmm_to_markov_mixture_exact):
        with pytest.raises(TransientStatesError, match="reaches a transient state"):
            inverse(reached)

