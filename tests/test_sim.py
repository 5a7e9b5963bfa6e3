import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import SYMBOLS, random_hmm, random_iid_mixture, random_markov_mixture, rng
from oracles import reference_joint_paths, reference_sample
from chainmix import fixtures, sim, stopping_verifier
from chainmix.errors import InvalidModelError
from chainmix.exact_law import total_variation
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
    validate_model,
)
from chainmix.sim import RandomSource, Trajectory, empirical_law, sample, sample_many
from chainmix.stopping_verifier import JointChain, _sample_joint_paths


def one_state_emitter():
    return HMMModel(("s",), Alphabet.of(["a"]), Distribution(np.array([1.0])),
                    StochasticMatrix(np.eye(1), ("s",)), np.array([[1.0]]))


def two_cycle_hmm():
    hidden = ("s0", "s1")
    return HMMModel(hidden, Alphabet.of(["a", "b"]), Distribution(np.array([1.0, 0.0])),
                    StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), hidden),
                    np.eye(2))


def fair_coin():
    return IIDMixtureModel(Alphabet.of(["a", "b"]), Distribution(np.array([1.0])),
                           (Distribution(np.array([0.5, 0.5])),))


def test_deterministic_single_state():
    t = sample(one_state_emitter(), 5, RandomSource(0))
    assert t.symbols == ("a",) * 5


def test_same_seed_identical_trajectories():
    m = random_markov_mixture(rng(0))
    a = sample(m, 50, RandomSource(123, 4))
    b = sample(m, 50, RandomSource(123, 4))
    assert a.symbols == b.symbols
    c = sample(m, 50, RandomSource(123, 5))
    assert a.symbols != c.symbols


def test_two_cycle_alternates():
    t = sample(two_cycle_hmm(), 8, RandomSource(9), trace_hidden=True)
    assert t.symbols == ("a", "b", "a", "b", "a", "b", "a", "b")
    assert t.hidden == ("s0", "s1") * 4


@given(st.integers(0, 2 ** 63 - 1), st.integers(0, 2 ** 20))
@settings(max_examples=25, deadline=None)
def test_reproducibility_any_key(seed, stream):
    m = two_cycle_hmm()
    a = sample(m, 10, RandomSource(seed, stream))
    b = sample(m, 10, RandomSource(seed, stream))
    assert a.symbols == b.symbols


def test_invalid_model_rejected():
    bad = IIDMixtureModel(Alphabet.of(["a", "b"]), Distribution(np.array([1.0])),
                          (Distribution(np.array([0.5, 0.6])),))
    with pytest.raises(InvalidModelError):
        sample(bad, 3, RandomSource(0))


def test_trace_hidden_requires_hmm():
    with pytest.raises(ValueError, match="tracing requires an HMM"):
        sample(fair_coin(), 3, RandomSource(0), trace_hidden=True)


def test_component_fixed_per_trajectory():
    # stay/swap mixture: within one trajectory the realized matrix never changes,
    # so each trajectory is either constant-'a' or strictly alternating
    from chainmix.fixtures import two_component_mixture

    for t in sample_many(two_component_mixture(), 40, 50, RandomSource(3)):
        flips = sum(x != y for x, y in zip(t.symbols, t.symbols[1:]))
        assert flips in (0, len(t) - 1)


def test_empirical_law_single_trajectory():
    law = empirical_law([Trajectory(("a", "a"))], 2)
    assert law.prob(("a", "a")) == 1.0


def test_empirical_law_rejects_empty_and_short():
    with pytest.raises(ValueError):
        empirical_law([], 1)
    with pytest.raises(ValueError):
        empirical_law([Trajectory(("a",))], 2)


def test_coin_frequencies_within_tolerance():
    # binomial 3 sigma at 10^5 samples is ~0.0047; the stated budget is 0.01
    trajs = sample_many(fair_coin(), 2, 100_000, RandomSource(77))
    law = empirical_law(trajs, 1, fair_coin().alphabet)
    assert abs(law.prob(("a",)) - 0.5) < 0.01
    assert abs(law.prob(("b",)) - 0.5) < 0.01


def test_empirical_matches_exact_hmm_law():
    m = random_hmm(rng(11), n_hidden=3, n_symbols=2)
    samples = 100_000
    trajs = sample_many(m, 4, samples, RandomSource(5))
    emp = empirical_law(trajs, 4, m.alphabet)
    exact = hmm_law(m, 3)
    bound = 3.0 * np.sqrt(exact.table_size / samples)
    assert total_variation(emp, exact) <= bound


def test_empirical_tv_small_table_budget():
    # tables of <= 64 entries at 10^5 samples stay within TV 0.02
    m = random_markov_mixture(rng(12), n_symbols=2, n_components=2)
    trajs = sample_many(m, 7, 100_000, RandomSource(6))
    emp = empirical_law(trajs, 6, m.alphabet)
    from chainmix.model_core import markov_mixture_law
    from chainmix.exact_law import condition_on_first

    exact = markov_mixture_law(m, 5)
    assert exact.table_size <= 64
    assert total_variation(condition_on_first(emp, m.y0), exact) <= 0.02


def test_empirical_matches_partitioned_law():
    from chainmix.fixtures import two_cell_partitioned_mixture
    from chainmix.model_core import partitioned_mixture_law
    from chainmix.exact_law import condition_on_first

    m = two_cell_partitioned_mixture()
    samples = 40_000
    trajs = sample_many(m, 4, samples, RandomSource(13))
    emp = condition_on_first(empirical_law(trajs, 4, m.alphabet), m.y0)
    exact = partitioned_mixture_law(m, 3)
    assert total_variation(emp, exact) <= 3.0 * np.sqrt(exact.table_size / samples)


def test_stream_derivation_gives_distinct_draws():
    src = RandomSource(42)
    kids = {src.derive(i).stream for i in range(100)}
    assert len(kids) == 100
    a = src.derive(0).generator().random(4)
    b = src.derive(1).generator().random(4)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("seed, stream", [(5, -1), (-1, 0), (2 ** 64, 0), (0, 2 ** 64)])
def test_random_source_rejects_keys_outside_64_bits(seed, stream):
    # Philox keys are two uint64 words; reducing mod 2**64 would alias another key
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        RandomSource(seed, stream)
    RandomSource(2 ** 64 - 1, 2 ** 64 - 1).generator().random()


def test_derive_rejects_stream_reuse():
    src = RandomSource(5)
    assert src.derive(2 ** 20 - 1).stream == 2 ** 20
    assert RandomSource(5, 3).derive(7).stream == 3 * 2 ** 20 + 8
    with pytest.raises(ValueError):
        src.derive(2 ** 20)            # would be RandomSource(5, 1).derive(0)
    with pytest.raises(ValueError):
        src.derive(-1)                 # would be src's own stream
    deep = RandomSource(5, 2 ** 44 - 1)
    assert deep.derive(2 ** 20 - 2).stream == 2 ** 64 - 1
    with pytest.raises(ValueError):
        deep.derive(2 ** 20 - 1)       # child id 2**64 would wrap to stream 0


# ---------------------------------------------------------------------------
# Lockstep samplers against the one-at-a-time reference draw order

_REAL_GENERATOR = RandomSource.generator
EDGES = np.array([0.0, 0.25, 0.5, 0.75, 1 - 2 ** -53])


class EdgeGenerator:
    """Philox uniforms of the source, with those below 0.2 mapped to edge values:
    0, exact quarters (ties with running sums of quarters) and the largest
    double below 1 (reaches the clamp when a row sums to less than 1). The map
    acts on each draw alone, so split calls still equal one call."""

    def __init__(self, src):
        self._gen = _REAL_GENERATOR(src)

    def random(self, size=None):
        u = np.asarray(self._gen.random(size))
        k = (u * 25).astype(np.intp)
        out = np.where(k < EDGES.size, EDGES[np.minimum(k, EDGES.size - 1)], u)
        return out if size is not None else float(out)


def edge_draws(src):
    """Stands in for ``RandomSource.generator``."""
    return EdgeGenerator(src)


# LOCKSTEP_PER_COLUMN values that send every batch to the lockstep or the scalar path
PATHS = st.sampled_from([0, 10 ** 9])


@contextlib.contextmanager
def edge_draws_and_small_chunks(per_column):
    """Edge-valued uniforms, blocks and chunks small enough that the tests'
    counts and lengths cross their boundaries, and the walk path fixed by
    ``per_column``."""
    with mock.patch.object(RandomSource, "generator", edge_draws), \
            mock.patch.multiple(sim, STREAMS_PER_BLOCK=2, DRAWS_PER_CHUNK=3,
                                LOCKSTEP_PER_COLUMN=per_column), \
            mock.patch.object(stopping_verifier, "DRAWS_PER_CHUNK", 5):
        yield


@st.composite
def dists(draw, k, positive=False):
    """Distributions over k outcomes on a grid of quarters and fifths, with zeros."""
    w = np.array(draw(st.lists(st.integers(1 if positive else 0, 4), min_size=k, max_size=k)))
    assume(w.sum() > 0)
    return w / w.sum()


@st.composite
def models(draw, kinds=("iid", "markov", "partitioned", "hmm")):
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1, 4))
    alphabet = Alphabet.of(SYMBOLS[:k])
    h = draw(st.integers(1, 3))
    weights = Distribution(draw(dists(h, positive=True)))
    if kind == "iid":
        m = IIDMixtureModel(alphabet, weights, tuple(Distribution(draw(dists(k)))
                                                     for _ in range(h)))
    elif kind == "markov":
        comps = tuple(StochasticMatrix(np.array([draw(dists(k)) for _ in range(k)]),
                                       alphabet.emittable) for _ in range(h))
        m = MarkovMixtureModel(alphabet, draw(st.sampled_from(SYMBOLS[:k])), weights, comps)
    elif kind == "partitioned":
        cut = draw(st.integers(1, k))
        cells = (tuple(SYMBOLS[:cut]),) + ((tuple(SYMBOLS[cut:k]),) if cut < k else ())
        kernels = np.array([[draw(dists(k)) for _ in cells] for _ in range(h)])
        m = PartitionedKernelMixture(alphabet, Partition(cells), weights, kernels,
                                     draw(st.sampled_from(cells[0])))
    else:
        x = draw(st.integers(1, 3))
        hidden = tuple(f"s{i}" for i in range(x))
        m = HMMModel(hidden, alphabet, Distribution(draw(dists(x))),
                     StochasticMatrix(np.array([draw(dists(x)) for _ in range(x)]), hidden),
                     np.array([draw(dists(k)) for _ in range(x)]))
    assume(not validate_model(m))
    return m


@given(models(), st.integers(1, 7), st.integers(0, 5), st.integers(0, 2 ** 32),
       st.booleans(), PATHS)
@settings(max_examples=300, deadline=None)
@example(fixtures.two_state_noisy(), 1, 0, 7, True, 0)
@example(fixtures.two_cell_partitioned_mixture(), 2, 1, 7, False, 10 ** 9)
def test_lockstep_sampler_matches_reference(model, length, count, seed, trace, per_column):
    trace = trace and isinstance(model, HMMModel)
    src = RandomSource(seed, 3)
    with edge_draws_and_small_chunks(per_column):
        many = sample_many(model, length, count, src, trace)
        ref = [reference_sample(model, length, src.derive(i), trace) for i in range(count)]
        one = sample(model, length, src, trace)
        one_ref = reference_sample(model, length, src, trace)
    assert [(t.symbols, t.hidden, t.source) for t in many] == \
        [(s, h, src.derive(i)) for i, (s, h) in enumerate(ref)]
    assert (one.symbols, one.hidden, one.source) == (*one_ref, src)


@given(models(kinds=("hmm",)), st.integers(1, 6),
       st.integers(1, 12), st.integers(0, 2 ** 32), PATHS)
@settings(max_examples=100, deadline=None)
def test_lockstep_joint_paths_match_reference(model, length, count, seed, per_column):
    jc = JointChain.from_hmm(model)
    with edge_draws_and_small_chunks(per_column):
        got = _sample_joint_paths(jc, length, count, RandomSource(seed))
        ref = reference_joint_paths(jc, length, count, RandomSource(seed))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("per_column", [0, 10 ** 9])
def test_row_summing_below_one_clamps_to_last_symbol(per_column):
    # read-out rows, narrower than the rows of P, whose running sums end below 1
    f = np.tile(np.array([1, 4, 1]) / 6, (4, 1))
    hidden = ("s0", "s1", "s2", "s3")
    m = HMMModel(hidden, Alphabet.of(["a", "b", "c"]), Distribution(np.full(4, 0.25)),
                 StochasticMatrix(np.full((4, 4), 0.25), hidden), f)
    assert np.cumsum(f[0])[-1] == 1 - 2 ** -53
    with mock.patch.object(RandomSource, "generator", edge_draws), \
            mock.patch.object(sim, "LOCKSTEP_PER_COLUMN", per_column):
        t = sample(m, 400, RandomSource(4))
        assert (t.symbols, None) == reference_sample(m, 400, RandomSource(4))
        u = EdgeGenerator(RandomSource(4)).random(800)[1::2]    # the symbol draws
    assert (u == 1 - 2 ** -53).any()
    assert all(s == "c" for s, x in zip(t.symbols, u) if x == 1 - 2 ** -53)


@pytest.mark.parametrize("length, count, per_column", [
    (3, sim.STREAMS_PER_BLOCK + 5, sim.LOCKSTEP_PER_COLUMN),
    (20_000, 2, sim.LOCKSTEP_PER_COLUMN),      # few automata: the scalar path
    (20_000, 2, 0),
])
def test_lockstep_matches_reference_beyond_block_and_chunk(length, count, per_column):
    src = RandomSource(12)
    for m in (random_iid_mixture(rng(2)), random_markov_mixture(rng(3)), random_hmm(rng(4))):
        trace = isinstance(m, HMMModel)
        with mock.patch.object(sim, "LOCKSTEP_PER_COLUMN", per_column):
            got = sample_many(m, length, count, src, trace)
        for i, t in enumerate(got):
            assert (t.symbols, t.hidden) == reference_sample(m, length, src.derive(i), trace)
