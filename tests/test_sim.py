import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import SYMBOLS, random_hmm, random_iid_mixture, random_markov_mixture, rng
from oracles import reference_joint_paths, reference_sample, reference_walk
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


@pytest.mark.parametrize("labels, index, codes, after", [
    ("bab", {}, [1, 0, 1], ["a", "b"]),                    # a str is read as its characters
    (["b", "a", "b"], {"z": 0}, [2, 1, 2], ["z", "a", "b"]),
    (["bb", "a", "bb"], {"c": 0}, [2, 1, 2], ["c", "a", "bb"]),
    (["ab", ""], {}, [1, 0], ["", "ab"]),                  # as many characters as labels
    ((3, 1, 3), {}, [1, 0, 1], [1, 3]),                    # not str: the dict path
    ([], {"a": 0}, [], ["a"]),
    ("", {}, [], []),
])
def test_encode_adds_new_labels_in_sorted_order(labels, index, codes, after):
    got = sim.encode(labels, index)
    assert (got.tolist(), list(index), got.dtype) == (codes, after, np.uint8)


@given(st.integers(-2, 1).map(lambda d: sim._DICT_BELOW + d) | st.integers(0, 6),
       st.lists(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12, unique=True),
       st.sampled_from([0, 3, 253, 254, 255, 256]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_encode_by_dict_equals_encode_by_code_point(length, pool, filler, as_str, data):
    # each side of the cut-off, either path gives the same codes, dtype and map, from
    # a map that may already hold some of the labels and may be near a dtype's end
    labels = data.draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    held = data.draw(st.lists(st.sampled_from(pool), unique=True))
    start = {s: i for i, s in enumerate([*held, *(f"m{i}" for i in range(filler))])}
    outcomes = []
    for encoder in (sim.encode, sim._lookup, sim._by_code_point):
        index = dict(start)
        codes = encoder("".join(labels) if as_str or encoder is sim._by_code_point
                        else labels, index)
        outcomes.append((codes.tolist(), codes.dtype, list(index.items())))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_a_misaligned_hidden_trace_is_refused():
    with pytest.raises(ValueError, match="hidden trace must align"):
        Trajectory(("a", "b"), ("s",))


def test_codes_take_the_smallest_unsigned_dtype():
    assert Trajectory([str(i) for i in range(256)]).codes.dtype == np.uint8
    assert Trajectory([str(i) for i in range(257)]).codes.dtype == np.uint16
    t = Trajectory(("b", "a", "b"), ("t", "s", "t"), RandomSource(3))
    assert (t.codes.tolist(), t.labels, t.hidden_codes.tolist(), t.hidden_labels) == (
        [1, 0, 1], ("a", "b"), [1, 0, 1], ("s", "t"))    # new labels enter sorted
    assert (t.symbols, t.hidden, t.observed()) == (("b", "a", "b"), ("t", "s", "t"), ("a", "b"))
    assert t == Trajectory(["b", "a", "b"], ["t", "s", "t"], RandomSource(3)) != Trajectory("bab")
    trajs = sample_many(two_cycle_hmm(), 7, 3, RandomSource(1), trace_hidden=True)
    assert all(t.codes.dtype == t.hidden_codes.dtype == np.uint8 for t in trajs)
    assert all(t.codes.base is trajs[0].codes.base for t in trajs)   # one array per block


# ---------------------------------------------------------------------------
# The table walk against the former walk and the one-at-a-time reference draw order

_REAL_GENERATOR = RandomSource.generator
EDGES = np.array([0.0, 0.25, 0.5, 0.75, 1 - 2 ** -53])


class EdgeGenerator:
    """Philox uniforms of the source, with those below 0.2 mapped to edge values:
    0, exact quarters (ties with running sums of quarters) and the largest
    double below 1 (reaches the clamp when a row sums to less than 1). The map
    acts on each draw alone, so split calls still equal one call."""

    def __init__(self, src):
        self._gen = _REAL_GENERATOR(src)

    def random(self, size=None, out=None):
        u = np.asarray(self._gen.random(size, out=out))
        k = (u * 25).astype(np.intp)
        edged = np.where(k < EDGES.size, EDGES[np.minimum(k, EDGES.size - 1)], u)
        if out is not None:
            out[...] = edged
            return out
        return edged if size is not None else float(edged)


def edge_draws(src):
    """Stands in for ``RandomSource.generator``."""
    return EdgeGenerator(src)


# patches of sim that force each driver of the table walk: vector gathers,
# Python lists, and no table (a budget below the one-step table)
DRIVERS = [{"_LISTS_BELOW": 0}, {"_LISTS_BELOW": 10 ** 9}, {"_TABLE_ENTRIES": 0}]
PATHS = st.sampled_from(DRIVERS)


@contextlib.contextmanager
def edge_draws_and_small_chunks(driver):
    """Edge-valued uniforms, blocks and chunks small enough that the tests'
    counts and lengths cross their boundaries, and the walk driver fixed by
    ``driver``."""
    with mock.patch.object(RandomSource, "generator", edge_draws), \
            mock.patch.multiple(sim, STREAMS_PER_BLOCK=2, DRAWS_PER_CHUNK=3, **driver), \
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
@example(fixtures.two_state_noisy(), 1, 0, 7, True, DRIVERS[0])
@example(fixtures.two_cell_partitioned_mixture(), 2, 1, 7, False, DRIVERS[1])
def test_lockstep_sampler_matches_reference(model, length, count, seed, trace, driver):
    trace = trace and isinstance(model, HMMModel)
    src = RandomSource(seed, 3)
    with edge_draws_and_small_chunks(driver):
        if count:
            many = sample_many(model, length, count, src, trace)
        else:
            with pytest.raises(ValueError, match="count must be >= 1"):
                sample_many(model, length, count, src, trace)
            many = []
        ref = [reference_sample(model, length, src.derive(i), trace) for i in range(count)]
        one = sample(model, length, src, trace)
        one_ref = reference_sample(model, length, src, trace)
    assert [(t.symbols, t.hidden, t.source) for t in many] == \
        [(s, h, src.derive(i)) for i, (s, h) in enumerate(ref)]
    assert (one.symbols, one.hidden, one.source) == (*one_ref, src)


@given(models(kinds=("hmm",)), st.integers(1, 6),
       st.integers(1, 12), st.integers(0, 2 ** 32), PATHS)
@settings(max_examples=100, deadline=None)
def test_lockstep_joint_paths_match_reference(model, length, count, seed, driver):
    jc = JointChain.from_hmm(model)
    with edge_draws_and_small_chunks(driver):
        got = _sample_joint_paths(jc, length, count, RandomSource(seed))
        ref = reference_joint_paths(jc, length, count, RandomSource(seed))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("lists_below", [0, 10 ** 9])     # vector gathers, Python lists
def test_row_summing_below_one_clamps_to_last_symbol(lists_below):
    # read-out rows, narrower than the rows of P, whose running sums end below 1
    f = np.tile(np.array([1, 4, 1]) / 6, (4, 1))
    hidden = ("s0", "s1", "s2", "s3")
    m = HMMModel(hidden, Alphabet.of(["a", "b", "c"]), Distribution(np.full(4, 0.25)),
                 StochasticMatrix(np.full((4, 4), 0.25), hidden), f)
    assert np.cumsum(f[0])[-1] == 1 - 2 ** -53
    with mock.patch.object(RandomSource, "generator", edge_draws), \
            mock.patch.object(sim, "_LISTS_BELOW", lists_below):
        t = sample(m, 400, RandomSource(4))
        assert (t.symbols, None) == reference_sample(m, 400, RandomSource(4))
        u = EdgeGenerator(RandomSource(4)).random(800)[1::2]    # the symbol draws
    assert (u == 1 - 2 ** -53).any()
    assert all(s == "c" for s, x in zip(t.symbols, u) if x == 1 - 2 ** -53)


# lists_below 16: the full block of 1,024 takes vector gathers, the last 5
# trajectories and the pairs Python lists; 0: vector gathers throughout
@pytest.mark.parametrize("length, count, lists_below", [
    (3, sim.STREAMS_PER_BLOCK + 5, 16),
    (20_000, 2, 16),
    (20_000, 2, 0),
])
def test_lockstep_matches_reference_beyond_block_and_chunk(length, count, lists_below):
    src = RandomSource(12)
    for m in (random_iid_mixture(rng(2)), random_markov_mixture(rng(3)), random_hmm(rng(4))):
        trace = isinstance(m, HMMModel)
        with mock.patch.object(sim, "_LISTS_BELOW", lists_below):
            got = sample_many(m, length, count, src, trace)
        for i, t in enumerate(got):
            assert (t.symbols, t.hidden) == reference_sample(m, length, src.derive(i), trace)


@st.composite
def automata(draw):
    """``(cum, nxt)`` of an automaton of 1 to 5 rows, 1 to 4 outcomes each: small
    integer weights with zeros and ``-0.0`` entries, normalized and some scaled to
    sum below 1, rows padded to the widest, and rows that never move (i.i.d.)
    beside rows that do."""
    rows, moves = [], []
    for _ in range(draw(st.integers(1, 5))):
        w = np.array(draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 4.0]),
                                   min_size=1, max_size=4)))
        assume(w.sum() > 0)
        rows.append(w / w.sum() * draw(st.sampled_from([1.0, 0.9, 1 - 2 ** -53])))
        moves.append(draw(st.booleans()))
    cum = sim.cdf_table(rows)
    R, W = cum.shape
    nxt = np.array([draw(st.lists(st.integers(0, R - 1), min_size=W, max_size=W))
                    if move else [r] * W for r, move in enumerate(moves)], dtype=np.intp)
    return cum, nxt


@given(automata(), st.integers(1, 6), st.lists(st.integers(0, 7), max_size=6),
       st.integers(0, 2 ** 32), st.sampled_from([0, 10 ** 9]),
       st.sampled_from([1 << 16, 64, 0]), st.sampled_from([1, 10 ** 9]))
@settings(max_examples=300, deadline=None)
def test_walk_matches_reference_walk(automaton, count, chunks, seed, lists_below, budget,
                                     draws):
    """Outcomes and final rows equal the former walk's, with uniforms on breakpoints,
    chunks shorter than a group of m draws, both table drivers, and budgets that
    shrink m or leave no room for the one-step table."""
    cum, nxt = automaton
    r = np.random.default_rng(seed)
    us = EdgeGenerator(RandomSource(seed)).random((count, sum(chunks)))
    breakpoints = np.unique(cum[np.isfinite(cum)])
    if breakpoints.size:
        on = r.random(us.shape) < 0.3
        us[on] = r.choice(breakpoints, on.sum())
    start = r.integers(0, len(cum), count)
    with mock.patch.multiple(sim, _LISTS_BELOW=lists_below, _TABLE_ENTRIES=budget):
        step = sim.walk(cum, nxt, count, draws)
    got, row, t = [], start, 0
    for n in chunks:
        out, row = step(row, us[:, t:t + n])
        got.append(out)
        t += n
    for per_column in (0, 10 ** 9):
        ref, ref_row = reference_walk(cum, nxt, start, us, per_column)
        assert np.array_equal(np.concatenate([ref.T[:, :0], *got], axis=1), ref.T)
        assert np.array_equal(row, ref_row)


@pytest.mark.parametrize("lists_below", [0, 10 ** 9])
def test_walk_buckets_a_long_breakpoint_list_by_searchsorted(lists_below):
    # rows of 200 outcomes: several hundred breakpoints, too many for one pass each
    r = np.random.default_rng(7)
    cum = sim.cdf_table(list(r.dirichlet(np.ones(200), 3)))
    nxt = r.integers(0, 3, cum.shape)
    assert np.unique(cum[np.isfinite(cum)]).size >= 160
    us = r.random((5, 103))
    us[:, ::3] = r.choice(cum[np.isfinite(cum)], (5, 35))
    start = r.integers(0, 3, 5)
    with mock.patch.object(sim, "_LISTS_BELOW", lists_below):
        out, row = sim.walk(cum, nxt, 5, 10 ** 9)(start, us)
    ref, ref_row = reference_walk(cum, nxt, start, us)
    assert np.array_equal(out, ref.T) and np.array_equal(row, ref_row)


def test_sampling_a_model_without_symbol_chains_is_a_type_error():
    m = StochasticMatrix(np.full((2, 2), 0.5), ("a", "b"))
    with pytest.raises(TypeError, match="StochasticMatrix is not a mixture of symbol chains"):
        sample(m, 5, RandomSource(0))
