import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import rng
from chainmix.errors import (
    InsufficientDataError,
    InsufficientVisitsError,
    NoTestableRowsError,
    RowTooShortError,
)
from chainmix.fixtures import separated_recovery_mixture, three_cycle_aab
from chainmix.model_core import Alphabet, Distribution, MarkovMixtureModel
from chainmix.recovery import (
    lln_recover,
    lln_row_estimate,
    test_partial_exchangeability as partial_exchangeability_test,
    test_row_exchangeability as row_exchangeability_test,
)
from chainmix.sim import RandomSource, Trajectory, sample, sample_many
from chainmix.successors import SuccessorsArray, extract


# ---------------------------------------------------------------------------
# lln_row_estimate


def test_row_estimate_is_normalized_successors_histogram():
    t = Trajectory(tuple("abaabba"))
    est = lln_row_estimate(t, "a", Alphabet.of(["a", "b"]), min_count=1)
    row = extract(t, Alphabet.of(["a", "b"])).rows["a"]
    assert est.weights[0] == pytest.approx(row.count("a") / len(row))
    assert est.weights[1] == pytest.approx(row.count("b") / len(row))


def test_deterministic_alternation_gives_point_mass():
    t = Trajectory(tuple("ab" * 100))
    est = lln_row_estimate(t, "a", Alphabet.of(["a", "b"]))
    assert np.allclose(est.weights, [0.0, 1.0])


def test_minimum_visit_count_enforced():
    t = Trajectory(tuple("abab"))
    with pytest.raises(InsufficientVisitsError, match="minimum is 100"):
        lln_row_estimate(t, "a", Alphabet.of(["a", "b"]))


def test_single_component_estimate_close_to_truth():
    m = separated_recovery_mixture()
    single = MarkovMixtureModel(m.alphabet, m.y0, Distribution(np.array([1.0])),
                                m.components[:1])
    t = sample(single, 100_000, RandomSource(31))
    P = m.components[0].rows
    for y in m.alphabet.emittable:
        est = lln_row_estimate(t, y, m.alphabet)
        yi = m.alphabet.emit_index(y)
        assert 0.5 * np.abs(est.weights - P[yi]).sum() <= 0.02


# ---------------------------------------------------------------------------
# lln_recover


def test_single_component_one_cluster():
    m = separated_recovery_mixture()
    single = MarkovMixtureModel(m.alphabet, m.y0, Distribution(np.array([1.0])),
                                m.components[:1])
    trajs = sample_many(single, 3000, 20, RandomSource(32))
    rec = lln_recover(trajs, 0.1, alphabet=m.alphabet)
    assert len(rec.support) == 1
    assert rec.weights[0] == 1.0


def test_identical_components_collapse_to_one_cluster():
    m = separated_recovery_mixture()
    twin = MarkovMixtureModel(m.alphabet, m.y0, Distribution(np.array([0.5, 0.5])),
                              (m.components[0], m.components[0]))
    trajs = sample_many(twin, 3000, 20, RandomSource(33))
    rec = lln_recover(trajs, 0.1, alphabet=m.alphabet)
    assert len(rec.support) == 1


def test_separated_components_recovered():
    m = separated_recovery_mixture()
    trajs = sample_many(m, 4000, 60, RandomSource(34))
    rec = lln_recover(trajs, 0.1, alphabet=m.alphabet)
    assert len(rec.support) == 2
    assert abs(rec.weights[0] - 0.5) < 0.15
    truth = [c.rows for c in m.components]
    for comp in rec.support:
        best = min(0.5 * np.abs(comp.matrix - t).sum(axis=1).max() for t in truth)
        assert best <= 0.05


def test_recovery_transfers_to_constructed_hmm():
    # emitted symbols of the pair-construction carry the same law, so the
    # recovered support matches recovery from the mixture itself
    from chainmix.constructions import markov_mixture_to_hmm

    m = separated_recovery_mixture()
    h = markov_mixture_to_hmm(m)
    direct = lln_recover(sample_many(m, 3000, 40, RandomSource(90)),
                         0.1, alphabet=m.alphabet)
    via_hmm = lln_recover(sample_many(h, 3000, 40, RandomSource(91)),
                          0.1, alphabet=m.alphabet)
    assert len(direct.support) == len(via_hmm.support) == 2
    for a in via_hmm.support:
        best = min(0.5 * np.abs(a.matrix - b.matrix).sum(axis=1).max()
                   for b in direct.support)
        assert best <= 0.05


def test_recover_weights_sum_to_one():
    m = separated_recovery_mixture()
    trajs = sample_many(m, 2000, 12, RandomSource(35))
    rec = lln_recover(trajs, 0.1, alphabet=m.alphabet)
    assert rec.weights.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_symbol_outside_alphabet_is_a_value_error():
    ab = Alphabet.of(["a", "b"])
    for symbols in ("ababc", "abcab"):       # final and middle position
        t = Trajectory(tuple(symbols))
        with pytest.raises(ValueError, match="'c' is not in the given alphabet"):
            lln_row_estimate(t, "a", ab, min_count=1)
        with pytest.raises(ValueError, match="'c' is not in the given alphabet"):
            lln_recover([Trajectory(tuple("abab")), t], 0.1, alphabet=ab, min_count=1)


@pytest.mark.parametrize("min_count", [0, -3])
def test_min_count_below_one_rejected(min_count):
    t = Trajectory(tuple("aaaab"))
    with pytest.raises(ValueError, match="min_count must be >= 1"):
        lln_row_estimate(t, "b", Alphabet.of(["a", "b"]), min_count=min_count)
    with pytest.raises(ValueError, match="min_count must be >= 1"):
        lln_recover([t, Trajectory(tuple("aaaaa"))], 0.1, min_count=min_count)


def _random_trajectories(seed, k, count):
    """Trajectories of lengths 2-200 over ``k`` symbols, each i.i.d. from one of
    three random distributions, some with zero entries (so some rows stay empty)."""
    r = rng(seed)
    comps = []
    for _ in range(3):
        p = r.dirichlet(np.ones(k)) * (r.random(k) < 0.8)
        comps.append(p / p.sum() if p.sum() > 0 else np.eye(k)[r.integers(k)])
    return [Trajectory(tuple("abcdef"[c] for c in
                             r.choice(k, size=int(r.integers(2, 201)), p=comps[r.integers(3)])))
            for _ in range(count)]


def _assert_same_measure(got, want):
    assert got.alphabet == want.alphabet
    assert len(got.support) == len(want.support)
    for a, b in zip(got.support, want.support):
        assert np.array_equal(a.matrix, b.matrix, equal_nan=True)
        assert (a.observed, a.row_counts, a.members) == (b.observed, b.row_counts, b.members)
    assert np.array_equal(got.weights.weights, want.weights.weights)
    assert got.diagnostics.n_trajectories == want.diagnostics.n_trajectories
    assert got.diagnostics.min_count == want.diagnostics.min_count
    assert got.diagnostics.cluster_tol == want.diagnostics.cluster_tol
    assert np.array_equal(np.array(got.diagnostics.row_tv_stderr, dtype=float),
                          np.array(want.diagnostics.row_tv_stderr, dtype=float),
                          equal_nan=True)


@given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2 ** 32),
       st.integers(1, 12), st.floats(0.0, 1.0), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_lln_recover_matches_reference(k, count, seed, min_count, tol, tie, explicit):
    trajs = _random_trajectories(seed, k, count)
    alphabet = Alphabet.of("abcdef"[:k]) if explicit else None
    if tie:
        # a tolerance equal to one computed distance, so the merge rule's ``<=`` decides
        scan = alphabet or Alphabet.of(sorted({s for t in trajs for s in t.symbols}))
        d = oracles.reference_distance(*(oracles.reference_estimate(t, scan, min_count)
                                         for t in (trajs[0], trajs[-1])))
        tol = tol if d is None else d
    try:
        want = oracles.reference_lln_recover(trajs, tol, alphabet, min_count)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            lln_recover(trajs, tol, alphabet, min_count)
        return
    _assert_same_measure(lln_recover(trajs, tol, alphabet, min_count), want)


def test_merge_at_exactly_the_tolerance():
    # row a: (2/3, 1/3) against (0, 1), a distance that is no short binary fraction
    ta, tb = Trajectory(tuple("aaaba")), Trajectory(tuple("ababa"))
    ab = Alphabet.of(["a", "b"])
    d = oracles.reference_distance(oracles.reference_estimate(ta, ab, 1),
                                   oracles.reference_estimate(tb, ab, 1))
    assert d == pytest.approx(2 / 3)
    for tol, clusters in ((d, 1), (np.nextafter(d, -np.inf), 2)):
        got = lln_recover([ta, tb], tol, ab, min_count=1)
        assert len(got.support) == clusters
        _assert_same_measure(got, oracles.reference_lln_recover([ta, tb], tol, ab, 1))


# ---------------------------------------------------------------------------
# exchangeability tests


def test_constant_row_p_value_one():
    r = row_exchangeability_test(["a"] * 50, 200, RandomSource(1))
    assert r.p_value == 1.0
    assert not r.reject


def test_alternating_row_rejected():
    r = row_exchangeability_test(list("ab" * 500), 4999, RandomSource(2))
    assert r.statistic == 0
    assert r.p_value < 0.001
    assert r.reject


def test_short_row_rejected_as_input():
    with pytest.raises(RowTooShortError):
        row_exchangeability_test(list("ab"), 100, RandomSource(3))


def test_iid_rows_hold_level():
    rejections = 0
    runs = 60
    r = rng(44)
    for i in range(runs):
        row = list(r.choice(["a", "b", "c"], size=400, p=[0.5, 0.3, 0.2]))
        res = row_exchangeability_test(row, 400, RandomSource(500 + i), level=0.01)
        rejections += res.reject
    assert rejections / runs <= 0.02 + 1e-9    # level alpha + slack


def test_partial_exchangeability_accepts_markov_mixture():
    m = separated_recovery_mixture()
    t = sample(m, 10_000, RandomSource(36))
    report = partial_exchangeability_test(extract(t, m.alphabet), 0.01,
                                          RandomSource(37), permutations=500)
    assert not report.reject


def test_three_cycle_aab_rejected():
    t = sample(three_cycle_aab(), 2000, RandomSource(38))
    report = partial_exchangeability_test(extract(t), 0.01, RandomSource(39),
                                          permutations=4999)
    assert report.reject
    row_a = next(r for r in report.rows if r.row_key == "a")
    assert row_a.p_value < 0.001


def test_no_testable_rows_error():
    arr = SuccessorsArray({"a": ("b",), "b": ()}, 2)
    with pytest.raises(NoTestableRowsError):
        partial_exchangeability_test(arr, 0.01, RandomSource(40))
