"""The exact lemma engine against the per-instance references.

Every comparison is exact: floats with ``==`` and results through ``repr``,
which shows every digit, the float types, the labels and the order of checked
and skipped instances. The shared-prefix and batched propagations must round
exactly as the one-request, one-line, one-instance code that
``tests/oracles.py`` keeps.
Models are random small HMMs (1-3 hidden states, 1-3 symbols, with and without
zero entries) and, where a joint law suffices, their corrupted joints; a fixed
4-symbol HMM reaches the default symbol sets past 3 symbols.

The Monte Carlo checks count sampled paths over the exact mode's instance
tables: their label sets equal the exact ones, and every instance the
hand-written families of ``reference_lemmas_mc`` also check has the same lhs
and rhs, bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import assert_same_text
from chainmix import fixtures
from chainmix.errors import TruncationError
from chainmix.model_core import Alphabet, Distribution, HMMModel, StochasticMatrix
from chainmix.stopping_verifier import (
    HittingTimeSpec,
    JointChain,
    _MassRequests,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_splitting,
    check_strong_splitting,
    corrupted_previous_symbol_joint,
)
from chainmix.sim import RandomSource

SYMBOLS = ["a", "b", "c", "d"]     # random models take the first 1-3


def _rows(r, n, k, zeros):
    """``n`` random distributions over ``k`` outcomes; with ``zeros``, about a
    third of the entries are zero (never a whole row)."""
    rows = r.dirichlet(np.ones(k), size=n)
    if zeros:
        kill = r.random((n, k)) < 0.35
        kill[np.arange(n), r.integers(0, k, n)] = False
        rows = np.where(kill, 0.0, rows)
        rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _hmm(seed, X, K, zeros):
    r = np.random.default_rng(seed)
    hidden = tuple(f"s{i}" for i in range(X))
    return HMMModel(hidden, Alphabet.of(SYMBOLS[:K]), Distribution(_rows(r, 1, X, zeros)[0]),
                    StochasticMatrix(_rows(r, X, X, zeros), hidden), _rows(r, X, K, zeros))


def _spec(r, m, occurrences):
    """A random target of one or two (hidden or *, symbol or *) pairs."""
    targets = set()
    for _ in range(int(r.integers(1, 3))):
        hx = r.choice(["*", *m.hidden_states])
        hy = r.choice(["*", *m.alphabet.emittable])
        targets.add((str(hx), str(hy)))
    return HittingTimeSpec(frozenset(targets), occurrences)


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (TruncationError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


models = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3),
                   st.booleans())


@given(models, st.booleans(), st.integers(1, 3), st.integers(1, 10), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_occurrence_masses_equal_reference(model, corrupt, N, horizon, count):
    seed, X, K, zeros = model
    m = _hmm(seed, X, K, zeros)
    jc = corrupted_previous_symbol_joint(m) if corrupt else JointChain.from_hmm(m)
    r = np.random.default_rng(seed + 1)
    P = jc.n_pairs

    def mask():
        return None if r.random() < 0.4 else (r.random(P) < 0.6).astype(float)

    A = (r.random(P) < 0.5).astype(float)
    A[r.integers(0, P)] = 1.0
    requests = _MassRequests(P)

    def slots(masks):
        return tuple(0 if x is None else requests.slot(x) for x in masks)

    asked = []
    for _ in range(count):
        occ = [mask() for _ in range(N)]
        shifted = [None] * N
        if r.random() < 0.6:
            shifted = [mask() for _ in range(N - 1)] + [(r.random(P) < 0.6).astype(float)]
        row = requests.add(slots(occ), None if shifted[-1] is None else slots(shifted))
        asked.append((row, occ, shifted))
    mass, residual = requests.evaluate(jc, A, horizon)
    for row, occ, shifted in asked:
        want = oracles.reference_occurrence_mass(jc, A, occ, shifted, horizon)
        assert (mass[row], residual[row]) == want


def test_a_shared_prefix_is_advanced_once(monkeypatch):
    # 300 rows that differ only in their last shifted mask make the contract calls of one
    from chainmix import stopping_verifier

    jc = JointChain.from_hmm(fixtures.iid_rows_three_state())
    A = jc.mask(symbols=0)
    masks = [np.array([(i >> p) & 1 for p in range(jc.n_pairs)], dtype=float)
             for i in range(1, 301)]
    calls = []

    def counted(*args):
        calls.append(None)
        return contract(*args)

    contract = stopping_verifier.contract
    monkeypatch.setattr(stopping_verifier, "contract", counted)
    seen = {}
    for count in (1, 300):
        requests = _MassRequests(jc.n_pairs)
        for mask in masks[:count]:
            requests.add((0, 0, 0), (0, 0, requests.slot(mask)))
        calls.clear()
        mass = requests.evaluate(jc, A, 16)[0][0]
        seen[count] = len(calls), mass
    assert seen[1] == seen[300] and seen[1][0] > 0


def _chosen(n):
    """A coordinate constraint over ``n`` values: None, an index, a tuple or a set."""
    indices = st.lists(st.integers(0, n - 1), max_size=n)
    return st.one_of(st.none(), st.integers(0, n - 1), indices.map(tuple), indices.map(set))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_joint_mask_equals_reference(X, K, data):
    hidden = tuple(f"s{i}" for i in range(X))
    alphabet = Alphabet.of([f"y{e}" for e in range(K)])
    jc = JointChain(hidden, alphabet, np.full(X * K, 1.0 / (X * K)),
                    np.full((X * K, X * K), 1.0 / (X * K)))
    h, s = data.draw(_chosen(X)), data.draw(_chosen(K))
    got, want = jc.mask(hidden=h, symbols=s), oracles.reference_joint_mask(jc, h, s)
    assert got.tobytes() == want.tobytes()      # the same 0.0 and 1.0, bit for bit


def _draw_symbol_sets(r, K):
    """None (the default sets) or one to three random nonempty symbol sets, possibly
    repeated; with the repeats dropped, in first-occurrence order, for the reference."""
    if r.random() < 0.5:
        return None, None
    sets = [tuple(int(e) for e in np.flatnonzero(r.random(K) < 0.6)) or (0,)
            for _ in range(int(r.integers(1, 4)))]
    return sets, list(dict.fromkeys(sets))


FIXED_JOINTS = {"splitting_negative_control": fixtures.splitting_negative_control,
                "two_state_cycle": fixtures.two_state_cycle,
                # 4 symbols: the default sets are the singletons and the full set
                "four_symbols": lambda: _hmm(11, 2, 4, True)}


@given(st.one_of(models, st.sampled_from(sorted(FIXED_JOINTS))), st.booleans(),
       st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
@example("four_symbols", False, 3, 2)      # draw seed 2: the default symbol sets
@settings(max_examples=120, deadline=None)
def test_splitting_equals_reference(model, corrupt, N, draw_seed):
    # the level-by-level batch against the depth-first recursion: same floats,
    # labels and order of checked and skipped instances
    if isinstance(model, str):
        target = FIXED_JOINTS[model]()
    else:
        seed, X, K, zeros = model
        if N == 4:
            X, K = min(X, 2), min(K, 2)     # keeps the 4-step trail tree small
        m = _hmm(seed, X, K, zeros)
        target = corrupted_previous_symbol_joint(m) if corrupt else m
    symbol_sets, once = _draw_symbol_sets(np.random.default_rng(draw_seed), target.alphabet.size)
    assert_same_text(_outcome(check_splitting, target, N, symbol_sets=symbol_sets),
                     _outcome(oracles.reference_splitting, target, N, symbol_sets=once))


@pytest.mark.parametrize("name", sorted(FIXED_JOINTS))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_strong_splitting_of_fixed_joints_equals_reference(name, k):
    target, spec = FIXED_JOINTS[name](), HittingTimeSpec.for_symbol("a")
    assert_same_text(_outcome(check_strong_splitting, target, spec, k, horizon=8, floor=0.0),
                     _outcome(oracles.reference_strong_splitting, target, spec, k, horizon=8,
                              floor=0.0))


@given(models, st.booleans(), st.integers(0, 2), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_strong_splitting_equals_reference(model, corrupt, k, horizon, draw_seed):
    seed, X, K, zeros = model
    m = _hmm(seed, X, K, zeros)
    target = corrupted_previous_symbol_joint(m) if corrupt else m
    r = np.random.default_rng(draw_seed)
    spec = _spec(r, m, 1)
    n_values = None
    if r.random() < 0.5:
        n_values = [int(n) for n in r.integers(1, horizon + 1, int(r.integers(0, 4)))]
    symbol_sets, once = _draw_symbol_sets(r, K)
    kwargs = dict(horizon=horizon, n_values=n_values, floor=0.0)
    assert_same_text(
        _outcome(check_strong_splitting, target, spec, k, symbol_sets=symbol_sets, **kwargs),
        _outcome(oracles.reference_strong_splitting, target, spec, k, symbol_sets=once, **kwargs))


@given(models, st.integers(1, 3), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_hitting_time_lemmas_equal_reference(model, N, horizon, draw_seed):
    seed, X, K, zeros = model
    if N == 3:
        X, K = min(X, 2), min(K, 2)     # keeps the N-fold product family small
    m = _hmm(seed, X, K, zeros)
    spec = _spec(np.random.default_rng(draw_seed), m, N)
    assert_same_text(_outcome(check_hitting_time_lemmas, m, spec, N, horizon, floor=0.0),
                     _outcome(oracles.reference_hitting_time_lemmas, m, spec, N, horizon,
                              floor=0.0))


READOUT = "readout_at_stopping_time"


def _labels(skipped, pattern):
    return {re.sub(pattern, "", s) for s in skipped}


def _mc_against_reference(m, spec, samples, seed, horizon) -> int:
    """Compare one MC run with the reference families and the exact label sets;
    returns how many instances both MC versions check."""
    got = check_lemmas_mc(m, spec, samples, RandomSource(seed), horizon, floor=0.0)
    ref = oracles.reference_lemmas_mc(m, spec, samples, RandomSource(seed), horizon, floor=0.0)
    exact = check_hitting_time_lemmas(m, spec, spec.occurrences, horizon, floor=0.0)
    shared = 0
    for g, r, e in zip(got, ref, exact, strict=True):
        assert g.lemma == r.lemma == e.lemma
        checked = {c.label: repr((c.lhs, c.rhs)) for c in g.checked}
        skipped = _labels(g.skipped, r" \(den counts [\d/]+\)$")
        assert checked.keys() | skipped == {c.label for c in e.checked} | set(e.skipped)
        for c in r.checked:
            if c.label in checked:
                assert checked[c.label] == repr((c.lhs, c.rhs)), c.label
                shared += 1
        if g.lemma != READOUT:       # the reference reads out single symbols, not sets
            assert {c.label for c in r.checked} == checked.keys()
            assert _labels(r.skipped, r" \((den counts? [\d/]+|a factor's den count is 0)\)$") \
                == skipped
    return shared


TWO_SYMBOLS = HittingTimeSpec(frozenset({("*", "a"), ("*", "b")}), occurrences=2)


@pytest.mark.parametrize("model, spec, samples, seed, horizon", [
    # the golden MC digest cases
    ("iid_rows_three_state", TWO_SYMBOLS, 20_000, 3, 12),
    ("iid_rows_three_state", TWO_SYMBOLS, 20_000, 4, 12),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 2), 20_000, 5, 12),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 3), 20_000, 6, 12),
    # the benchmark's MC command
    ("iid_rows_three_state", HittingTimeSpec.for_symbol("a", 2), 100_000, 19, 8),
])
def test_mc_counts_the_exact_tables(model, spec, samples, seed, horizon):
    assert _mc_against_reference(getattr(fixtures, model)(), spec, samples, seed, horizon) > 0


@given(models, st.integers(1, 2), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_mc_on_random_models_counts_the_exact_tables(model, N, horizon, draw_seed):
    seed, X, K, zeros = model
    m = _hmm(seed, X, K, zeros)
    _mc_against_reference(m, _spec(np.random.default_rng(draw_seed), m, N), 10_000,
                          draw_seed, horizon)
