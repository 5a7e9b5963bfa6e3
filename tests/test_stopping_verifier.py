from statistics import NormalDist

import numpy as np
import pytest

from chainmix.errors import EnumerationBudgetError, TruncationError
from chainmix.fixtures import (
    direct_sum_iid_blocks,
    iid_rows_three_state,
    iid_rows_two_state,
    lemma_battery,
    splitting_negative_control,
    three_cycle_aab,
    two_state_cycle,
    two_state_noisy,
)
from chainmix.model_core import Alphabet, Distribution, HMMModel, StochasticMatrix
from chainmix.sim import RandomSource, sample
from chainmix.stopping_verifier import (
    HittingTimeSpec,
    JointChain,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_splitting,
    check_strong_splitting,
    event_probability,
)


# ---------------------------------------------------------------------------
# event_probability (the enumeration oracle itself)


def test_event_always_true_is_one():
    p = event_probability(two_state_noisy(), 4, lambda xs, ys: True)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_event_first_symbol_mass():
    m = two_state_cycle()          # delta read-outs, pi = (1, 0)
    p = event_probability(m, 2, lambda xs, ys: ys[0] == "a")
    assert p == pytest.approx(1.0, abs=1e-15)
    m2 = two_state_noisy()
    p2 = event_probability(m2, 2, lambda xs, ys: ys[0] == "a")
    want = float(m2.pi.weights @ m2.readout[:, 0])
    assert p2 == pytest.approx(want, abs=1e-12)


def test_event_hitting_time_hand_value():
    # aab-cycle emits a a b a a b ...: first visit to 'b' is at t = 2 surely
    m = three_cycle_aab()

    def first_b_at_two(xs, ys):
        return ys[0] != "b" and ys[1] != "b" and ys[2] == "b"

    assert event_probability(m, 3, first_b_at_two) == pytest.approx(1.0, abs=1e-15)

    # noisy 2-state model: P(first 'a' at t=2) = 0.0833375, worked out by hand
    # as sum over x0 x1 x2 of pi f(b) P f(b) P f(a)
    def first_a_at_two(xs, ys):
        return ys[0] == "b" and ys[1] == "b" and ys[2] == "a"

    got = event_probability(two_state_noisy(), 2, first_a_at_two)
    assert got == pytest.approx(0.0833375, abs=1e-15)


def test_event_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        event_probability(two_state_noisy(), 12, lambda xs, ys: True, budget=1000)


# ---------------------------------------------------------------------------
# check_splitting


def test_splitting_passes_on_two_state_noisy():
    res = check_splitting(two_state_noisy(), 3)
    assert res.passed
    assert res.max_gap < 1e-12
    assert len(res.checked) > 0


def test_splitting_zero_mass_instances_skipped_not_failed():
    res = check_splitting(two_state_cycle(), 3)   # deterministic: most cond events empty
    assert res.passed
    assert len(res.skipped) > 0


def test_corrupted_joint_law_fails_splitting():
    res = check_splitting(splitting_negative_control(), 3)
    assert not res.passed
    assert res.max_gap > 1e-6


def test_splitting_budget_counts_trails_options_and_pairs():
    # the battery's largest step masks the 441 trails checked at n=3 by its 21 options
    # over 9 pairs: that budget runs as the default does, one less is refused
    m = iid_rows_three_state()
    res = check_splitting(m, 3)
    assert sum(c.label.startswith("n=3 ") for c in res.checked) == 441 * 21
    assert check_splitting(m, 3, budget=441 * 21 * 9) == res
    with pytest.raises(EnumerationBudgetError, match="n=3 needs 83349 entries"):
        check_splitting(m, 3, budget=441 * 21 * 9 - 1)


def test_splitting_lhs_matches_enumeration():
    # one conditional recomputed through the independent path oracle
    m = two_state_noisy()
    jc = JointChain.from_hmm(m)
    res = check_splitting(m, 2)
    inst = res.checked[0]
    # parse nothing: recompute the same instance directly. Instance 0 is
    # n=2, condition (x=s0, S={a}), target (x=s0, S={a}).
    num = event_probability(m, 2, lambda xs, ys: xs[1] == "s0" and ys[1] == "a"
                            and xs[2] == "s0" and ys[2] == "a")
    den = event_probability(m, 2, lambda xs, ys: xs[1] == "s0" and ys[1] == "a")
    assert inst.lhs == pytest.approx(num / den, abs=1e-12)


# ---------------------------------------------------------------------------
# check_strong_splitting


def test_strong_splitting_passes_irreducible():
    spec = HittingTimeSpec.for_symbol("a")
    res = check_strong_splitting(two_state_noisy(), spec, k=1, horizon=8)
    assert res.passed
    assert len(res.checked) > 100


def test_strong_splitting_lag_zero_degenerates():
    spec = HittingTimeSpec.for_symbol("a")
    res = check_strong_splitting(two_state_noisy(), spec, k=0, horizon=8)
    assert res.passed
    assert res.max_gap == 0.0


def test_strong_splitting_rare_target_truncation_error():
    hidden = ("s0", "s1")
    m = HMMModel(hidden, Alphabet.of(["a", "b"]),
                 Distribution(np.array([1.0, 0.0])),
                 StochasticMatrix(np.array([[0.999, 0.001], [0.5, 0.5]]), hidden),
                 np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(TruncationError, match="Monte Carlo"):
        check_strong_splitting(m, HittingTimeSpec.for_symbol("b"), k=1, horizon=8)


# ---------------------------------------------------------------------------
# check_hitting_time_lemmas


def test_delta_readout_readout_lemma_exact():
    res = check_hitting_time_lemmas(two_state_cycle(),
                                    HittingTimeSpec.for_symbol("a", 2), 2, 8)
    readout = next(r for r in res if r.lemma == "readout_at_stopping_time")
    assert readout.passed
    assert readout.max_gap == 0.0


def test_noisy_battery_model_all_lemmas():
    res = check_hitting_time_lemmas(iid_rows_two_state(),
                                    HittingTimeSpec.for_symbol("a", 2), 2, 8)
    for r in res:
        assert r.passed, r.lemma


def test_product_lemma_n3_matches_direct_enumeration():
    m = iid_rows_two_state()
    spec = HittingTimeSpec.for_symbol("a", 3)
    res = check_hitting_time_lemmas(m, spec, 3, 12)
    prod = next(r for r in res if r.lemma == "conditional_independence_product")
    assert prod.passed

    # recompute one joint conditional by brute force at a short horizon
    T = 7

    def occ_times(ys, n):
        hits = [t for t, y in enumerate(ys) if y == "a"]
        return hits[:n] if len(hits) >= n else None

    def lhs_event(xs, ys):
        h = occ_times(ys, 2)
        return (h is not None and h[1] + 1 <= T
                and xs[h[0] + 1] == "s0" and xs[h[1] + 1] == "s1"
                and ys[h[0] + 1] == "b" and ys[h[1] + 1] == "a")

    def den_event(xs, ys):
        h = occ_times(ys, 2)
        return (h is not None and h[1] + 1 <= T
                and xs[h[0] + 1] == "s0" and xs[h[1] + 1] == "s1")

    num = event_probability(m, T, lhs_event)
    den = event_probability(m, T, den_event)
    want = m.readout[0, 1] * m.readout[1, 0]     # f_s0(b) * f_s1(a)
    assert num / den == pytest.approx(want, abs=5e-3)  # horizon-truncation slack


def test_product_identity_gap_on_generic_chain_is_real():
    # On a generic chain the jointly-conditioned product picks up boundary
    # terms; the checker must report the gap rather than mask it.
    res = check_hitting_time_lemmas(two_state_noisy(),
                                    HittingTimeSpec.for_symbol("a", 2), 2, 8)
    prod = next(r for r in res if r.lemma == "conditional_independence_product")
    assert not prod.passed
    assert prod.max_gap > 1e-3
    for r in res:
        if r.lemma != "conditional_independence_product":
            assert r.passed, r.lemma


def test_full_battery_passes():
    for name, m, spec in lemma_battery():
        assert check_splitting(m, 3).passed, name
        for r in check_hitting_time_lemmas(m, spec, 2, 8):
            assert r.passed, f"{name}: {r.lemma}"


def test_truncation_floor_enforced():
    m = two_state_noisy()
    with pytest.raises(TruncationError):
        check_hitting_time_lemmas(m, HittingTimeSpec.for_symbol("b", 2), 2, 4)


# ---------------------------------------------------------------------------
# Monte Carlo mode


def test_mc_passes_on_direct_sum():
    res = check_lemmas_mc(direct_sum_iid_blocks(), HittingTimeSpec.for_symbol("a", 2),
                          20_000, RandomSource(101), horizon=10)
    assert all(r.passed for r in res)


def test_mc_four_state_pair_construction():
    # the unpruned stay/swap pair construction: a 4-state direct-sum chain
    from chainmix.constructions import markov_mixture_to_hmm
    from chainmix.fixtures import two_component_mixture

    h = markov_mixture_to_hmm(two_component_mixture(), prune=False)
    assert h.n_hidden == 4
    res = check_lemmas_mc(h, HittingTimeSpec.for_symbol("a", 2),
                          100_000, RandomSource(102), horizon=10)
    assert all(r.passed for r in res)


def test_mc_stable_across_seeds():
    spec = HittingTimeSpec.for_symbol("a", 2)
    v1 = [r.passed for r in check_lemmas_mc(direct_sum_iid_blocks(), spec, 15_000,
                                            RandomSource(7), horizon=10)]
    v2 = [r.passed for r in check_lemmas_mc(direct_sum_iid_blocks(), spec, 15_000,
                                            RandomSource(8), horizon=10)]
    assert v1 == v2


def test_mc_skips_never_sampled_instances():
    res = check_lemmas_mc(direct_sum_iid_blocks(), HittingTimeSpec.for_symbol("a", 2),
                          12_000, RandomSource(9), horizon=10)
    prod = next(r for r in res if r.lemma == "conditional_independence_product")
    assert len(prod.skipped) > 0          # cross-block hidden combos never occur
    assert all("den count" in s for s in prod.skipped)


def test_mc_requires_enough_samples():
    with pytest.raises(ValueError):
        check_lemmas_mc(iid_rows_two_state(), HittingTimeSpec.for_symbol("a", 2),
                        100, RandomSource(1))


def test_mc_truncation_floor_enforced():
    # at horizon 0 no path realizes two occurrences: residual 1
    m, spec = two_state_noisy(), HittingTimeSpec.for_symbol("b", 2)
    with pytest.raises(TruncationError, match="2 occurrences realized with mass 0 < floor 0.99"):
        check_lemmas_mc(m, spec, 10_000, RandomSource(3), horizon=0)
    res = check_lemmas_mc(m, spec, 10_000, RandomSource(3), horizon=0, floor=0.0)
    assert all(r.residual == 1.0 for r in res)
    with pytest.raises(TruncationError, match="< floor 0.999999"):
        check_lemmas_mc(m, spec, 10_000, RandomSource(3), horizon=12, floor=0.999999)


def test_mc_agrees_with_exact_where_both_run():
    m = iid_rows_two_state()
    spec = HittingTimeSpec.for_symbol("a", 2)
    exact = {(r.lemma, c.label): c.lhs
             for r in check_hitting_time_lemmas(m, spec, 2, 12)
             for c in r.checked}
    mc = check_lemmas_mc(m, spec, 40_000, RandomSource(55), horizon=12)
    compared = 0
    for r in mc:
        for c in r.checked:
            key = (r.lemma, c.label)
            if key in exact:
                assert abs(c.lhs - exact[key]) <= max(c.allowed, 0.02), key
                compared += 1
    assert compared > 20


@pytest.mark.parametrize("model, spec, horizon", [
    (iid_rows_two_state(), HittingTimeSpec.for_symbol("a", 1), 6),
    (iid_rows_two_state(), HittingTimeSpec.for_symbol("a", 3), 6),
    (direct_sum_iid_blocks(), HittingTimeSpec.for_symbol("a", 2), 9),
    (two_state_noisy(), HittingTimeSpec(frozenset({("*", "a"), ("s0", "b")}), 2), 5),
])
def test_instance_budget_is_the_table_size(model, spec, horizon):
    # the closed-form row count is the tables' size: the budget that exactly
    # covers it runs in both modes, one less is refused in both
    N = spec.occurrences
    exact = check_hitting_time_lemmas(model, spec, N, horizon, floor=0.0)
    rows = sum(len(r.checked) + len(r.skipped) for r in exact)
    need = rows * (N + 1) * JointChain.from_hmm(model).n_pairs * horizon
    check_hitting_time_lemmas(model, spec, N, horizon, floor=0.0, budget=need)
    check_lemmas_mc(model, spec, 10_000, RandomSource(1), horizon, floor=0.0, budget=need)
    with pytest.raises(EnumerationBudgetError, match=f"need {rows} instances"):
        check_hitting_time_lemmas(model, spec, N, horizon, floor=0.0, budget=need - 1)
    with pytest.raises(EnumerationBudgetError, match=f"need {rows} instances"):
        check_lemmas_mc(model, spec, 10_000, RandomSource(1), horizon, floor=0.0,
                        budget=need - 1)


def test_mc_allowed_is_bonferroni_over_all_checked_instances():
    # allowed = z * combined standard error, z two-sided at alpha / (instances checked)
    m, spec = direct_sum_iid_blocks(), HittingTimeSpec.for_symbol("a", 2)
    runs = {a: check_lemmas_mc(m, spec, 20_000, RandomSource(4), alpha=a) for a in (0.01, 0.3)}
    count = sum(len(r.checked) for r in runs[0.01])
    z = {a: NormalDist().inv_cdf(1 - a / (2 * count)) for a in runs}
    for r1, r2 in zip(runs[0.01], runs[0.3], strict=True):
        for c1, c2 in zip(r1.checked, r2.checked, strict=True):
            assert c1.allowed / z[0.01] == pytest.approx(c2.allowed / z[0.3], rel=1e-12)
    with pytest.raises(ValueError, match="alpha"):
        check_lemmas_mc(m, spec, 20_000, RandomSource(4), alpha=0.0)


# ---------------------------------------------------------------------------
# Trajectory-level invariants of the hitting-time machinery


def hidden_after_visits(t, symbol: str) -> tuple[str, ...]:
    """The hidden-state sequence sampled at the steps right after each visit to
    ``symbol`` (needs a hidden trace); the induced chain of the successors row."""
    if t.hidden is None:
        raise ValueError("trajectory has no hidden trace")
    out = []
    for i in range(len(t) - 1):
        if t.symbols[i] == symbol:
            out.append(t.hidden[i + 1])
    return tuple(out)


def test_visited_symbols_keep_recurring():
    # a symbol seen in the first half recurs in the second half, essentially always
    failures = 0
    events = 0
    for i in range(200):
        m = two_state_noisy() if i % 2 else direct_sum_iid_blocks()
        t = sample(m, 2000, RandomSource(3000 + i))
        half = len(t) // 2
        for y in set(t.symbols[:half]):
            events += 1
            failures += y not in t.symbols[half:]
    assert events > 0
    assert failures / events <= 1e-3


def test_induced_chain_after_visits_is_markov():
    # empirical one-step transitions of X_(tau_n + 1) conditioned on two-step
    # histories match the unconditioned ones within 3 sigma
    m = two_state_noisy()
    t = sample(m, 200_000, RandomSource(77), trace_hidden=True)
    w = hidden_after_visits(t, "a")
    states = sorted(set(w))
    idx = {s: i for i, s in enumerate(states)}
    codes = np.array([idx[s] for s in w])
    for prev2 in range(len(states)):
        for prev1 in range(len(states)):
            sel2 = (codes[:-2] == prev2) & (codes[1:-1] == prev1)
            sel1 = codes[1:-1] == prev1
            n2, n1 = int(sel2.sum()), int(sel1.sum())
            if n2 < 200:
                continue
            for nxt in range(len(states)):
                p2 = float((codes[2:][sel2] == nxt).mean())
                p1 = float((codes[2:][sel1] == nxt).mean())
                se = np.sqrt(p2 * (1 - p2) / n2 + p1 * (1 - p1) / n1) + 1e-9
                assert abs(p2 - p1) <= 3.5 * se


def test_hidden_after_visits_requires_trace():
    t = sample(two_state_noisy(), 50, RandomSource(5))
    with pytest.raises(ValueError):
        hidden_after_visits(t, "a")


# ---------------------------------------------------------------------------
# Argument ranges


@pytest.mark.parametrize("N", [1, 0, -1])
def test_splitting_needs_two_steps(N):
    with pytest.raises(ValueError, match="at least 2 time steps"):
        check_splitting(two_state_noisy(), N)


def test_strong_splitting_rejects_negative_lag():
    with pytest.raises(ValueError, match="lag k must be >= 0"):
        check_strong_splitting(two_state_noisy(), HittingTimeSpec.for_symbol("a"), k=-1)


@pytest.mark.parametrize("check", [
    lambda m, spec: check_hitting_time_lemmas(m, spec, 1),
    lambda m, spec: check_lemmas_mc(m, spec, 10_000, RandomSource(0)),
], ids=["exact", "mc"])
def test_hitting_lemmas_need_an_hmm(check):
    from chainmix.fixtures import two_component_mixture

    with pytest.raises(TypeError, match="the hitting-time lemmas need an HMMModel"):
        check(two_component_mixture(), HittingTimeSpec.for_symbol("a"))


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
def test_a_negative_or_nan_tolerance_is_refused(tol):
    spec = HittingTimeSpec.for_symbol("a")
    for check in (lambda: check_splitting(two_state_noisy(), 3, tol),
                  lambda: check_strong_splitting(two_state_noisy(), spec, 1, tol=tol),
                  lambda: check_hitting_time_lemmas(two_state_noisy(), spec, 1, tol=tol)):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            check()


@pytest.mark.parametrize("horizon", [0, -1])
def test_strong_splitting_needs_a_free_time(horizon):
    # stay_swap_hmm's first symbol is the target surely, so the floor holds at horizon 0
    from chainmix.model_io import load_model
    from pathlib import Path

    m = load_model(Path(__file__).resolve().parent.parent / "models" / "stay_swap_hmm.json")
    with pytest.raises(ValueError, match="horizon >= 1"):
        check_strong_splitting(m, HittingTimeSpec.for_symbol("a"), 1, horizon=horizon)
    assert check_strong_splitting(m, HittingTimeSpec.for_symbol("a"), 1, horizon=1).checked


@pytest.mark.parametrize("n_values", [[0], [1, 9], [-1]])
def test_strong_splitting_free_times_in_range(n_values):
    with pytest.raises(ValueError, match="must lie in 1..horizon"):
        check_strong_splitting(two_state_noisy(), HittingTimeSpec.for_symbol("a"), 1,
                               horizon=8, n_values=n_values)
    res = check_strong_splitting(two_state_noisy(), HittingTimeSpec.for_symbol("a"), 1,
                                 horizon=8, n_values=[1, 8])
    assert res.passed and {c.label.split()[0] for c in res.checked} == {"n=1", "n=8"}


# ---------------------------------------------------------------------------
# The battery script: all three exact checks on every battery model


def test_lemma_battery_script_passes_at_defaults(capsys):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "lemma_battery.py"
    spec = importlib.util.spec_from_file_location("lemma_battery", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    out = capsys.readouterr().out
    assert out.endswith("battery: PASS\n")
    assert "FAIL (expected)" in out and out.count(" PASS instances=") == 60
