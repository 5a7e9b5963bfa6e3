"""One law form: sorted ``(rank, prob)`` arrays.

The comparison algebra must give, by ``==``, what the dict-based code that
``tests/oracles.py`` keeps computes on the same live strings: the correctly
rounded sum of its gaps for ``tv``; its ``max_gap`` and worst string; its
marginals, conditionals and lifts. Random laws have live shares on both sides
of 1/4 (the old sparse cut-off), and some have ranks beyond int64.
"""

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chainmix.cli import main
from chainmix.errors import EnumerationBudgetError, LawMismatchError
from chainmix.exact_law import (
    condition_on_first,
    laws_equal,
    lift_with_prefix,
    marginalize_first,
    marginalize_last,
    total_variation,
)
from chainmix.model_core import (
    Alphabet,
    FiniteLaw,
    markov_mixture_law,
    model_law,
    validate_model,
)
from chainmix.model_io import load_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def random_values(r, n, coarse):
    """``n`` positive probabilities; coarse ones repeat, so gaps tie."""
    return r.integers(1, 4, size=n) / 4 if coarse else r.random(n)


def random_flat_law(r, alphabet, length, live, coarse):
    """Each of the ``K**length`` strings live with probability ``live``."""
    size = alphabet.size ** length
    flat = np.where(r.random(size) < live, random_values(r, size, coarse), 0.0)
    return FiniteLaw.from_flat(alphabet, length, flat)


def random_long_law(r, alphabet, length, pool, coarse):
    """A law on a random subset of ``pool``, built from labels (``from_probs``)."""
    picked = [s for s in pool if r.random() < 0.6]
    return FiniteLaw.from_probs(alphabet, length,
                                dict(zip(picked, random_values(r, len(picked), coarse))))


def items(law):
    return list(oracles.reference_nonzero(law).items())


def assert_algebra_matches_oracle(a, b):
    na, nb = oracles.reference_nonzero(a), oracles.reference_nonzero(b)
    assert total_variation(a, b) == 0.5 * math.fsum(oracles.reference_gaps(na, nb).values())
    cmp_ = laws_equal(a, b, -1.0)
    max_gap, worst = oracles.reference_laws_equal(na, nb)
    assert cmp_.max_gap == max_gap
    if worst is not None:
        assert cmp_.worst_string == a.labels_of(worst)
    for e, symbol in enumerate(a.alphabet.emittable):
        assert items(lift_with_prefix(a, symbol)) == sorted(oracles.reference_lift(na, e).items())
    if a.length < 2:
        return
    assert items(marginalize_first(a)) == sorted(oracles.reference_sum_out(na, True).items())
    assert items(marginalize_last(a)) == sorted(oracles.reference_sum_out(na, False).items())
    for e, symbol in enumerate(a.alphabet.emittable):
        want = oracles.reference_condition_on_first(na, e)
        if want is None:
            with pytest.raises(LawMismatchError):
                condition_on_first(a, symbol)
        else:
            assert items(condition_on_first(a, symbol)) == sorted(want.items())


@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from([0.05, 0.2, 0.3, 0.6, 1.0]),
       st.sampled_from([0.05, 0.2, 0.3, 0.6, 1.0]), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_law_algebra_matches_the_dict_oracle(k, length, live_a, live_b, coarse, seed):
    while k ** length > 4 ** 5:
        length -= 1
    r = np.random.default_rng(seed)
    alphabet = Alphabet.of(["a", "b", "c", "d"][:k])
    a = random_flat_law(r, alphabet, length, live_a, coarse)
    b = random_flat_law(r, alphabet, length, live_b, coarse)
    assert a.ranks.dtype == np.int64
    assert_algebra_matches_oracle(a, b)
    assert_algebra_matches_oracle(a, a)


@given(st.integers(40, 46), st.integers(1, 10), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_law_algebra_beyond_int64_ranks(length, n_strings, coarse, seed):
    # 3**40 > 2**63: ranks are Python ints
    r = np.random.default_rng(seed)
    alphabet = Alphabet.of(["a", "b", "c"])
    pool = [tuple("abc"[d] for d in r.integers(0, 3, size=length)) for _ in range(n_strings)]
    a = random_long_law(r, alphabet, length, pool, coarse)
    b = random_long_law(r, alphabet, length, pool, coarse)
    assert a.ranks.dtype == object
    assert [s for s, _ in a.entries()] == sorted({s for s in pool if a.prob(s) > 0})
    assert_algebra_matches_oracle(a, b)
    # marginals of a length-40 law fit int64 again
    assert marginalize_last(a).ranks.dtype == (np.int64 if length == 40 else object)


def test_valid_law_has_no_violations():
    law = FiniteLaw(Alphabet.of(["a", "b"]), 2, [0, 3], [0.25, 0.75])
    assert validate_model(law) == []


@pytest.mark.parametrize("ranks, probs, violation", [
    ([3, 0], [0.25, 0.75], "law: ranks are not strictly ascending"),
    ([0, 0], [0.25, 0.75], "law: ranks are not strictly ascending"),
    ([-1, 3], [0.25, 0.75], "law: ranks outside [0, 4)"),
    ([0, 4], [0.25, 0.75], "law: ranks outside [0, 4)"),
    ([0, 1, 3], [0.25, 0.75], "law: ranks of shape (3,), probabilities of shape (2,)"),
    ([0, 3], [np.nan, 0.75], "law: non-finite probability entry"),
    ([0, 3], [np.inf, -np.inf], "law: non-finite probability entry"),
    ([0, 3], [-0.25, 1.25], "law: negative probability entry"),
])
def test_law_validation_reports_each_violation(ranks, probs, violation):
    law = FiniteLaw(Alphabet.of(["a", "b"]), 2, ranks, probs)
    assert violation in validate_model(law)


def test_law_ranks_beyond_int64_are_refused(tmp_path, capsys):
    # stay_swap_hmm's pi only reaches states that emit a, so every string starts with a;
    # at horizon 63 the ranks of its 64-symbol strings would wrap around int64
    config = tmp_path / "c.json"
    config.write_text('{"enum_budget": 1e30}')
    argv = ["law", str(MODELS / "stay_swap_hmm.json"), "--config", str(config), "--horizon"]
    assert main(argv + ["62"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.split()[0] == "a" and len(line.split()) == 64 for line in lines)
    assert main(argv + ["63"]) == 2
    assert "beyond int64" in capsys.readouterr().err
    m = load_model(MODELS / "stay_swap_mixture.json")
    markov_mixture_law(m, 63, budget=1e30)
    with pytest.raises(EnumerationBudgetError, match="beyond int64"):
        markov_mixture_law(m, 64, budget=1e30)


def test_a_huge_horizon_is_refused_in_little_memory(capsys):
    # 2**100000000 would be a 12.5 MB integer, and too long to print
    tracemalloc.start()
    try:
        status = main(["law", str(MODELS / "separated_mixture.json"), "--horizon", "100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert capsys.readouterr().err == (
        "error: horizon 100000000 over an alphabet of 2 symbols: the ranks of its strings "
        "of 100000000 symbols go beyond int64\n")
    assert peak < 2 ** 20


def test_compare_memory_follows_live_entries(capsys):
    # 4**8 live strings per law, lifted to length 9
    model = str(MODELS / "two_cell_partitioned.json")
    tracemalloc.start()
    try:
        status = main(["compare", model, model, "--horizon", "8"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert capsys.readouterr().out == "tv 0\nmax_gap 0\n"
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("model, horizon, traced", [
    ("stay_swap_mixture.json", 20, "markov_mixture_law"),
    ("noisy_hmm.json", 5, "hmm_law"),
])
def test_trace_counts_the_printed_entries(model, horizon, traced, capsys):
    # the benchmark's --trace 1 counts live entries through the law's ``sparse``
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    with tracing.installed(tracer):
        assert main(["law", str(MODELS / model), "--horizon", str(horizon)]) == 0
    printed = len(capsys.readouterr().out.splitlines())
    metrics = tracing.pass_metrics(tracer, 0)
    assert metrics[f"model_core.{traced}.calls"] == 1
    assert metrics["model_core.law.live_entries"] == printed


def test_law_equality_is_exact_value_equality():
    a = Alphabet.of(["a", "b"])
    uniform = FiniteLaw.from_flat(a, 2, np.full(4, .25))
    assert (uniform == FiniteLaw.from_flat(a, 2, np.array([.5, 0, 0, .5]))) is False
    law = model_law(load_model(MODELS / "two_cell_partitioned.json"), 4)
    rebuilt = FiniteLaw.from_probs(law.alphabet, law.length, dict(law.entries()))
    assert rebuilt is not law and (law == rebuilt) is True
    nudged = law.probs.copy()
    nudged[-1] = np.nextafter(nudged[-1], 1.0)
    assert law != FiniteLaw(law.alphabet, law.length, law.ranks, nudged)
    assert uniform != FiniteLaw.from_flat(Alphabet.of(["a", "c"]), 2, np.full(4, .25))
    assert uniform != FiniteLaw.from_flat(a, 1, np.full(2, .5))
    assert uniform != "uniform" and uniform.__eq__(uniform.to_flat()) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(uniform)
