import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_markov_mixture, rng
from chainmix.errors import LawMismatchError
from chainmix.exact_law import (
    condition_on_first,
    laws_equal,
    lift_with_prefix,
    marginalize_first,
    marginalize_last,
    total_variation,
)
from chainmix.model_core import Alphabet, FiniteLaw, markov_mixture_law


AB = Alphabet.of(["a", "b"])


def law_of(table, length=None):
    length = length if length is not None else len(next(iter(table)))
    return FiniteLaw.from_probs(AB, length, table)


def test_tv_identical_is_zero():
    a = law_of({("a", "a"): 0.5, ("b", "b"): 0.5})
    assert total_variation(a, a) == 0.0


def test_tv_disjoint_supports_is_one():
    a = law_of({("a", "a"): 1.0})
    b = law_of({("b", "b"): 1.0})
    assert total_variation(a, b) == 1.0


def test_tv_hand_value():
    a = law_of({("a",): 0.7, ("b",): 0.3})
    b = law_of({("a",): 0.5, ("b",): 0.5})
    assert total_variation(a, b) == pytest.approx(0.2, abs=1e-15)


def test_tv_requires_common_index_set():
    with pytest.raises(LawMismatchError):
        total_variation(law_of({("a",): 1.0}), law_of({("a", "a"): 1.0}))
    other = FiniteLaw.from_probs(Alphabet.of(["a", "c"]), 1, {("a",): 1.0})
    with pytest.raises(LawMismatchError):
        total_variation(law_of({("a",): 1.0}), other)


def test_laws_equal_reports_worst_string():
    a = law_of({("a", "a"): 0.5, ("b", "b"): 0.5})
    b = law_of({("a", "a"): 0.5 - 1e-6, ("b", "b"): 0.5 + 1e-6})
    assert laws_equal(a, a, 1e-12)
    cmp_ = laws_equal(a, b, 1e-12)
    assert not cmp_
    assert cmp_.worst_string in (("a", "a"), ("b", "b"))
    assert cmp_.max_gap == pytest.approx(1e-6, rel=1e-6)


def test_marginalize_product_law():
    p = {("a",): 0.3, ("b",): 0.7}
    prod = law_of({(x, y): p[(x,)] * p[(y,)] for x in "ab" for y in "ab"})
    marg = marginalize_last(prod)
    for s, v in p.items():
        assert marg.prob(s) == pytest.approx(v, abs=1e-15)
    assert marg.total() == pytest.approx(1.0, abs=1e-12)


def test_marginalize_last_matches_shorter_markov_law():
    m = random_markov_mixture(rng(7))
    assert laws_equal(marginalize_last(markov_mixture_law(m, 3)),
                      markov_mixture_law(m, 2), 1e-12)


def test_marginalize_requires_length_two():
    with pytest.raises(LawMismatchError):
        marginalize_last(law_of({("a",): 1.0}))
    with pytest.raises(LawMismatchError):
        marginalize_first(law_of({("a",): 1.0}))
    with pytest.raises(LawMismatchError, match="cannot condition a length-1 law"):
        condition_on_first(law_of({("a",): 1.0}), "a")


def test_condition_and_lift_round_trip():
    inner = law_of({("a", "b"): 0.25, ("b", "a"): 0.75})
    lifted = lift_with_prefix(inner, "a")
    assert lifted.length == 3
    assert lifted.prob(("a", "a", "b")) == 0.25
    back = condition_on_first(lifted, "a")
    assert laws_equal(back, inner, 1e-15)
    with pytest.raises(LawMismatchError):
        condition_on_first(lifted, "b")


def _random_law(seed):
    r = rng(seed)
    table = r.dirichlet(np.ones(4))
    strings = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    return law_of(dict(zip(strings, table)))


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_tv_is_a_metric(s1, s2, s3):
    a, b, c = _random_law(s1), _random_law(s2), _random_law(s3)
    assert total_variation(a, b) == pytest.approx(total_variation(b, a), abs=1e-15)
    assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c) + 1e-12
    assert 0.0 <= total_variation(a, b) <= 1.0


def test_mixed_sparse_dense_comparison():
    # every string live against one live string
    dense = FiniteLaw.from_flat(AB, 2, np.array([0.25, 0.25, 0.25, 0.25]))
    sparse = law_of({("a", "a"): 1.0})
    assert total_variation(dense, sparse) == pytest.approx(0.75, abs=1e-15)
