"""Checked instances as columns: an ``InstanceCheck`` is built only on access.

The exact checks keep their instances as float columns and a label rule. The
CLI report reads ``passed``, ``max_gap`` and ``len`` from the columns and
builds only the failures it prints; ``repr`` and equality stay those of the
tuple of instances, so every pinned repr digest holds.
"""

import dataclasses
import math

import numpy as np
import pytest

from chainmix import fixtures
from chainmix.cli import _lemma_report
from chainmix.stopping_verifier import (
    HittingTimeSpec,
    InstanceCheck,
    InstanceTable,
    LemmaCheckResult,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_splitting,
    check_strong_splitting,
)
from chainmix.sim import RandomSource


@pytest.fixture()
def built(monkeypatch):
    """Counts the ``InstanceCheck``s constructed while the test runs."""
    count = [0]
    init = InstanceCheck.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(InstanceCheck, "__init__", counting)
    return count


def _bench_battery():
    """The benchmark's exact-mode command: every identity on the battery model."""
    m, spec = fixtures.iid_rows_three_state(), HittingTimeSpec.for_symbol("a", 3)
    return [check_splitting(m, 3), check_strong_splitting(m, spec, 1, 16),
            *check_hitting_time_lemmas(m, spec, 3, 16)]


def test_bench_battery_builds_no_instance(built):
    results = _bench_battery()
    report = _lemma_report(results)
    assert all(r["passed"] for r in report)
    assert sum(r["instances"] for r in report) == 83_457
    assert built[0] == 0


def test_report_builds_only_the_failures(built):
    results = check_hitting_time_lemmas(fixtures.two_state_noisy(),
                                        HittingTimeSpec.for_symbol("a", 2), 2, 8)
    report = _lemma_report(results)
    assert built[0] == sum(len(r["failures"]) for r in report) > 0


@pytest.mark.parametrize("result", [
    *_bench_battery(),
    check_splitting(fixtures.two_state_cycle(), 3),
    check_strong_splitting(fixtures.splitting_negative_control(),
                           HittingTimeSpec.for_symbol("a"), 1, 8),
    *check_lemmas_mc(fixtures.direct_sum_iid_blocks(), HittingTimeSpec.for_symbol("a", 2),
                     10_000, RandomSource(5)),
], ids=lambda r: r.lemma)
def test_repr_is_that_of_the_tuple(result):
    as_tuple = dataclasses.replace(result, checked=tuple(result.checked))
    assert isinstance(as_tuple.checked, InstanceTable)
    assert repr(result) == repr(as_tuple)
    assert result == as_tuple and result.checked == tuple(result.checked)
    assert (result.passed, result.max_gap, result.failures()) == (
        all(c.passed for c in result.checked),
        max((c.gap for c in result.checked), default=0.0),
        [c for c in result.checked if not c.passed])


def _table(gaps, allowed=0.5):
    rows = [(0.25, 0.25 + g, g, allowed) for g in gaps]
    return InstanceTable.from_rows(rows, [f"i{k}" for k in range(len(gaps))])


def test_indexing_and_slicing_behave_as_the_tuple():
    table = _table([0.0, 0.125, 1.0])
    as_tuple = tuple(table)
    assert len(table) == 3 and table[-1] == as_tuple[-1] == table[2]
    assert table[1:] == as_tuple[1:] and table[::-1] == as_tuple[::-1]
    assert type(table[0].lhs) is float and type(table[0].label) is str
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(IndexError):
        table[-4]
    assert as_tuple[1] in table and table.index(as_tuple[2]) == 2
    assert hash(table) == hash(as_tuple)
    with pytest.raises(ValueError):
        table.gap[0] = 1.0


@pytest.mark.parametrize("gaps", [[], [0.0, 0.125], [math.nan, 1.0], [0.125, math.nan, 0.25],
                                  [0.75, 0.0]])
def test_verdicts_are_those_of_the_instances(gaps):
    # a NaN gap fails; max_gap is Python's max over the gaps, NaN first or not
    checks = tuple(_table(gaps))
    result = LemmaCheckResult("x", checks, (), 0.0, 0.5)
    assert result.passed == all(c.passed for c in checks)
    assert repr(result.max_gap) == repr(max((c.gap for c in checks), default=0.0))
    assert [c.label for c in result.failures()] == [c.label for c in checks if not c.passed]


def test_an_empty_table_passes():
    result = LemmaCheckResult("x", (), (), 0.0, 1e-12)
    assert result.passed and result.max_gap == 0.0 and result.failures() == []
    assert repr(result.checked) == "()" and len(result.checked) == 0
    one = LemmaCheckResult("x", _table([0.0])[:], (), 0.0, 1e-12)
    assert repr(one.checked).endswith(",)")


def test_table_columns_are_float64():
    r = check_splitting(fixtures.two_state_noisy(), 3)
    for name in ("lhs", "rhs", "gap", "allowed"):
        column = getattr(r.checked, name)
        assert column.dtype == np.float64 and len(column) == len(r.checked)
