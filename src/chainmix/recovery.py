"""Statistical recovery of the mixing measure, and exchangeability tests.

The long-run frequency of entries in successors row ``y`` converges to row
``y`` of the realized transition matrix, but one trajectory pins down only a
single support point of the mixing measure (the random matrix is fixed per
realization). Recovery therefore takes many independent trajectories, estimates
one matrix per trajectory, and clusters the estimates by maximum row-wise total
variation; cluster frequencies estimate the mixing weights.

Exchangeability of successors rows is tested by permutation: the statistic is
the count of adjacent equal pairs, whose null distribution under exchangeability
is obtained by uniformly re-permuting the row. Rows below a visit minimum carry
no evidence and are excluded rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import (
    InsufficientDataError,
    InsufficientVisitsError,
    NoTestableRowsError,
    RowTooShortError,
)
from .model_core import Alphabet, Distribution
from .sim import RandomSource, Trajectory
from .successors import SuccessorsArray, extract

MIN_TEST_LENGTH = 20


# ---------------------------------------------------------------------------
# Law-of-large-numbers estimation


def _check_min_count(min_count: int | None) -> int:
    min_count = DEFAULT.min_row_count if min_count is None else min_count
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    return min_count


def _normalized_histogram(row, alphabet: Alphabet) -> np.ndarray:
    """Symbol frequencies of a non-empty row; exact integer counts, one rounding."""
    hist = np.array([row.count(s) for s in alphabet.emittable], dtype=float)
    return hist / hist.sum()


def lln_row_estimate(t: Trajectory, row_key: str, alphabet: Alphabet | None = None,
                     min_count: int | None = None) -> Distribution:
    """Empirical distribution of successors-row ``row_key``: the normalized
    histogram of the symbols following each visit."""
    min_count = _check_min_count(min_count)
    if alphabet is None:
        alphabet = Alphabet.of(sorted(set(t.symbols)))
    row = extract(t, alphabet).rows.get(row_key, ())
    if len(row) < min_count:
        raise InsufficientVisitsError(
            f"row {row_key!r} has {len(row)} visits; minimum is {min_count}"
        )
    return Distribution(_normalized_histogram(row, alphabet))


@dataclass(frozen=True)
class RecoveredComponent:
    """One support point: an estimated matrix with a per-row observation mask.

    Rows never observed (symbol unvisited, or below the visit minimum in every
    member trajectory) are NaN and flagged False in ``observed``.
    """

    matrix: np.ndarray
    observed: tuple[bool, ...]
    row_counts: tuple[int, ...]
    members: int


@dataclass(frozen=True)
class RecoveryDiagnostics:
    n_trajectories: int
    min_count: int
    cluster_tol: float
    row_tv_stderr: tuple[tuple[float, ...], ...]   # per component, per row


@dataclass(frozen=True)
class RecoveredMixingMeasure:
    alphabet: Alphabet
    support: tuple[RecoveredComponent, ...]
    weights: Distribution
    diagnostics: RecoveryDiagnostics


def lln_recover(trajectories, cluster_tol: float | None = None,
                alphabet: Alphabet | None = None,
                min_count: int | None = None) -> RecoveredMixingMeasure:
    """Estimate the mixing measure from independent trajectories of one mixture.

    Per trajectory, each sufficiently visited successors row yields a row
    estimate; matrices are merged by single linkage whenever their worst common
    row disagrees by at most ``cluster_tol`` in total variation; the distances
    from each trajectory to all later ones are taken in one vectorised step,
    each the same float as a pairwise comparison. Support points are entrywise
    means of member rows (renormalized); weights are cluster frequencies.
    """
    cluster_tol = DEFAULT.cluster_tol if cluster_tol is None else cluster_tol
    min_count = _check_min_count(min_count)
    trajectories = list(trajectories)
    if not trajectories:
        raise InsufficientDataError("no trajectories given")
    if alphabet is None:
        alphabet = Alphabet.of(sorted(set().union(*(t.symbols for t in trajectories))))
    K = alphabet.size

    estimates, masks, counts = [], [], []
    for t in trajectories:
        rows = extract(t, alphabet).rows.values()     # in alphabet order
        cnt = np.array([len(succ) for succ in rows], dtype=int)
        mask = cnt >= min_count
        if not mask.any():
            raise InsufficientDataError(
                f"a trajectory has no row with >= {min_count} visits"
            )
        estimates.append(np.array([_normalized_histogram(succ, alphabet) if ok
                                   else np.full(K, np.nan) for succ, ok in zip(rows, mask)]))
        masks.append(mask)
        counts.append(cnt)

    n = len(estimates)
    label = np.arange(n)        # single-linkage component of each trajectory so far
    est, obs = np.array(estimates), np.array(masks)     # (n, K, K), (n, K)
    for i in range(n - 1):
        common = obs[i] & obs[i + 1:]
        tv = np.where(common, np.abs(est[i + 1:] - est[i]).sum(axis=2), -np.inf)
        near = i + 1 + np.flatnonzero(common.any(axis=1) & (0.5 * tv.max(axis=1) <= cluster_tol))
        label[np.isin(label, label[near])] = label[i]

    clusters: dict = {}
    for i, c in enumerate(label.tolist()):
        clusters.setdefault(c, []).append(i)

    support, weights, stderrs = [], [], []
    for members in sorted(clusters.values(), key=len, reverse=True):
        mats = np.array([estimates[i] for i in members])          # (m, K, K)
        row_obs = np.array([masks[i] for i in members])           # (m, K)
        centroid = np.full((K, K), np.nan)
        observed = np.zeros(K, dtype=bool)
        row_counts = np.zeros(K, dtype=int)
        errs = []
        for y in range(K):
            sel = row_obs[:, y]
            row_counts[y] = sum(counts[members[i]][y] for i in range(len(members)))
            if not sel.any():
                errs.append(float("nan"))
                continue
            mean = mats[sel, y, :].mean(axis=0)
            centroid[y] = mean / mean.sum()
            observed[y] = True
            errs.append(float(np.sqrt(K / (4.0 * max(row_counts[y], 1)))))
        support.append(RecoveredComponent(centroid, tuple(bool(b) for b in observed),
                                          tuple(int(c) for c in row_counts), len(members)))
        weights.append(len(members) / n)
        stderrs.append(tuple(errs))

    return RecoveredMixingMeasure(
        alphabet=alphabet,
        support=tuple(support),
        weights=Distribution(np.array(weights)),
        diagnostics=RecoveryDiagnostics(n, min_count, cluster_tol, tuple(stderrs)),
    )


# ---------------------------------------------------------------------------
# Exchangeability tests


@dataclass(frozen=True)
class RowTestResult:
    row_key: object
    length: int
    statistic: int
    p_value: float
    reject: bool


@dataclass(frozen=True)
class ExchangeabilityReport:
    rows: tuple[RowTestResult, ...]
    level: float
    tested: int
    reject: bool


def _adjacent_equal_pairs(codes: np.ndarray) -> int:
    return int(np.count_nonzero(codes[:-1] == codes[1:]))


def test_row_exchangeability(row, permutations: int, src: RandomSource,
                             level: float | None = None) -> RowTestResult:
    """Permutation test of row exchangeability.

    Statistic: number of adjacent equal pairs. Under exchangeability every
    ordering of the row is equally likely, so the null distribution comes from
    uniform re-permutations. Two-sided p-value with add-one smoothing.
    """
    level = DEFAULT.alpha if level is None else level
    row = list(row)
    if len(row) < MIN_TEST_LENGTH:
        raise RowTooShortError(f"row of length {len(row)} is below the minimum "
                               f"of {MIN_TEST_LENGTH}")
    symbols = sorted(set(row))
    codes = np.array([symbols.index(s) for s in row])
    observed = _adjacent_equal_pairs(codes)
    gen = src.generator()
    at_most = at_least = 0
    for _ in range(permutations):
        stat = _adjacent_equal_pairs(gen.permutation(codes))
        at_most += stat <= observed
        at_least += stat >= observed
    p_low = (at_most + 1) / (permutations + 1)
    p_high = (at_least + 1) / (permutations + 1)
    p = min(1.0, 2.0 * min(p_low, p_high))
    return RowTestResult(None, len(row), observed, p, p < level)


def test_partial_exchangeability(arr: SuccessorsArray, level: float | None = None,
                                 src: RandomSource | None = None,
                                 permutations: int = 2000) -> ExchangeabilityReport:
    """Per-row exchangeability tests with Bonferroni correction across rows.

    The overall null (the source is partially exchangeable) is rejected iff any
    row rejects at the corrected level ``alpha / #tested``.
    """
    level = DEFAULT.alpha if level is None else level
    src = RandomSource(0) if src is None else src
    testable = [(k, r) for k, r in sorted(arr.rows.items(), key=lambda kv: str(kv[0]))
                if len(r) >= MIN_TEST_LENGTH]
    if not testable:
        raise NoTestableRowsError(
            f"no successors row reaches the minimum length of {MIN_TEST_LENGTH}"
        )
    corrected = level / len(testable)
    results = []
    for i, (key, row) in enumerate(testable):
        r = test_row_exchangeability(row, permutations, src.derive(i), corrected)
        results.append(RowTestResult(key, r.length, r.statistic, r.p_value, r.reject))
    return ExchangeabilityReport(tuple(results), level, len(testable),
                                 any(r.reject for r in results))
