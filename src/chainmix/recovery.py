"""Statistical recovery of the mixing measure, and exchangeability tests.

The long-run frequency of entries in successors row ``y`` converges to row
``y`` of the realized transition matrix, but one trajectory pins down only a
single support point of the mixing measure (the random matrix is fixed per
realization). Recovery therefore takes many independent trajectories, estimates
one matrix per trajectory, and clusters the estimates by maximum row-wise total
variation; cluster frequencies estimate the mixing weights.

Exchangeability of successors rows is tested by permutation: the statistic is
the count of adjacent equal pairs, whose null distribution under exchangeability
is obtained by uniformly re-permuting the row, until both tails of the p-value
are settled (sequential Monte Carlo p-values). Rows below a visit minimum carry
no evidence and are excluded rather than guessed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, _require_level, _require_tol
from .errors import (
    InsufficientDataError,
    InsufficientVisitsError,
    NoTestableRowsError,
    RowTooShortError,
)
from .model_core import Alphabet, Distribution
from .sim import RandomSource, Trajectory, encode
from .successors import SuccessorsArray, extract

MIN_TEST_LENGTH = 20


# ---------------------------------------------------------------------------
# Law-of-large-numbers estimation


def _check_min_count(min_count: int | None) -> int:
    min_count = DEFAULT.min_row_count if min_count is None else min_count
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    return min_count


def lln_row_estimate(t: Trajectory, row_key: str, alphabet: Alphabet | None = None,
                     min_count: int | None = None) -> Distribution:
    """Empirical distribution of successors-row ``row_key``: the normalized
    histogram of the symbols following each visit."""
    min_count = _check_min_count(min_count)
    if alphabet is None:
        alphabet = Alphabet.of(sorted(t.observed()))
    pairs = extract(t, alphabet).pair_counts
    visits = int(pairs[alphabet.emit_index(row_key)].sum()) if row_key in alphabet else 0
    if visits < min_count:
        raise InsufficientVisitsError(f"row {row_key!r} has {visits} visits; minimum is "
                                      f"{min_count}")
    return Distribution(pairs[alphabet.emit_index(row_key)] / visits)


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
    estimate, its pair counts (``SuccessorsArray.pair_counts``) over its visits;
    matrices are merged by single linkage whenever their worst common
    row disagrees by at most ``cluster_tol`` in total variation; the distances
    from each trajectory to all later ones are taken in one vectorised step,
    each the same float as a pairwise comparison. Support points are entrywise
    means of member rows (renormalized); weights are cluster frequencies.
    ``cluster_tol`` must be ``>= 0`` (``inf`` merges every pair with a common
    row); NaN would merge nothing.
    """
    cluster_tol = _require_tol(DEFAULT.cluster_tol if cluster_tol is None else cluster_tol,
                               "cluster_tol")
    min_count = _check_min_count(min_count)
    trajectories = list(trajectories)
    if not trajectories:
        raise InsufficientDataError("no trajectories given")
    if alphabet is None:
        alphabet = Alphabet.of(sorted(set().union(*(t.observed() for t in trajectories))))
    K = alphabet.size

    pairs = np.array([extract(t, alphabet).pair_counts for t in trajectories])   # (n, K, K)
    counts = pairs.sum(axis=2)
    obs = counts >= min_count                                                     # (n, K)
    if not obs.any(axis=1).all():
        raise InsufficientDataError(f"a trajectory has no row with >= {min_count} visits")
    est = np.divide(pairs, counts[..., None], out=np.full(pairs.shape, np.nan),
                    where=obs[..., None])

    n = len(trajectories)
    label = np.arange(n)        # single-linkage component of each trajectory so far
    for i in range(n - 1):
        common = obs[i] & obs[i + 1:]
        tv = np.where(common, np.abs(est[i + 1:] - est[i]).sum(axis=2), -np.inf)
        near = i + 1 + np.flatnonzero(common.any(axis=1) & (0.5 * tv.max(axis=1) <= cluster_tol))
        joined = np.zeros(n, bool)          # the components that trajectory i links to
        joined[label[near]] = True
        label[joined[label]] = label[i]

    clusters: dict = {}
    for i, c in enumerate(label.tolist()):
        clusters.setdefault(c, []).append(i)

    support, weights, stderrs = [], [], []
    for members in sorted(clusters.values(), key=len, reverse=True):
        mats, row_obs, row_counts = est[members], obs[members], counts[members].sum(axis=0)
        observed = row_obs.any(axis=0)
        centroid = np.full((K, K), np.nan)
        for y in np.flatnonzero(observed):
            mean = mats[row_obs[:, y], y, :].mean(axis=0)
            centroid[y] = mean / mean.sum()
        errs = np.where(observed, np.sqrt(K / (4.0 * np.maximum(row_counts, 1))), np.nan)
        support.append(RecoveredComponent(centroid, tuple(observed.tolist()),
                                          tuple(row_counts.tolist()), len(members)))
        weights.append(len(members) / n)
        stderrs.append(tuple(errs.tolist()))

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
    permutations_run: int       # draws made before the verdict was settled


@dataclass(frozen=True)
class ExchangeabilityReport:
    rows: tuple[RowTestResult, ...]
    level: float
    tested: int
    reject: bool


def _adjacent_equal_pairs(codes: np.ndarray) -> int:
    return int(np.count_nonzero(codes[:-1] == codes[1:]))


def _settling_hits(permutations: int, level: float) -> int:
    """``h``: at least 10, and the smallest count with ``2.0 * (h / permutations) >= level``.

    A tail that reaches ``h`` hits at draw ``L`` has p-value ``h / L >= h / permutations``,
    so once both tails have, the two-sided p-value is at least ``level``.
    """
    h = max(1, math.ceil(level * permutations / 2))
    while 2.0 * (h / permutations) < level:
        h += 1
    while h > 1 and 2.0 * ((h - 1) / permutations) >= level:
        h -= 1
    return max(10, h)


def test_row_exchangeability(row, permutations: int, src: RandomSource,
                             level: float | None = None) -> RowTestResult:
    """Permutation test of row exchangeability, stopped once the verdict is settled.

    Statistic: number of adjacent equal pairs. Under exchangeability every
    ordering of the row is equally likely, so the null distribution comes from
    uniform re-permutations, at most ``permutations >= 1`` of them. Each tail
    counts the draws whose statistic is ``<=`` (low) or ``>=`` (high) the
    observed one. Sequential p-values (Besag & Clifford 1991): a tail whose
    count reaches ``h`` (:func:`_settling_hits`) at draw ``L`` has p-value
    ``h / L``; the loop stops once both tails have, since then the two-sided
    p-value is at least ``2h / permutations >= level`` and the row cannot be
    rejected. A tail still short of ``h`` after every draw has the add-one
    smoothed ``(count + 1) / (permutations + 1)``, so every p-value below
    ``2h / permutations``, and every verdict, is that of the fixed-count test.
    """
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    level = _require_level(level)
    codes = encode(row, {}).astype(np.intp)      # the shuffle is fastest on intp items
    if len(codes) < MIN_TEST_LENGTH:
        raise RowTooShortError(f"row of length {len(codes)} is below the minimum "
                               f"of {MIN_TEST_LENGTH}")
    observed = _adjacent_equal_pairs(codes)
    h = _settling_hits(permutations, level)
    gen = src.generator()
    at_most = at_least = 0
    low_at = high_at = 0        # the draw at which each tail reached h (0: not yet)
    for draw in range(1, permutations + 1):
        stat = _adjacent_equal_pairs(gen.permutation(codes))
        if stat <= observed:
            at_most += 1
            if at_most == h:
                low_at = draw
        if stat >= observed:
            at_least += 1
            if at_least == h:
                high_at = draw
        if low_at and high_at:
            break
    p_low = h / low_at if low_at else (at_most + 1) / (permutations + 1)
    p_high = h / high_at if high_at else (at_least + 1) / (permutations + 1)
    p = min(1.0, 2.0 * min(p_low, p_high))
    return RowTestResult(None, len(codes), observed, p, p < level, draw)


def test_partial_exchangeability(arr: SuccessorsArray, level: float | None = None,
                                 src: RandomSource | None = None,
                                 permutations: int = 2000) -> ExchangeabilityReport:
    """Per-row exchangeability tests with Bonferroni correction across rows.

    The overall null (the source is partially exchangeable) is rejected iff any
    row rejects at the corrected level ``alpha / #tested``.
    """
    level = _require_level(level)
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
        results.append(replace(r, row_key=key))
    return ExchangeabilityReport(tuple(results), level, len(testable),
                                 any(r.reject for r in results))
