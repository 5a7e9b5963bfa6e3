"""Hand-built models: the lemma-check battery, demo mixtures, negative controls.

The battery holds ten small HMMs (at most 3 hidden states and 3 symbols, all
with recurrent underlying chains) spanning deterministic cycles, noisy
read-outs, identity chains, identical-row blocks and direct sums, each paired
with a hitting target whose first two visits are realized within horizon 8
with mass above the 0.99 floor. Battery chains are chosen inside the exact
scope of the jointly-conditioned product identity (delta read-outs, identity
chains, identical-row blocks); generic chains such as ``two_state_noisy`` are
kept as separate fixtures for the checks that hold on them unconditionally and
for negative controls.
"""

from __future__ import annotations

import numpy as np

from .model_core import (
    Alphabet,
    Distribution,
    HMMModel,
    MarkovMixtureModel,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
)
from .stopping_verifier import (
    HittingTimeSpec,
    JointChain,
    corrupted_previous_symbol_joint,
)


def hmm(hidden, symbols, pi, P, readout) -> HMMModel:
    hidden = tuple(hidden)
    return HMMModel(hidden, Alphabet.of(symbols), Distribution(np.array(pi)),
                    StochasticMatrix(np.array(P, dtype=float), hidden),
                    np.array(readout, dtype=float))


def two_state_cycle() -> HMMModel:
    """Deterministic 2-cycle with delta read-outs: output 'abab...'."""
    return hmm(["s0", "s1"], ["a", "b"], [1, 0], [[0, 1], [1, 0]],
               [[1, 0], [0, 1]])


def three_cycle_aab() -> HMMModel:
    """Deterministic 3-cycle emitting a, a, b: output 'aab aab ...'."""
    return hmm(["s0", "s1", "s2"], ["a", "b"], [1, 0, 0],
               [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
               [[1, 0], [1, 0], [0, 1]])


def two_state_noisy() -> HMMModel:
    return hmm(["s0", "s1"], ["a", "b"], [0.5, 0.5],
               [[0.7, 0.3], [0.4, 0.6]],
               [[0.95, 0.05], [0.35, 0.65]])


def identity_chain_pair() -> HMMModel:
    """Identity hidden chain (an i.i.d. mixture in HMM form)."""
    return hmm(["h0", "h1"], ["a", "b"], [0.3, 0.7], np.eye(2),
               [[0.5, 0.5], [0.1, 0.9]])


def block_identical_rows() -> HMMModel:
    """Two blocks (sizes 1 and 2) with identical rows within each block and an
    invariant initial law: the lumpable structure."""
    p2 = np.array([0.25, 0.75])
    P = np.zeros((3, 3))
    P[0, 0] = 1.0
    P[1:, 1:] = np.tile(p2, (2, 1))
    pi = np.array([0.4, 0.6 * p2[0], 0.6 * p2[1]])
    f = [[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.6, 0.2, 0.2]]
    return hmm(["u", "v", "w"], ["a", "b", "c"], pi, P, f)


def fast_cycle() -> HMMModel:
    """Slightly lazy deterministic-readout 3-cycle; short return times."""
    return hmm(["s0", "s1", "s2"], ["a", "b", "c"], [1, 0, 0],
               [[0.2, 0.8, 0], [0, 0.2, 0.8], [0.8, 0, 0.2]],
               np.eye(3))


def near_uniform() -> HMMModel:
    return hmm(["s0", "s1", "s2"], ["a", "b", "c"], [1 / 3, 1 / 3, 1 / 3],
               np.full((3, 3), 1 / 3),
               [[0.7, 0.15, 0.15], [0.75, 0.15, 0.10], [0.65, 0.2, 0.15]])


def iid_rows_two_state() -> HMMModel:
    """Irreducible 2-state chain with identical rows and noisy read-outs."""
    return hmm(["s0", "s1"], ["a", "b"], [0.5, 0.5],
               [[0.65, 0.35], [0.65, 0.35]],
               [[0.9, 0.1], [0.2, 0.8]])


def iid_rows_three_state() -> HMMModel:
    return hmm(["s0", "s1", "s2"], ["a", "b", "c"], [0.2, 0.3, 0.5],
               np.tile([0.5, 0.3, 0.2], (3, 1)),
               [[0.8, 0.1, 0.1], [0.6, 0.3, 0.1], [0.5, 0.2, 0.3]])


def direct_sum_iid_blocks() -> HMMModel:
    """Direct sum of an identical-row 2-state block and a singleton."""
    P = np.zeros((3, 3))
    P[:2, :2] = np.tile([0.7, 0.3], (2, 1))
    P[2, 2] = 1.0
    f = [[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]]
    return hmm(["s0", "s1", "t0"], ["a", "b"], [0.5, 0.2, 0.3], P, f)


def two_state_three_symbols_iid() -> HMMModel:
    return hmm(["s0", "s1"], ["a", "b", "c"], [0.4, 0.6],
               np.tile([0.6, 0.4], (2, 1)),
               [[0.2, 0.1, 0.7], [0.1, 0.2, 0.7]])


def lemma_battery() -> list[tuple[str, HMMModel, HittingTimeSpec]]:
    """The ten-model battery for the stopping-time lemma suite."""
    sym = lambda y: HittingTimeSpec.for_symbol(y, occurrences=2)
    two = lambda y1, y2: HittingTimeSpec(frozenset({("*", y1), ("*", y2)}), occurrences=2)
    return [
        ("two_state_cycle", two_state_cycle(), sym("a")),
        ("three_cycle_aab", three_cycle_aab(), sym("a")),
        ("fast_cycle", fast_cycle(), sym("a")),
        ("identity_chain_pair", identity_chain_pair(), sym("b")),
        ("iid_rows_two_state", iid_rows_two_state(), sym("a")),
        ("iid_rows_three_state", iid_rows_three_state(), two("a", "b")),
        ("block_identical_rows", block_identical_rows(), sym("a")),
        ("direct_sum_iid_blocks", direct_sum_iid_blocks(), sym("a")),
        ("two_state_three_symbols_iid", two_state_three_symbols_iid(), sym("c")),
        ("near_uniform", near_uniform(), two("a", "b")),
    ]


def splitting_negative_control() -> JointChain:
    """Joint law whose emissions depend on the previously emitted symbol; fails
    the splitting check with a macroscopic gap."""
    return corrupted_previous_symbol_joint(two_state_noisy(), trigger="a")


def two_component_mixture() -> MarkovMixtureModel:
    """Stay-chain and swap-chain over {a, b}, equal weights, started at 'a'."""
    alphabet = Alphabet.of(["a", "b"])
    stay = StochasticMatrix(np.eye(2), alphabet.emittable)
    swap = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), alphabet.emittable)
    return MarkovMixtureModel(alphabet, "a", Distribution(np.array([0.5, 0.5])),
                              (stay, swap))


def separated_recovery_mixture() -> MarkovMixtureModel:
    """Two components whose rows differ by at least 0.3 in total variation;
    the recovery experiment's ground truth."""
    alphabet = Alphabet.of(["a", "b"])
    p1 = StochasticMatrix(np.array([[0.85, 0.15], [0.30, 0.70]]), alphabet.emittable)
    p2 = StochasticMatrix(np.array([[0.25, 0.75], [0.80, 0.20]]), alphabet.emittable)
    return MarkovMixtureModel(alphabet, "a", Distribution(np.array([0.5, 0.5])),
                              (p1, p2))


def two_cell_partitioned_mixture() -> PartitionedKernelMixture:
    """Fine alphabet {1,2,3,4} with cells {1,2} and {3,4}, two kernels."""
    alphabet = Alphabet.of(["1", "2", "3", "4"])
    partition = Partition((("1", "2"), ("3", "4")))
    kernels = np.array([
        [[0.4, 0.2, 0.3, 0.1],
         [0.1, 0.3, 0.2, 0.4]],
        [[0.25, 0.25, 0.25, 0.25],
         [0.5, 0.1, 0.1, 0.3]],
    ])
    return PartitionedKernelMixture(alphabet, partition,
                                    Distribution(np.array([0.6, 0.4])),
                                    kernels, "1")
