"""Model conversions between mixtures and hidden Markov models.

The four constructions, each an executable law-preserving map:

* ``iid_mixture_to_hmm``        identity hidden chain, one state per component
* ``markov_mixture_to_hmm``     hidden space = (symbol, component) pairs, direct-sum
  transition matrix, Kronecker-delta read-outs on the symbol coordinate
* ``hmm_to_iid_mixture``        lump each recurrence class into one emission
  distribution weighted by the class stationary vector
* ``partitioned_mixture_to_hmm``  hidden space = (component, previous cell, current
  cell) triples with renormalized kernel restrictions as read-outs

plus ``hmm_to_markov_mixture_exact``, which inverts ``markov_mixture_to_hmm`` on
HMMs that carry the (symbol, component) product structure. The structure is
detected, never assumed; anything else is directed to statistical recovery.
"""

from __future__ import annotations

import warnings

import numpy as np

from .chain_analysis import EDGE_TOL, decompose, is_recurrent, reachability, recurrence_classes
from .errors import (
    ConstructionError,
    InvalidModelError,
    NonRecurrentComponentError,
    StructureError,
    TransientStatesError,
)
from .model_core import (
    Distribution,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    PartitionedKernelMixture,
    StochasticMatrix,
    _check_markov_structure,
    contract,
    require_valid,
)


def iid_mixture_to_hmm(m: IIDMixtureModel) -> HMMModel:
    """One hidden state per component, identity transitions, components as read-outs."""
    require_valid(m)
    H = m.n_components
    labels = tuple(f"h{h}" for h in range(H))
    return HMMModel(
        hidden_states=labels,
        alphabet=m.alphabet,
        pi=Distribution(m.weights.weights),
        P=StochasticMatrix(np.eye(H), labels),
        readout=np.stack([c.weights for c in m.components]),
    )


def markov_mixture_to_hmm(m: MarkovMixtureModel, prune: bool = True) -> HMMModel:
    """Hidden chain on (symbol, component) pairs with the direct-sum transition matrix.

    Pairs are ordered component-block by component-block with the symbol varying
    fastest. The initial law puts mass ``mu_h`` on ``(y0, h)``; read-outs are
    deterministic on the symbol coordinate, so the output law reproduces the
    mixture law exactly. ``prune`` drops pairs unreachable from the initial
    support (law-preserving; guarantees a recurrent underlying chain).
    """
    violations = _check_markov_structure(m)
    if violations:
        raise InvalidModelError(violations)
    for h, comp in enumerate(m.components):
        if not is_recurrent(comp, [m.y0]):
            raise NonRecurrentComponentError(
                h, f"component {h} is not recurrent from y0={m.y0!r}")
    K, H = m.alphabet.size, m.n_components
    em = m.alphabet.emittable
    n = K * H
    labels = tuple(f"{em[y]}|h{h}" for h in range(H) for y in range(K))
    P = np.zeros((n, n))
    readout = np.zeros((n, K))
    pi = np.zeros(n)
    y0 = m.alphabet.emit_index(m.y0)
    for h in range(H):
        block = slice(h * K, (h + 1) * K)
        P[block, block] = m.components[h].rows
        readout[block] = np.eye(K)
        pi[h * K + y0] = m.weights[h]
    if prune:
        labels, pi, P, readout = _prune_hidden(labels, pi, P, readout)
    return HMMModel(labels, m.alphabet, Distribution(pi),
                    StochasticMatrix(P, labels), readout)


def hmm_to_iid_mixture(m: HMMModel) -> IIDMixtureModel:
    """Lump each recurrence class of the hidden chain into one i.i.d. component.

    Component ``h`` emits ``F_h = sum_{x in C_h} p^h_x f_x`` (class stationary
    vector against the read-outs) with weight ``mu_h`` = initial mass of ``C_h``.
    The output law equals the input law whenever the input's output process is
    exchangeable; for chains whose rows are identical within each class (and
    invariant initial law) the equality is unconditional.
    """
    require_valid(m)
    dec = decompose(m.P)
    if dec.transient:
        raise TransientStatesError(
            f"underlying chain has transient states {list(dec.transient)}"
        )
    weights, components = [], []
    for members, stat in zip(dec.classes, dec.stationary):
        idx = list(members)
        mu = float(m.pi.weights[idx].sum())
        if mu <= 0.0:
            warnings.warn(f"dropping recurrence class {idx}: zero initial mass")
            continue
        components.append(Distribution(contract(stat.weights, m.readout[idx])))
        weights.append(mu)
    if not components:
        raise ConstructionError("every recurrence class carries zero initial mass")
    return IIDMixtureModel(m.alphabet, Distribution(np.array(weights)), tuple(components))


def has_block_iid_structure(m: HMMModel, tol: float = 1e-9) -> bool:
    """True if the chain has identical rows within each recurrence class, no
    transient states, and an invariant initial law (the lumping hypothesis under
    which ``hmm_to_iid_mixture`` preserves the law unconditionally)."""
    R = reachability(m.P.rows > EDGE_TOL)
    if not (R <= R.T).all():
        return False
    for idx in recurrence_classes(R):
        block = m.P.rows[idx]
        if float(np.max(np.abs(block - block[0]))) > tol:
            return False
    drift = float(np.max(np.abs(contract(m.pi.weights, m.P.rows) - m.pi.weights)))
    return drift <= tol


# --- partitioned (fine-alphabet) construction -------------------------------


def point_i0_law(m: PartitionedKernelMixture) -> Distribution:
    """Default previous-cell initial law: all mass on the reserved cell index 0."""
    v = np.zeros(m.partition.n_cells + 1)
    v[0] = 1.0
    return Distribution(v)


def uniform_i0_law(m: PartitionedKernelMixture) -> Distribution:
    J = m.partition.n_cells
    return Distribution(np.full(J + 1, 1.0 / (J + 1)))


def geometric_i0_law(m: PartitionedKernelMixture) -> Distribution:
    """Weights proportional to ``2^-(i+1)`` truncated to the finite cell-index set."""
    J = m.partition.n_cells
    w = 0.5 ** (np.arange(J + 1) + 1)
    return Distribution(w / w.sum())


def partitioned_product_states(m: PartitionedKernelMixture) -> list[tuple[int, int, int]]:
    """The full (component, previous cell, current cell) product, before pruning."""
    J = m.partition.n_cells
    return [(h, i, j) for h in range(m.n_components)
            for i in range(J + 1) for j in range(J + 1)]


def partitioned_mixture_to_hmm(m: PartitionedKernelMixture,
                               i0_law: Distribution | None = None) -> HMMModel:
    """Hidden chain on (component, previous cell, current cell) triples.

    State ``(h, i, j)`` reads out the kernel row ``t_h(i, .)`` restricted to cell
    ``E_j`` and renormalized; transitions move ``(h, i, j) -> (h, j, j')`` with
    probability ``t_h(j, E_{j'})``. The previous-cell coordinate of the initial
    states is drawn from ``i0_law`` (over cell indices 0..J) and marginalizes out
    of the law of ``Y_1, Y_2, ...``, so any choice yields the same output law.

    Index 0 stands for the never-revisited reserved cell; its kernel row is
    defined as the point mass at ``y0``, which makes the default ``i0_law``
    (all mass on index 0) emit ``Y_0 = y0`` deterministically. Unreachable
    triples -- in particular all zero-kernel-mass states -- are pruned.
    """
    require_valid(m)
    i0 = point_i0_law(m) if i0_law is None else i0_law
    J, K, H = m.partition.n_cells, m.alphabet.size, m.n_components
    if i0.size != J + 1:
        raise ConstructionError(f"i0_law must cover cell indices 0..{J}")
    if np.any(i0.weights < 0) or abs(float(i0.weights.sum()) - 1.0) > 1e-12:
        raise ConstructionError("i0_law is not a distribution")
    cell_of = m.cell_index_array            # (K,), values 1..J
    y0 = m.alphabet.emit_index(m.y0)

    # extended kernel: row 0 is the reserved-cell row, defined as delta_{y0}
    ext = np.zeros((H, J + 1, K))
    ext[:, 1:, :] = m.kernels
    ext[:, 0, y0] = 1.0
    # cell masses: mass[h, i, j] = t_h(i, E_j) for j = 1..J (into cell 0 is 0)
    mass = np.zeros((H, J + 1, J + 1))
    for j in range(1, J + 1):
        mass[:, :, j] = ext[:, :, cell_of == j].sum(axis=2)

    states = partitioned_product_states(m)
    pos = {s: p for p, s in enumerate(states)}
    n = len(states)
    pi = np.zeros(n)
    for h in range(H):
        emittable_i = [i for i in range(J + 1) if mass[h, i, 1] > 0.0]
        z = float(i0.weights[emittable_i].sum())
        if z <= 0.0:
            raise ConstructionError(
                f"component {h}: i0_law puts no mass on states that can emit into cell 1"
            )
        for i in emittable_i:
            pi[pos[(h, i, 1)]] = m.weights[h] * i0[i] / z

    P = np.zeros((n, n))
    readout = np.zeros((n, K))
    for p, (h, i, j) in enumerate(states):
        if j >= 1 and mass[h, i, j] > 0.0:
            readout[p] = np.where(cell_of == j, ext[h, i], 0.0) / mass[h, i, j]
        for j2 in range(1, J + 1):
            if mass[h, j, j2] > 0.0:
                P[p, pos[(h, j, j2)]] = mass[h, j, j2]

    labels = tuple(f"h{h}|i{i}|j{j}" for (h, i, j) in states)
    labels, pi, P, readout = _prune_hidden(labels, pi, P, readout)
    return HMMModel(labels, m.alphabet, Distribution(pi),
                    StochasticMatrix(P, labels), readout)


# --- exact inversion of the product construction ----------------------------


def hmm_to_markov_mixture_exact(m: HMMModel) -> MarkovMixtureModel:
    """Invert ``markov_mixture_to_hmm`` on HMMs carrying its product structure.

    Requires exactly deterministic read-outs, a block-diagonal transition matrix
    (blocks = weakly connected components of the positive-transition graph),
    one initial state per block, a common emitted start symbol, and distinct
    emitted symbols within each block. Unreached symbols get self-loop rows.
    """
    require_valid(m)
    K = m.alphabet.size
    emit = []
    for x, row in enumerate(m.readout):
        top = int(np.argmax(row))
        rest = np.delete(row, top)
        if abs(row[top] - 1.0) > 1e-12 or (rest.size and float(rest.max()) > 1e-12):
            raise StructureError(
                f"read-out of hidden state {m.hidden_states[x]!r} is not deterministic; "
                "use recovery.lln_recover for general HMMs"
            )
        emit.append(top)

    edges = m.P.rows > EDGE_TOL
    blocks = recurrence_classes(reachability(edges | edges.T))
    weights, components, y0_candidates = [], [], []
    dropped = 0
    for block in blocks:
        mu = float(m.pi.weights[block].sum())
        if mu <= 0.0:
            warnings.warn(f"dropping block {block}: zero initial mass")
            dropped += 1
            continue
        support = [x for x in block if m.pi.weights[x] > 0.0]
        if len(support) != 1:
            raise StructureError(
                "initial mass is not concentrated on one state per block; "
                "use recovery.lln_recover for general HMMs"
            )
        symbols = [emit[x] for x in block]
        if len(set(symbols)) != len(symbols):
            raise StructureError(
                "two states of one block emit the same symbol; "
                "use recovery.lln_recover for general HMMs"
            )
        y0_candidates.append(emit[support[0]])
        rows = np.eye(K)
        for u in block:
            rows[emit[u], :] = 0.0
            for v in block:
                rows[emit[u], emit[v]] = m.P.rows[u, v]
        weights.append(mu)
        components.append(StochasticMatrix(rows, m.alphabet.emittable))
    if not components:
        raise ConstructionError("every block carries zero initial mass")
    if len(set(y0_candidates)) != 1:
        raise StructureError("blocks disagree on the start symbol; not in the image "
                             "of markov_mixture_to_hmm")
    y0 = m.alphabet.emittable[y0_candidates[0]]
    for h, comp in enumerate(components):
        if not is_recurrent(comp, [y0]):
            raise StructureError(
                f"recovered component {h} is not recurrent from {y0!r}; "
                "use recovery.lln_recover for general HMMs"
            )
    return MarkovMixtureModel(m.alphabet, y0, Distribution(np.array(weights)),
                              tuple(components))


# --- shared helpers ----------------------------------------------------------


def _prune_hidden(labels, pi, P, readout):
    """Restrict to states reachable from the initial support; law-preserving."""
    keep = np.flatnonzero(reachability(P > EDGE_TOL)[pi > 0].any(axis=0))
    if len(keep) == len(labels):
        return labels, pi, P, readout
    return (tuple(labels[i] for i in keep), pi[keep],
            P[np.ix_(keep, keep)], readout[keep])
