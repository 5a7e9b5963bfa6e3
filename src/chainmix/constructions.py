"""Model conversions between mixtures and hidden Markov models.

The three forward constructions, each an executable law-preserving map:

* ``iid_mixture_to_hmm``        identity hidden chain, one state per component
* ``markov_mixture_to_hmm``     hidden space = (symbol, component) pairs, direct-sum
  transition matrix, Kronecker-delta read-outs on the symbol coordinate
* ``partitioned_mixture_to_hmm``  hidden space = (component, previous cell, current
  cell) triples with renormalized kernel restrictions as read-outs

and two inverses, ``hmm_to_iid_mixture`` and ``hmm_to_markov_mixture_exact``: one
component per recurrence class of the hidden chain (reached transient states refused),
weighted by its initial mass and built from its stationary vector. Each inverse
certifies that its output's forward construction has the input's law at every
horizon, and refuses anything else with a ``StructureError`` that points to
statistical recovery.
"""

from __future__ import annotations

import math
import warnings
from collections import deque

import numpy as np

from .chain_analysis import EDGE_TOL, decompose, is_recurrent, reachability
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
    _cell_masses,
    _check_distribution,
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
    if violations := _check_distribution(i0.weights, "i0_law"):
        raise ConstructionError(f"i0_law is not a distribution ({'; '.join(violations)})")
    # cell masses: mass[h, i, j] = t_h(i, E_j); row 0, the reserved cell, is the point
    # mass at y0, which lies in E_1; nothing enters cell 0
    mass = np.zeros((H, J + 1, J + 1))
    mass[:, 1:, 1:], mass[:, 0, 1] = _cell_masses(m), 1.0
    live = mass > 0.0
    # one subset sum per component: a masked full-length sum may group the terms otherwise
    z = np.array([i0.weights[emits].sum() for emits in live[:, :, 1]])
    if not (z > 0.0).all():
        raise ConstructionError(f"component {int(np.argmin(z > 0.0))}: i0_law puts no mass "
                                f"on states that can emit into cell 1")

    # triple (h, i, j) has flat index (h (J + 1) + i) (J + 1) + j and moves to (h, j, j')
    h, i, j = np.indices((H, J + 1, J + 1))
    pi = np.zeros((H, J + 1, J + 1))
    start = m.weights.weights[:, None] * i0.weights / z[:, None]
    pi[:, :, 1] = np.where(live[:, :, 1], start, 0.0)
    P = np.zeros((H, J + 1, J + 1) * 2)
    P[h, i, j, h, j] = mass[h, j]
    ext = np.concatenate([np.broadcast_to(np.eye(K)[m.alphabet.emit_index(m.y0)], (H, 1, K)),
                          m.kernels], axis=1)     # kernel rows by cell index, row 0 delta_y0
    inside = m.cell_index_array == j[..., None]    # zero-mass triples are pruned below
    readout = np.where(inside, ext[h, i], 0.0) / np.where(live, mass, 1.0)[..., None]

    n = H * (J + 1) ** 2
    labels = tuple(f"h{h}|i{i}|j{j}" for (h, i, j) in partitioned_product_states(m))
    labels, pi, P, readout = _prune_hidden(labels, pi.ravel(), P.reshape(n, n),
                                           readout.reshape(n, K))
    return HMMModel(labels, m.alphabet, Distribution(pi),
                    StochasticMatrix(P, labels), readout)


# --- inverse constructions, certified ---------------------------------------


def hmm_to_iid_mixture(m: HMMModel) -> IIDMixtureModel:
    """One i.i.d. component per recurrence class: its stationary vector against the read-outs."""
    weights, classes = _weighted_classes(m)
    out = IIDMixtureModel(m.alphabet, weights, tuple(
        Distribution(contract(stat, m.readout[idx])) for idx, stat in classes))
    _certify(m, iid_mixture_to_hmm(out), "i.i.d. mixture")
    return out


def hmm_to_markov_mixture_exact(m: HMMModel) -> MarkovMixtureModel:
    """One Markov component per recurrence class: row ``a`` mixes its states' next-symbol laws
    by ``stationary * R[:, a]``, a self-loop if it never emits ``a``; ``y0`` is the likeliest."""
    weights, classes = _weighted_classes(m)
    PR, K = contract(m.P.rows, m.readout), m.alphabet.size
    components = []
    for idx, stat in classes:
        W = (stat[:, None] * m.readout[idx]).T
        mass = np.array([math.fsum(w) for w in W])[:, None]
        rows = contract(W / np.where(mass > 0, mass, 1.0), PR[idx])
        components.append(StochasticMatrix(np.where(mass > 0, rows, np.eye(K)),
                                           m.alphabet.emittable))
    y0 = m.alphabet.emittable[int(np.argmax(contract(m.pi.weights, m.readout)))]
    out = MarkovMixtureModel(m.alphabet, y0, weights, tuple(components))
    _certify(m, markov_mixture_to_hmm(out), "Markov mixture")
    return out


def _weighted_classes(m: HMMModel):
    """Initial masses and ``(members, stationary vector)`` of the recurrence classes of a
    valid HMM's hidden chain; a transient state it reaches is refused, zero-mass classes
    are dropped, and states it never reaches do not enter the law."""
    require_valid(m)
    dec = decompose(m.P)
    if not is_recurrent(m.P, np.flatnonzero(m.pi.weights > 0)):
        raise TransientStatesError(f"underlying chain reaches a transient state from its "
                                   f"initial law (transient: {list(dec.transient)})")
    weights, classes = [], []
    for idx, stat in zip(map(list, dec.classes), dec.stationary):
        mu = float(m.pi.weights[idx].sum())
        if mu <= 0.0:
            warnings.warn(f"dropping recurrence class {idx}: zero initial mass")
            continue
        weights.append(mu)
        classes.append((idx, stat.weights))
    return Distribution(np.array(weights)), classes


def _certify(m: HMMModel, image: HMMModel, name: str) -> None:
    """``StructureError`` unless ``image`` has the law of ``m`` at every horizon: on the
    direct sum of the chains (``n`` states), ``eta = [1, -1] / sqrt(n)`` must be orthogonal
    to the span of the forward vectors ``(pi o R[:, w0]) M_w1 ... M_wN``, ``M_y = P
    diag(R[:, y])`` (Schutzenberger 1961; Tzeng 1992), closed breadth first with two
    projections per vector. A vector's noise is its level (``n u``, or its source's plus
    ``n u``) times its norm plus its coefficients times the basis directions' noise; a
    remainder within 64 noises adds no direction, and a direction ``q`` refutes equality
    when ``|q . eta|`` exceeds 64 times its noise over the remainder's norm."""
    na, n = m.n_hidden, m.n_hidden + image.n_hidden
    P = np.zeros((n, n))
    P[:na, :na], P[na:, na:] = m.P.rows, image.P.rows
    R = np.vstack([m.readout, image.readout])
    eta = np.repeat([1.0, -1.0], [na, n - na]) / math.sqrt(n)
    nu = n * np.finfo(float).eps / 2
    Q, noise_q, k = np.zeros((n, n)), np.zeros(n), 0
    queue = deque((v, nu) for v in np.concatenate([m.pi.weights, image.pi.weights]) * R.T)
    while queue and k < n:
        v, level = queue.popleft()
        c = contract(Q[:k], v[:, None])[:, 0]
        noise = level * math.sqrt(math.fsum(v * v)) + math.fsum(np.abs(c) * noise_q[:k])
        r = v - contract(c, Q[:k])
        r = r - contract(contract(Q[:k], r[:, None])[:, 0], Q[:k])
        norm = math.sqrt(math.fsum(r * r))
        if norm <= 64 * noise:
            continue
        Q[k], noise_q[k] = r / norm, noise / norm
        dot, bound = abs(contract(Q[k], eta[:, None])[0]), 64 * noise_q[k]
        if dot > bound:
            raise StructureError(f"the {name} of the recurrence classes does not have this "
                                 f"HMM's law: |q.eta| = {dot:.3e} exceeds its rounding bound "
                                 f"{bound:.3e}; use recovery.lln_recover for general HMMs")
        queue.extend((w, noise_q[k] + nu) for w in contract(Q[k], P) * R.T)
        k += 1


# --- shared helpers ----------------------------------------------------------


def _prune_hidden(labels, pi, P, readout):
    """Restrict to states reachable from the initial support; law-preserving."""
    keep = np.flatnonzero(reachability(P > EDGE_TOL)[pi > 0].any(axis=0))
    if len(keep) == len(labels):
        return labels, pi, P, readout
    return (tuple(labels[i] for i in keep), pi[keep],
            P[np.ix_(keep, keep)], readout[keep])
