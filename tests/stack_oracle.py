"""Per-element references for the stacked searches, statistics and tables.

The package scores dephasing bases, POVM statistics and group products on
whole stacks.  These are the loops they replaced, one candidate,
(state, effect) pair or product at a time, kept as their oracles.
"""

import math

import numpy as np

import frameness as fr
from frameness.groups import RepresentationError
from frameness.states import COMPOSED_TOL, _entropy_of_spectrum


def per_candidate_dephasing_search(rho, unitaries=None, random_trials=0, seed=0, side="B"):
    """(best value, best unitary): the identity, the given bases and Haar draws, each scored
    through its own lifted dephasing channel."""
    d = rho.dim_b if side == "B" else rho.dim_a
    candidates = [np.eye(d, dtype=complex)]
    if unitaries is not None:
        candidates.extend(np.asarray(u, dtype=complex) for u in unitaries)
    rng = np.random.default_rng(seed)
    candidates.extend(fr.haar_unitary(d, rng) for _ in range(random_trials))
    best_u, best_val = None, math.inf
    for u in candidates:
        val = fr.relative_entropy_to_image(fr.lifted_dephasing_channel(rho, u, side), rho.state)
        if val < best_val:
            best_u, best_val = u, val
    return best_val, best_u


def per_element_mutual_information(ens, povm):
    """H(g' : g) from Tr(rho_g E_e) taken one state and one effect at a time."""
    cond = [[float(np.real(np.trace(s.matrix @ e))) for e in povm.effects] for s in ens.states]
    joint = np.clip(cond, 0.0, None) / ens.size
    total = (_entropy_of_spectrum(joint.sum(axis=1)) + _entropy_of_spectrum(joint.sum(axis=0))
             - _entropy_of_spectrum(joint.ravel()))
    return float(max(0.0, total))


def per_outcome_random_povm_effects(dim, n_outcomes, rng):
    """random_povm's effects, each Wishart factor drawn and normalized on its own."""
    raw = []
    for _ in range(n_outcomes):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(z @ z.conj().T)
    lams, vecs = np.linalg.eigh(sum(raw))
    inv_sqrt = (vecs / np.sqrt(lams)) @ vecs.conj().T
    return [inv_sqrt @ r @ inv_sqrt for r in raw]


def per_product_group_table(unitaries):
    """The multiplication table, each product matched against each element in turn."""
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    n = len(us)
    table = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            prod = us[i] @ us[j]
            hits = [k for k, u in enumerate(us) if np.abs(prod - u).max() <= COMPOSED_TOL]
            if len(hits) != 1:
                raise RepresentationError(
                    f"product T(g{i})T(g{j}) matches {len(hits)} elements; set not closed"
                )
            table[i, j] = hits[0]
    return table


def per_product_homomorphism_deviation(rep):
    """(worst |T(g_i) T(g_j) - T(g_i g_j)|, its first pair (i, j) in row-major order)."""
    worst, first = 0.0, None
    for i in range(rep.order):
        for j in range(rep.order):
            dev = float(np.abs(rep.unitaries[i] @ rep.unitaries[j]
                               - rep.unitaries[rep.table[i, j]]).max())
            if dev > worst:
                worst, first = dev, (i, j)
    return worst, first
