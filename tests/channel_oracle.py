"""Per-matrix and Kraus-sum references for the channel calculus.

``per_sample_image_fix_check`` is the image = fix check one state at a time:
``samples`` calls of ``random_density_operator`` on one rng, each mapped by
the 2-D ``apply_matrix``.  ``kraus_pinching`` is the pinching as the Kraus
sum over its projectors, and ``kraus_twirl`` the finite-group twirl as the
|G|-term Kraus sum {U_g / sqrt|G|}.  The package builds both as block
projections and maps sampled states in stacks; these are their oracles.
``identity_channel`` and the Kraus JSON round trip serve the tests alone.
"""

import numpy as np

import frameness as fr
from frameness.states import (COMPOSED_TOL, ShapeMismatchError, _declared_int,
                              complex_matrix_from_json, complex_matrix_to_json)


def per_sample_image_fix_check(ch, samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        rho = fr.random_density_operator(ch.dim, rng)
        image = ch.apply_matrix(rho.matrix)
        worst = max(worst, float(np.abs(ch.apply_matrix(image) - image).max()))
    return fr.ImageFixReport(idempotent=ch.is_idempotent(), all_image_states_fixed=worst <= COMPOSED_TOL,
                             max_refix_deviation=worst, samples=samples)


def kraus_pinching(projectors):
    """rho -> sum_k P_k rho P_k as a Kraus channel (completeness checked, projector property not)."""
    return fr.KrausChannel([np.asarray(p, dtype=complex) for p in projectors])


def kraus_twirl(unitaries):
    """rho -> mean_g U_g rho U_g^dag as the Kraus channel {U_g / sqrt|G|}."""
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    return fr.KrausChannel([u / np.sqrt(len(us)) for u in us])


def identity_channel(dim):
    return fr.KrausChannel([np.eye(dim)])


def kraus_channel_to_json(ch):
    return {"dim": ch.dim, "kraus": [complex_matrix_to_json(k) for k in ch.kraus_channel().kraus]}


def kraus_channel_from_json(obj):
    ch = fr.KrausChannel([complex_matrix_from_json(k) for k in obj["kraus"]])
    dim = _declared_int(obj, "dim", ShapeMismatchError)
    if dim is not None and dim != ch.dim:
        raise ShapeMismatchError(f"declared dim {dim} but operators are {ch.dim}x{ch.dim}")
    return ch
