"""Per-matrix references for the stacked channel calculus.

``per_sample_image_fix_check`` is the image = fix check one state at a time:
``samples`` calls of ``random_density_operator`` on one rng, each mapped by
the 2-D ``apply_matrix``.  ``kraus_pinching`` is the pinching as the Kraus
sum over its projectors.  The package builds pinchings as block projections
and maps sampled states in stacks; these are their oracles.
"""

import numpy as np

import frameness as fr
from frameness.states import COMPOSED_TOL


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
