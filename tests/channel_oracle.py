"""Per-matrix, Kraus-sum and brute-force references for the channel calculus.

``per_sample_image_fix_check`` is the image = fix check one state at a time:
``samples`` calls of ``random_density_operator`` on one rng, each mapped by
the 2-D ``apply_matrix``.  ``kraus_pinching`` is the pinching as the Kraus
sum over its projectors, and ``kraus_twirl`` the finite-group twirl as the
|G|-term Kraus sum {U_g / sqrt|G|}.  The package builds both as block
projections and maps sampled states in stacks; these are their oracles.
``kraus_channel`` writes any block projection as its Kraus sum, and
``commutant_fixed_point_check`` reads the fixed points off that sum.
``invariant_state_oracle`` brackets the asymmetry by searching the image of a
twirl.  ``identity_channel`` and the Kraus JSON round trip serve the tests alone.
"""

import math

import numpy as np

import frameness as fr
from frameness.states import (COMPOSED_TOL, EIG_CUTOFF, IDENTITY_TOL, ShapeMismatchError, _declared_int,
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
    return {"dim": ch.dim, "kraus": [complex_matrix_to_json(k) for k in kraus_channel(ch).kraus]}


def kraus_channel_from_json(obj):
    ch = fr.KrausChannel([complex_matrix_from_json(k) for k in obj["kraus"]])
    dim = _declared_int(obj, "dim", ShapeMismatchError)
    if dim is not None and dim != ch.dim:
        raise ShapeMismatchError(f"declared dim {dim} but operators are {ch.dim}x{ch.dim}")
    return ch


def kraus_channel(ch):
    """The Kraus form of ``ch``: a KrausChannel itself, a block projection as
    {U_{q,r} U_{q,s}^dag / sqrt(m_q)} (U_{q,r}: the columns of slab r of sector q)."""
    if isinstance(ch, fr.KrausChannel):
        return ch
    kraus = []
    for (m, n), slabs in zip(ch.blocks, ch._slabs):
        cols = []
        for b, c in slabs:
            r, _, u = ch.basis[b]
            col = np.zeros((ch.dim, n), dtype=float if u is None else u.dtype)
            col[r] = np.eye(r.size)[:, c:c + n] if u is None else u[:, c:c + n]
            cols.append(col)
        kraus += [k @ k2.conj().T / math.sqrt(m) for k in cols for k2 in cols]
    return fr.KrausChannel(kraus)


def commutant_fixed_point_check(ch, tau):
    """True iff tau commutes with every Kraus operator of ``ch`` and its adjoint.

    For unital channels the commutant of {E_a, E_a^dag} is exactly the fixed
    point algebra, so a True verdict is cross-checked against the Schrodinger
    action on tau/Tr(tau).
    """
    if not ch.is_unital():
        raise fr.ChannelPreconditionError("commutant fixed-point test needs a unital channel")
    tau = np.asarray(tau, dtype=complex)
    for k in kraus_channel(ch).kraus:
        for e in (k, k.conj().T):
            if float(np.abs(tau @ e - e @ tau).max()) > IDENTITY_TOL:
                return False
    tr = complex(np.trace(tau))
    if abs(tr) > EIG_CUTOFF:
        state = tau / tr
        dev = float(np.abs(ch.apply_matrix(state) - state).max())
        if dev > IDENTITY_TOL:
            raise fr.FramenessError(
                f"commuting operator not fixed by the channel (dev {dev:.3e}); tolerances inconsistent"
            )
    return True


def invariant_state_oracle(twirl, rho, trials=100, seed=0):
    """Brute-force the minimization of S(rho || sigma) over invariant states sigma.

    Candidates are twirls of random states (invariant because the twirl is
    idempotent), convex mixtures of those with G(rho), and G(rho) itself, so
    the result can never exceed the closed-form value and bounds it from
    above within numerical tolerance.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    g_rho = twirl.apply(rho)
    best = fr.relative_entropy(rho, g_rho)
    for t in range(trials):
        if t % 2 == 0:
            tau = fr.random_density_operator(twirl.dim, rng)
        else:
            tau = fr.random_pure_state(twirl.dim, rng).projector()
        sigma = twirl.apply(tau)
        best = min(best, fr.relative_entropy(rho, sigma))
        lam = float(rng.uniform(0.05, 0.95))
        mixed = fr.DensityOperator(lam * sigma.matrix + (1 - lam) * g_rho.matrix)
        best = min(best, fr.relative_entropy(rho, mixed))
    return best
