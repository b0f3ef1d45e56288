"""Seeded random matrices and states used by the property suites.

Density operators are sampled by drawing eigenvalues uniformly from the
probability simplex and conjugating by a Haar unitary, so full rank holds
almost surely and the distribution is unitarily invariant by construction.
"""

from __future__ import annotations

import numpy as np

from .states import DensityOperator, PureState, _validated_density


def _ginibre_stack(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, d, d) unscaled complex Gaussian matrices A + iB: one rng call, drawing the same
    values in the same order as ``count`` pairs of (d, d) draws (A, then B)."""
    g = rng.standard_normal((count, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Phase-corrected QR of one Ginibre matrix or a (..., d, d) stack of them."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag)).conj()[..., None, :]


def _haar_stack(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, d, d) Haar unitaries, bitwise equal to ``count`` :func:`haar_unitary` calls on rng."""
    return _haar_from_ginibre(_ginibre_stack(dim, rng, count) / np.sqrt(2))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    return _haar_stack(dim, rng, 1)[0]


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def _density_stack(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, d, d) stack of unvalidated density matrices, from the rng draws of
    ``count`` :func:`random_density_operator` calls, in their order."""
    lams = np.empty((count, dim))
    g = np.empty((count, 2, dim, dim))
    for k in range(count):
        lams[k] = rng.dirichlet(np.ones(dim))
        rng.standard_normal(out=g[k])  # sample k's Ginibre pair (A, then B), drawn in place
    u = _haar_from_ginibre((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    return (u * lams[:, None, :]) @ u.conj().swapaxes(-1, -2)


def random_density_operator(dim: int, rng: np.random.Generator) -> DensityOperator:
    return DensityOperator(_density_stack(dim, rng, 1)[0])


def _density_operators(dim: int, rng: np.random.Generator, count: int) -> list[DensityOperator]:
    """``count`` :func:`random_density_operator` draws, validated as one stack."""
    m, spectra = _validated_density(_density_stack(dim, rng, count))
    m.setflags(write=False)
    spectra.setflags(write=False)
    return [DensityOperator._of_checked(mk, sk) for mk, sk in zip(m, spectra)]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (z + z.conj().T) / 2.0
