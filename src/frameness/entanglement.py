"""Dephasing upper bounds on the relative entropy of entanglement.

Dephasing one subsystem along any orthonormal basis is entanglement breaking,
unital and idempotent, so the relative-entropy distance from rho to the
channel's (separable) image is exactly the entropy gap of the lifted channel.
The lifted channel is a :class:`~frameness.channels.BlockProjection` (idempotent
by its form, no Kraus operators), so the gap comes from one block per outcome.
Minimizing that gap over the dephasing basis bounds the relative entropy of
entanglement from above; the coherent information S(rho_A) - S(rho_AB) bounds
it from below.  For two qubits the basis unitary is parameterized by two
angles and the optimization is a deterministic grid search plus local
refinement.  The grid and the refinement share one kernel, the two dephased
2 x 2 blocks broadcast over angle arrays (:func:`_dephased_entropy`), with
S(rho) taken once per optimization; neither builds a lifted channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BlockProjection, relative_entropy_to_image
from .sampling import haar_unitary
from .states import (
    TIGHT_TOL,
    DensityOperator,
    ShapeMismatchError,
    _entropy_of_spectrum,
    partial_trace,
    von_neumann_entropy,
)

@dataclass
class BipartiteState:
    """A state on H_A (x) H_B with A-major index ordering."""

    dim_a: int
    dim_b: int
    state: DensityOperator

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.state.dim:
            raise ShapeMismatchError(
                f"dims {self.dim_a}x{self.dim_b} do not factor {self.state.dim}"
            )

    def reduced_a(self) -> DensityOperator:
        return partial_trace(self.state, (self.dim_a, self.dim_b), keep=0)


def bell_diagonal_state(p: float) -> BipartiteState:
    """p |phi+><phi+| + (1-p) |phi-><phi-| on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    plus = np.zeros(4, dtype=complex)
    plus[[0, 3]] = 1 / math.sqrt(2)
    minus = np.zeros(4, dtype=complex)
    minus[0], minus[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    m = p * np.outer(plus, plus.conj()) + (1 - p) * np.outer(minus, minus.conj())
    return BipartiteState(2, 2, DensityOperator(m))


def lifted_dephasing_channel(rho: BipartiteState, basis_unitary, side: str = "B") -> BlockProjection:
    """The dephasing lifted to the joint space: I (x) D_U (side B) or D_U (x) I.

    Its basis is I (x) U with columns ordered by outcome and blocks (1, d_A), or U (x) I.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    u = np.asarray(basis_unitary)  # checked unitary, as I (x) U, by BlockProjection
    d_kept, d_measured = (rho.dim_a, rho.dim_b) if side == "B" else (rho.dim_b, rho.dim_a)
    if u.shape[0] != d_measured:
        raise ShapeMismatchError(f"unitary dim {u.shape[0]} vs {side} dim {d_measured}")
    eye = np.eye(d_kept)
    if side == "B":
        basis = np.einsum("ij,bk->ibkj", eye, u)  # I (x) U, column k d_A + a
    else:
        basis = np.einsum("ak,bj->abkj", u, eye)  # U (x) I
    return BlockProjection(basis.reshape(rho.state.dim, -1), [(1, d_kept)] * d_measured)


def dephasing_upper_bound(rho: BipartiteState, basis_unitary, side: str = "B") -> float:
    """S((I (x) D_U)(rho)) - S(rho): an upper bound on the relative entropy of entanglement."""
    return relative_entropy_to_image(lifted_dephasing_channel(rho, basis_unitary, side), rho.state)


def two_qubit_parameterized_unitary(theta: float, gamma: float) -> np.ndarray:
    """cos(theta) diag(1,-1) + sin(theta) offdiag(e^{i gamma}, e^{-i gamma}).

    Hermitian with unit square, hence unitary for all angles; as theta and
    gamma sweep, the columns run over every orthonormal qubit basis.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[c, s * np.exp(1j * gamma)], [s * np.exp(-1j * gamma), -c]], dtype=complex
    )


def hashing_lower_bound(rho: BipartiteState) -> float:
    """Coherent information S(rho_A) - S(rho_AB), clamped at zero."""
    gap = von_neumann_entropy(rho.reduced_a()) - von_neumann_entropy(rho.state)
    return max(0.0, gap)


@dataclass
class BoundReport:
    """Two-sided sandwich on the relative entropy of entanglement, in bits."""

    upper: float
    lower: float
    theta: float | None = None
    gamma: float | None = None
    unitary: np.ndarray | None = None

    @property
    def tight(self) -> bool:
        return abs(self.upper - self.lower) <= TIGHT_TOL

    def to_json_dict(self) -> dict:
        out = {"upper": self.upper, "lower": self.lower, "tight": self.tight}
        if self.theta is not None:
            out["theta"] = self.theta
            out["gamma"] = self.gamma
        return out


def _dephased_entropy(rho4: np.ndarray, theta, gamma, side: str):
    """S(E_{theta,gamma}(rho)) for the 2 x 2 x 2 x 2 reshaped rho, broadcast over the angle arrays.

    E_{theta,gamma} dephases one qubit along the columns of
    two_qubit_parameterized_unitary(theta, gamma); its image is block diagonal
    with the two 2 x 2 blocks sigma_k = <u_k| rho |u_k> (partial on the measured qubit).
    """
    c, e = np.cos(theta), np.sin(theta) * np.exp(1j * gamma)
    shape = np.broadcast_shapes(np.shape(c), np.shape(e))
    # cols[..., k, :] is column k of two_qubit_parameterized_unitary(theta, gamma)
    cols = np.empty(shape + (2, 2), dtype=complex)
    cols[..., 0, 0], cols[..., 0, 1], cols[..., 1, 0], cols[..., 1, 1] = c, np.conj(e), e, -c
    spec = "...kb,abAB,...kB->...kaA" if side == "B" else "...ka,abAB,...kA->...kbB"
    blocks = np.einsum(spec, cols.conj(), rho4, cols)
    # both blocks' eigenvalues in one row of four: the entropies' sum is one entropy call
    return _entropy_of_spectrum(np.linalg.eigvalsh(blocks).reshape(shape + (4,)))


def _reduced_angles(theta: float, gamma: float) -> tuple[float, float]:
    """Reduce to theta in [0, pi/4], gamma in [0, 2 pi) ([0, pi) at theta 0 or pi/4): the twins
    (theta + pi/2, gamma), (pi - theta, gamma + pi), (pi/2 - theta, gamma + pi) give the same basis."""
    theta %= math.pi / 2
    if theta > math.pi / 4:
        theta, gamma = math.pi / 2 - theta, gamma + math.pi
    return theta, gamma % (math.pi if theta in (0.0, math.pi / 4) else 2.0 * math.pi)


def optimize_two_qubit_bound(rho: BipartiteState, grid: int = 64, side: str = "B") -> BoundReport:
    """Minimize the dephasing bound over the two-angle family on two qubits.

    Deterministic: a grid x grid scan of [0, pi) x [0, 2 pi) followed by
    Nelder-Mead refinement started from the three best grid points.  The
    returned angles are reduced by :func:`_reduced_angles`.
    """
    if rho.dim_a != 2 or rho.dim_b != 2:
        raise ShapeMismatchError("two-angle optimization needs a 2 x 2 qubit pair")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if grid < 1:
        raise ValueError(f"grid must be a positive number of angles per axis, got {grid}")
    rho4, s_rho = rho.state.matrix.reshape(2, 2, 2, 2), von_neumann_entropy(rho.state)
    thetas = np.arange(grid) * math.pi / grid
    gammas = np.arange(grid) * 2.0 * math.pi / grid
    flat = (_dephased_entropy(rho4, thetas[:, None], gammas[None, :], side) - s_rho).ravel()
    order = np.argsort(flat, kind="stable")[:3]
    starts = [(thetas[i // grid], gammas[i % grid]) for i in order]

    def objective(x):
        return _dephased_entropy(rho4, x[0], x[1], side) - s_rho

    import scipy.optimize  # here, not at module level: nothing else in the package needs scipy

    best_val = float(flat[order[0]])
    best_x = np.array(starts[0])
    for x0 in starts:
        res = scipy.optimize.minimize(
            objective, np.array(x0), method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 200},
        )
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    theta, gamma = _reduced_angles(float(best_x[0]), float(best_x[1]))
    return BoundReport(
        upper=best_val,
        lower=hashing_lower_bound(rho),
        theta=theta,
        gamma=gamma,
        unitary=two_qubit_parameterized_unitary(theta, gamma),
    )


def optimize_dephasing_bound(rho: BipartiteState, unitaries=None, random_trials: int = 0,
                             seed: int = 0, side: str = "B") -> BoundReport:
    """Minimize the dephasing bound over user-supplied bases and/or random search.

    For subsystems beyond a qubit there is no two-angle parameterization, so
    the caller either provides candidate basis unitaries or requests a seeded
    Haar random search.  The identity basis is always included.
    """
    d = rho.dim_b if side == "B" else rho.dim_a
    candidates = [np.eye(d, dtype=complex)]
    if unitaries is not None:
        candidates.extend(np.asarray(u, dtype=complex) for u in unitaries)
    rng = np.random.default_rng(seed)
    candidates.extend(haar_unitary(d, rng) for _ in range(random_trials))
    best_u, best_val = None, math.inf
    for u in candidates:
        val = dephasing_upper_bound(rho, u, side)
        if val < best_val:
            best_u, best_val = u, val
    return BoundReport(upper=best_val, lower=hashing_lower_bound(rho), unitary=best_u)
