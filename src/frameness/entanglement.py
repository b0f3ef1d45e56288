"""Dephasing upper bounds on the relative entropy of entanglement.

Dephasing one subsystem along any orthonormal basis is entanglement breaking,
unital and idempotent, so the relative-entropy distance from rho to the
channel's (separable) image is exactly the entropy gap of the lifted channel.
The lifted channel is a :class:`~frameness.channels.BlockProjection` (idempotent
by its form, no Kraus operators), so the gap comes from one block per outcome.
Minimizing that gap over the dephasing basis bounds the relative entropy of
entanglement from above; the coherent information S(rho_A) - S(rho_AB) bounds
it from below.

For two qubits the basis is parameterized by two angles, and the bound needs
no lifted channel and no eigensolver.  A basis is fixed by the Bloch vector n
of its first column, and the two dephased blocks are
sigma_+- = (rho_kept +- sum_i n_i R_i) / 2, with R_i the partial trace of rho
against sigma_i on the measured qubit.  :func:`_bloch_coefficients` tabulates
that affine map once per state; :func:`_dephased_entropy` evaluates it
elementwise and takes each 2 x 2 block's eigenvalues in closed form.  The
search is a grid scan, run in blocks of rows so its workspace stays bounded,
then Nelder-Mead from the three best grid points.  :func:`_nelder_mead` runs
the refinements of every start of every state in lockstep, with one batched
kernel call per kind of trial point, and repeats scipy's Nelder-Mead step for
step (scipy is its test oracle, not a dependency).  The lifted channel and
:func:`dephasing_upper_bound` remain the dense reference path and the general
basis search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BlockProjection, relative_entropy_to_image
from .sampling import haar_unitary
from .states import (
    DEGENERATE_ANGLE_TOL,
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


def _bloch_coefficients(matrix: np.ndarray, side: str) -> np.ndarray:
    """The 4 x 4 table of the affine map from a Bloch vector n to rho's two dephased blocks.

    Dephasing the measured qubit along the basis with Bloch vector +-n leaves the blocks
    sigma_+- = (rho_kept +- sum_i n_i R_i) / 2 on the kept qubit, with R_i the partial trace of
    rho against sigma_i on the measured qubit.  For each 2 x 2 Hermitian M = [[a, b], [b*, d]]
    the table keeps the row (a + d, a - d, 2 Re b, 2 Im b); column 0 is rho_kept, column i is R_i.
    """
    r4 = matrix.reshape(2, 2, 2, 2)
    # m[x, y] = the kept-qubit block of rho between measured outcomes x and y
    m = r4.transpose(1, 3, 0, 2) if side == "B" else r4.transpose(0, 2, 1, 3)
    terms = np.stack([m[0, 0] + m[1, 1], m[0, 1] + m[1, 0],
                      1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    return np.stack([(terms[:, 0, 0] + terms[:, 1, 1]).real, (terms[:, 0, 0] - terms[:, 1, 1]).real,
                     2.0 * terms[:, 0, 1].real, 2.0 * terms[:, 0, 1].imag])


def _dephased_entropy(coef: np.ndarray, theta, gamma):
    """S(E_{theta,gamma}(rho)) from rho's :func:`_bloch_coefficients`, broadcast over the angles.

    E_{theta,gamma} dephases one qubit along the columns of
    two_qubit_parameterized_unitary(theta, gamma), whose column 0 has the Bloch vector
    n = (sin 2 theta cos gamma, -sin 2 theta sin gamma, cos 2 theta).  ``coef`` is one
    4 x 4 table or a stack (..., 4, 4) broadcast against the angles.  Each dephased block
    sigma = M / 2 has the eigenvalues ((a + d)/2 +- hypot((a - d)/2, |b|)) / 2.
    """
    theta, gamma = np.asarray(theta)[..., None], np.asarray(gamma)[..., None]  # against coef's rows
    s2 = np.sin(2.0 * theta)
    n1, n2, n3 = s2 * np.cos(gamma), -(s2 * np.sin(gamma)), np.cos(2.0 * theta)
    # the affine map written out elementwise, so a point's value does not depend on its batch
    m = coef[..., 1] * n1 + coef[..., 2] * n2 + coef[..., 3] * n3
    blocks = np.stack([coef[..., 0] + m, coef[..., 0] - m])  # (2, ..., 4): sigma_+, sigma_-
    t = blocks[..., 0]
    r = np.sqrt(blocks[..., 1] ** 2 + blocks[..., 2] ** 2 + blocks[..., 3] ** 2)
    h = _entropy_of_spectrum(0.25 * np.stack([t + r, t - r], axis=-1))
    h = h[0] + h[1]
    return float(h) if np.ndim(h) == 0 else h


def _reduced_angles(theta: float, gamma: float) -> tuple[float, float]:
    """Reduce to theta in [0, pi/4], gamma in [0, 2 pi) ([0, pi) at theta pi/4): the twins
    (theta + pi/2, gamma), (pi - theta, gamma + pi), (pi/2 - theta, gamma + pi) give the same basis.

    Where |sin 2 theta| <= DEGENERATE_ANGLE_TOL the basis does not depend on gamma (within the
    optimizer's resolution), and the pair is (0, 0).
    """
    theta %= math.pi / 2
    if theta > math.pi / 4:
        theta, gamma = math.pi / 2 - theta, gamma + math.pi
    if abs(math.sin(2.0 * theta)) <= DEGENERATE_ANGLE_TOL:
        return 0.0, 0.0
    return theta, gamma % (math.pi if theta == math.pi / 4 else 2.0 * math.pi)


# scipy's Nelder-Mead with the refinement's options: the stopping tolerances and iteration
# cap; the reflection, expansion, contraction and shrink coefficients; the initial simplex's
# relative step, and its step along a zero coordinate
_NM_XATOL, _NM_FATOL, _NM_MAXITER = 1e-7, 1e-10, 200
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
# angle pairs per block of the grid scan: bounds its workspace to a few MB
_GRID_BLOCK_PAIRS = 1 << 14


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray):
    order = np.argsort(fsim, axis=1)  # scipy's argsort, row by row: the same ties
    return np.take_along_axis(sim, order[..., None], 1), np.take_along_axis(fsim, order, 1)


def _nelder_mead(objective, x0: np.ndarray):
    """Minimize from each row of ``x0`` (B x N), all B simplices in lockstep.

    ``objective(rows, points)`` evaluates simplex ``rows[k]``'s function at ``points[k]``.
    Step for step this is scipy.optimize.minimize(method="Nelder-Mead") with xatol 1e-7,
    fatol 1e-10 and maxiter 200, run on each row alone: the same initial simplex, moves,
    stopping test and per-row sort, so it returns the same (x, fun) pairs, bit for bit,
    as long as a point's objective value does not depend on its batch.  Each iteration
    makes at most three batched objective calls: the reflections, then the expansion and
    contraction points, then the shrinks.
    """
    b, n = x0.shape
    sim = np.repeat(x0[:, None, :].astype(float), n + 1, axis=1)
    for k in range(n):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + _NM_NONZDELT) * y, _NM_ZDELT)
    rows = np.repeat(np.arange(b), n + 1)
    fsim = objective(rows, sim.reshape(-1, n)).reshape(b, n + 1)
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))  # scipy sorts twice here
    active = np.ones(b, dtype=bool)
    for _ in range(1, _NM_MAXITER):
        active &= ~((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _NM_XATOL)
                    & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _NM_FATOL))
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        s, fs = sim[idx], fsim[idx]
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = objective(idx, xr)
        expand = fxr < fs[:, 0]
        take_r = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~take_r & (fxr < fs[:, -1])
        inside = ~(expand | take_r | outside)
        x2 = np.where(
            expand[:, None], (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst,
            np.where(outside[:, None], (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst,
                     (1 - _NM_PSI) * xbar + _NM_PSI * worst))
        f2 = np.full(idx.size, np.nan)
        second = ~take_r
        f2[second] = objective(idx[second], x2[second])
        # the new last vertex: the expansion point if better than the reflection, the
        # reflection, or a contraction point that passes its test; otherwise shrink
        use2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < fs[:, -1]))
        shrink = (outside | inside) & ~use2
        moved = ~shrink
        s[moved, -1] = np.where(use2[moved, None], x2[moved], xr[moved])
        fs[moved, -1] = np.where(use2[moved], f2[moved], fxr[moved])
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + _NM_SIGMA * (s[shrink, 1:] - best)
            fs[shrink, 1:] = objective(np.repeat(idx[shrink], n),
                                       s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        sim[idx], fsim[idx] = _sort_simplices(s, fs)
    return sim[:, 0], fsim.min(axis=1)


def _grid_starts(coef: np.ndarray, s_rho: float, grid: int, block_pairs: int = _GRID_BLOCK_PAIRS):
    """The (up to) three best points of the grid x grid scan of [0, pi) x [0, 2 pi), best first.

    The scan runs over blocks of theta rows and keeps each block's three best, so the
    workspace is O(max(grid, block_pairs)); merging the blocks with a stable sort gives the
    same three points, in the same order, as a stable argsort of the whole grid.
    """
    thetas = np.arange(grid) * math.pi / grid
    gammas = np.arange(grid) * 2.0 * math.pi / grid
    rows = max(1, block_pairs // grid)
    values, flat = [], []
    for r0 in range(0, grid, rows):
        block = (_dephased_entropy(coef, thetas[r0:r0 + rows, None], gammas[None, :]) - s_rho).ravel()
        best = np.argsort(block, kind="stable")[:3]
        values.append(block[best])
        flat.append(best + r0 * grid)
    values, flat = np.concatenate(values), np.concatenate(flat)
    keep = np.argsort(values, kind="stable")[:3]
    flat = flat[keep]
    return np.stack([thetas[flat // grid], gammas[flat % grid]], axis=1), values[keep]


def optimize_two_qubit_bounds(states, grid: int = 64, side: str = "B") -> list[BoundReport]:
    """Minimize the dephasing bound over the two-angle family, for each two-qubit state.

    Deterministic: for each state a grid x grid scan of [0, pi) x [0, 2 pi), then Nelder-Mead
    refinement started from its three best grid points; the refinements of all states run
    as one lockstep batch (:func:`_nelder_mead`).  The returned angles are reduced by
    :func:`_reduced_angles`.
    """
    states = list(states)
    for rho in states:
        if rho.dim_a != 2 or rho.dim_b != 2:
            raise ShapeMismatchError("two-angle optimization needs a 2 x 2 qubit pair")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if grid < 1:
        raise ValueError(f"grid must be a positive number of angles per axis, got {grid}")
    if not states:
        return []
    coef = np.stack([_bloch_coefficients(rho.state.matrix, side) for rho in states])
    s_rho = np.array([von_neumann_entropy(rho.state) for rho in states])
    scans = [_grid_starts(c, s, grid) for c, s in zip(coef, s_rho)]
    per_state = len(scans[0][1])
    owner = np.repeat(np.arange(len(states)), per_state)

    def objective(rows, points):
        return _dephased_entropy(coef[owner[rows]], points[:, 0], points[:, 1]) - s_rho[owner[rows]]

    xs, funs = _nelder_mead(objective, np.concatenate([starts for starts, _ in scans]))
    reports = []
    for i, (rho, (starts, values)) in enumerate(zip(states, scans)):
        best_val, best_x = float(values[0]), starts[0]
        for k in range(i * per_state, (i + 1) * per_state):
            if funs[k] < best_val:
                best_val, best_x = float(funs[k]), xs[k]
        theta, gamma = _reduced_angles(float(best_x[0]), float(best_x[1]))
        reports.append(BoundReport(
            upper=best_val,
            lower=hashing_lower_bound(rho),
            theta=theta,
            gamma=gamma,
            unitary=two_qubit_parameterized_unitary(theta, gamma),
        ))
    return reports


def optimize_two_qubit_bound(rho: BipartiteState, grid: int = 64, side: str = "B") -> BoundReport:
    """Minimize the dephasing bound over the two-angle family on two qubits.

    The one-state case of :func:`optimize_two_qubit_bounds`.
    """
    return optimize_two_qubit_bounds([rho], grid, side)[0]


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
