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
search scans one fixed table of bases, theta in [0, pi/4] at spacing pi / 64
and gamma at 2 pi / 64, one point per basis, a state at a time.  A compass
search (:func:`_compass_search`) then refines the three best grid points: each
step scores the 8 neighbours of every start of every state in one kernel call,
moves to a strictly lower one or halves the step, and stops at a step of 1e-7
radians or after 200 iterations: 20 to 50 kernel calls per state.  Its result
is never above the best grid value, and since the kernel is elementwise a
state's result does not depend on the batch it is optimized in.

Beyond two qubits :func:`optimize_dephasing_bound` scores stacks of candidate
bases: the identity, the caller's unitaries and seeded Haar draws.  Dephasing
the measured side along the columns u_k of U leaves the kept-side blocks
sigma_k = <u_k| rho |u_k>, and :func:`_dephasing_gaps` forms them for every
candidate of a stack with one product, checks the stack unitary at once and
takes every block's spectrum from one stacked eigvalsh;
:func:`dephasing_upper_bound` is its one-candidate case.  The lifted channel
(:func:`lifted_dephasing_channel`) is the dense reference that both are tested
against; the search itself does not build it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BlockProjection, _check_unitaries
from .sampling import _haar_stack
from .states import (
    DEGENERATE_ANGLE_TOL,
    TIGHT_TOL,
    _STACK_ENTRIES,
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


def _measured_dims(rho: BipartiteState, side: str) -> tuple[int, int]:
    """(kept, measured) subsystem dimensions when ``side`` is dephased."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return (rho.dim_a, rho.dim_b) if side == "B" else (rho.dim_b, rho.dim_a)


def lifted_dephasing_channel(rho: BipartiteState, basis_unitary, side: str = "B") -> BlockProjection:
    """The dephasing lifted to the joint space: I (x) D_U (side B) or D_U (x) I.

    Its basis is I (x) U with columns ordered by outcome and blocks (1, d_A), or U (x) I.
    """
    d_kept, d_measured = _measured_dims(rho, side)
    u = np.asarray(basis_unitary)  # checked unitary, as I (x) U, by BlockProjection
    if u.shape[0] != d_measured:
        raise ShapeMismatchError(f"unitary dim {u.shape[0]} vs {side} dim {d_measured}")
    eye = np.eye(d_kept)
    if side == "B":
        basis = np.einsum("ij,bk->ibkj", eye, u)  # I (x) U, column k d_A + a
    else:
        basis = np.einsum("ak,bj->abkj", u, eye)  # U (x) I
    return BlockProjection(basis.reshape(rho.state.dim, -1), [(1, d_kept)] * d_measured)


def _dephasing_gaps(rho: BipartiteState, us: np.ndarray, side: str) -> np.ndarray:
    """S((I (x) D_U)(rho)) - S(rho) for each U of a nonempty (C, d, d) stack of bases.

    Column k of U leaves the kept-side block sigma_k = sum_xy conj(U_xk) U_yk rho_xy, with
    rho_xy rho's kept-side block between measured indices x and y: one product forms every
    block of every candidate, one stacked eigvalsh takes their spectra.  A candidate with a NaN or
    inf entry, or not unitary to INPUT_TOL (the first in stack order reported), raises ValueError.
    """
    d_kept, d_meas = _measured_dims(rho, side)
    if us.shape[1:] != (d_meas, d_meas):
        raise ShapeMismatchError(f"unitary shape {us.shape[1:]} vs {side} dim {d_meas}")
    _check_unitaries(us)
    r4 = rho.state.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    m = r4.transpose(1, 3, 0, 2) if side == "B" else r4.transpose(0, 2, 1, 3)  # m[x, y] = rho_xy
    w = np.einsum("cxk,cyk->ckxy", us.conj(), us).reshape(-1, d_meas * d_meas)
    sigma = (w @ m.reshape(d_meas * d_meas, -1)).reshape(len(us), d_meas, d_kept, d_kept)
    h = _entropy_of_spectrum(np.linalg.eigvalsh(sigma)).sum(axis=-1)
    return h - von_neumann_entropy(rho.state)


def dephasing_upper_bound(rho: BipartiteState, basis_unitary, side: str = "B") -> float:
    """S((I (x) D_U)(rho)) - S(rho): an upper bound on the relative entropy of entanglement."""
    return float(_dephasing_gaps(rho, np.asarray(basis_unitary, dtype=complex)[None], side)[0])


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


# the compass stencil: the 8 neighbours (a, b) in {-1, 0, 1}^2 other than (0, 0), in grid
# spacings; a row stops when its step falls to _STEP_TOL radians or after _MAX_ITER iterations
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)
_STEP_TOL, _MAX_ITER = 1e-7, 200
# the scan's resolution: theta at spacing pi / _SCAN and gamma at 2 pi / _SCAN, which are also
# the compass search's first steps
_SCAN = 64


def _compass_search(objective, x0: np.ndarray, f0: np.ndarray, spacing):
    """Minimize from each row of ``x0`` (B x 2, values ``f0``), all B rows in lockstep.

    ``objective(rows, points)`` evaluates row ``rows[k]``'s function at each ``points[k, s]``.
    Each row keeps a step h, 1 at the start, and each iteration evaluates the 8 stencil
    neighbours x + h (a, b) * spacing of every active row in one objective call.  A row moves
    to its best neighbour (the first in stencil order on a tie) if that is strictly lower, and
    halves h otherwise; it stops once h * max(spacing) <= _STEP_TOL, or after _MAX_ITER
    iterations.  So a row's value never rises above its start's.
    """
    x, f = x0.astype(float), f0.astype(float)
    h = np.ones(len(x))
    step = _STENCIL * np.asarray(spacing, dtype=float)
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(h * step.max() > _STEP_TOL)
        if idx.size == 0:
            break
        trial = x[idx, None, :] + h[idx, None, None] * step
        values = objective(idx, trial)
        k = np.argmin(values, axis=1)
        best = values[np.arange(idx.size), k]
        move = best < f[idx]
        x[idx[move]], f[idx[move]] = trial[move, k[move]], best[move]
        h[idx[~move]] *= 0.5
    return x, f


def _scan_angles() -> np.ndarray:
    """The scan's bases as (theta, gamma) rows, one per basis, in the range of :func:`_reduced_angles`.

    The table is theta = k pi / _SCAN for 0 <= k <= _SCAN / 4 by gamma = j 2 pi / _SCAN, in row
    order, less its twins: gamma > 0 at theta = 0, where the basis does not depend on gamma, and
    gamma >= pi at theta = pi / 4, where gamma + pi gives the same basis.
    """
    thetas = np.arange(_SCAN // 4 + 1) * math.pi / _SCAN
    gammas = np.arange(_SCAN) * 2.0 * math.pi / _SCAN
    twin = np.zeros((len(thetas), _SCAN), dtype=bool)
    twin[0, 1:] = twin[-1, _SCAN // 2:] = True
    return np.stack(np.meshgrid(thetas, gammas, indexing="ij"), axis=-1)[~twin]


_SCAN_ANGLES = _scan_angles()


def _grid_starts(coef: np.ndarray, s_rho: float):
    """The three best bases of the scan, best first by a stable sort, as (theta, gamma) rows,
    and their bounds."""
    values = _dephased_entropy(coef, _SCAN_ANGLES[:, 0], _SCAN_ANGLES[:, 1]) - s_rho
    best = np.argsort(values, kind="stable")[:3]
    return _SCAN_ANGLES[best], values[best]


def optimize_two_qubit_bounds(states, side: str = "B") -> list[BoundReport]:
    """Minimize the dephasing bound over the two-angle family, for each two-qubit state.

    Deterministic: for each state a scan of the bases at spacing pi / 64 x 2 pi / 64
    (:func:`_grid_starts`), then a compass search (:func:`_compass_search`) from its three best
    points at the same spacing; the searches of all states run as one lockstep batch, and a
    state's result does not depend on its batch.  The upper bound is never above the best
    grid value.  The returned angles are reduced by :func:`_reduced_angles`.
    """
    states = list(states)
    for rho in states:
        if rho.dim_a != 2 or rho.dim_b != 2:
            raise ShapeMismatchError("two-angle optimization needs a 2 x 2 qubit pair")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if not states:
        return []
    coef = np.stack([_bloch_coefficients(rho.state.matrix, side) for rho in states])
    s_rho = np.array([von_neumann_entropy(rho.state) for rho in states])
    scans = [_grid_starts(c, s) for c, s in zip(coef, s_rho)]
    owner = np.repeat(np.arange(len(states)), 3)

    def objective(rows, points):
        o = owner[rows]
        return _dephased_entropy(coef[o, None], points[..., 0], points[..., 1]) - s_rho[o, None]

    xs, funs = _compass_search(objective, np.concatenate([starts for starts, _ in scans]),
                               np.concatenate([values for _, values in scans]),
                               (math.pi / _SCAN, 2.0 * math.pi / _SCAN))
    reports = []
    for i, rho in enumerate(states):
        k = 3 * i + int(np.argmin(funs[3 * i:3 * i + 3]))
        theta, gamma = _reduced_angles(float(xs[k, 0]), float(xs[k, 1]))
        reports.append(BoundReport(
            upper=float(funs[k]),
            lower=hashing_lower_bound(rho),
            theta=theta,
            gamma=gamma,
            unitary=two_qubit_parameterized_unitary(theta, gamma),
        ))
    return reports


def optimize_two_qubit_bound(rho: BipartiteState, side: str = "B") -> BoundReport:
    """Minimize the dephasing bound over the two-angle family on two qubits.

    The one-state case of :func:`optimize_two_qubit_bounds`.
    """
    return optimize_two_qubit_bounds([rho], side)[0]


def optimize_dephasing_bound(rho: BipartiteState, unitaries=None, random_trials: int = 0,
                             seed: int = 0, side: str = "B") -> BoundReport:
    """Minimize the dephasing bound over user-supplied bases and/or random search.

    For subsystems beyond a qubit there is no two-angle parameterization, so
    the caller either provides candidate basis unitaries or requests a seeded
    Haar random search.  The identity basis is always included.  The candidates
    are scored in stacks by :func:`_dephasing_gaps`: the identity and the given
    bases with the first draws, then the remaining draws in stacks of a bounded
    size.  The draws are those of ``random_trials`` :func:`haar_unitary` calls on
    ``default_rng(seed)``, and ties go to the earliest candidate.
    """
    d_kept, d_meas = _measured_dims(rho, side)
    if random_trials < 0:
        raise ValueError(f"random_trials must be a nonnegative count, got {random_trials}")
    given = [np.eye(d_meas, dtype=complex)]
    given += [np.asarray(u, dtype=complex) for u in (() if unitaries is None else unitaries)]
    if any(u.shape != (d_meas, d_meas) for u in given):
        raise ShapeMismatchError(f"unitary shapes {[u.shape for u in given]} vs {side} dim {d_meas}")
    rng = np.random.default_rng(seed)
    per_stack = max(1, _STACK_ENTRIES // (d_meas**3 + d_meas * d_kept**2))  # w and sigma entries
    best_u, best_val, head, drawn = None, math.inf, np.stack(given), 0
    while True:
        take = min(per_stack, random_trials - drawn)
        us = np.concatenate([head, _haar_stack(d_meas, rng, take)])
        gaps = _dephasing_gaps(rho, us, side)
        k = int(np.argmin(gaps))
        if gaps[k] < best_val:
            best_u, best_val = us[k], float(gaps[k])
        head, drawn = head[:0], drawn + take
        if drawn == random_trials:
            return BoundReport(upper=best_val, lower=hashing_lower_bound(rho), unitary=best_u)
