"""Group representations exercised by the twirling machinery.

Three families are supported:

* finite groups, supplied concretely as a multiplication table plus one
  unitary per element;
* U(1), encoded by an integer charge per basis vector (eigenbasis of the
  number operator);
* the collective SU(2) representation on a register of qubits, with an
  explicitly constructed Schur basis ``|j, m, alpha>`` realizing the
  irrep (x) multiplicity factorization of each total-spin sector.

Desk-scale caps: finite groups of order <= 64 (so the group axioms stay
exhaustively checkable) and registers of at most 12 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .states import (
    COMPOSED_TOL,
    INPUT_TOL,
    FramenessError,
    ResourceLimitError,
    complex_matrix_from_json,
    complex_matrix_to_json,
)

MAX_GROUP_ORDER = 64
MAX_QUBITS = 12


class RepresentationError(FramenessError):
    """A supplied group representation violates its invariants."""


# ---------------------------------------------------------------------------
# Finite groups


@dataclass
class ValidationIssue:
    kind: str
    detail: str
    deviation: float = 0.0


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind, detail, deviation=0.0):
        self.issues.append(ValidationIssue(kind, detail, float(deviation)))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"{i.kind}: {i.detail} (dev={i.deviation:.3e})" for i in self.issues)


class FiniteGroupRep:
    """Finite group given by an index multiplication table and unitaries T(g).

    ``table[i, j]`` is the index of ``g_i g_j``.  Construction checks shapes
    and the order cap only; call :func:`validate_finite_rep` for the full
    axiom/unitarity/homomorphism report.
    """

    __slots__ = ("order", "table", "unitaries", "dim")

    def __init__(self, table, unitaries):
        t = np.asarray(table, dtype=int)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise RepresentationError(f"multiplication table must be square, got {t.shape}")
        n = t.shape[0]
        if n > MAX_GROUP_ORDER:
            raise ResourceLimitError(f"group order {n} exceeds cap {MAX_GROUP_ORDER}")
        us = [np.asarray(u, dtype=complex) for u in unitaries]
        if len(us) != n:
            raise RepresentationError(f"{len(us)} unitaries for a table of order {n}")
        dims = {u.shape for u in us}
        if len(dims) != 1 or us[0].ndim != 2 or us[0].shape[0] != us[0].shape[1]:
            raise RepresentationError(f"unitaries must share one square shape, got {dims}")
        t.setflags(write=False)
        for u in us:
            u.setflags(write=False)
        self.order = n
        self.table = t
        self.unitaries = tuple(us)
        self.dim = us[0].shape[0]

    def identity_index(self) -> int | None:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        return None


def validate_finite_rep(rep: FiniteGroupRep) -> ValidationReport:
    """Exhaustively check the group axioms, unitarity and the homomorphism law.

    Every violated invariant is reported with its maximal deviation; an empty
    report means the representation is valid.
    """
    report = ValidationReport()
    n, t = rep.order, rep.table

    if t.min() < 0 or t.max() >= n:
        report.add("closure", f"table entries outside [0, {n})")
        return report

    lhs = t[t, :]  # lhs[i,j,k] = t[t[i,j], k]
    rhs = t[:, t]  # rhs[i,j,k] = t[i, t[j,k]]
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        i, j, k = (int(x) for x in bad[0])
        report.add("associativity", f"(g{i} g{j}) g{k} != g{i} (g{j} g{k}), {bad.shape[0]} violations")

    e = rep.identity_index()
    if e is None:
        report.add("identity", "no two-sided identity element")
    else:
        for i in range(n):
            if e not in t[i] or e not in t[:, i]:
                report.add("inverses", f"element g{i} has no two-sided inverse")
                break

    eye = np.eye(rep.dim)
    for i, u in enumerate(rep.unitaries):
        dev = float(np.abs(u.conj().T @ u - eye).max())
        if dev > INPUT_TOL:
            report.add("unitarity", f"T(g{i}) is not unitary", dev)

    worst = 0.0
    first = None
    for i in range(n):
        for j in range(n):
            dev = float(np.abs(rep.unitaries[i] @ rep.unitaries[j] - rep.unitaries[t[i, j]]).max())
            if dev > worst:
                worst, first = dev, (i, j)
    if worst > INPUT_TOL:
        i, j = first
        report.add("homomorphism", f"T(g{i})T(g{j}) != T(g{i} g{j})", worst)
    return report


def finite_group_from_unitaries(unitaries) -> FiniteGroupRep:
    """Build the multiplication table by matching matrix products to elements.

    Raises if the supplied set is not closed under multiplication (within
    COMPOSED_TOL, entrywise).
    """
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
    return FiniteGroupRep(table, us)


def z2_phase_flip_rep() -> FiniteGroupRep:
    """Z2 acting on a qubit as {I, Z}."""
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return finite_group_from_unitaries([eye, z])


def quaternion_rep() -> FiniteGroupRep:
    """The quaternion group Q8 = {+-I, +-iX, +-iY, +-iZ} on a qubit (non-abelian, order 8)."""
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    elems = [eye, -eye, 1j * x, -1j * x, 1j * y, -1j * y, 1j * z, -1j * z]
    return finite_group_from_unitaries(elems)


def cyclic_phase_rep(charges, order: int) -> FiniteGroupRep:
    """The Z_M subgroup of U(1): T(k) = diag(exp(2 pi i k c / M)) for charges c."""
    c = np.asarray(charges, dtype=int)
    us = [np.diag(np.exp(2j * np.pi * k * c / order)) for k in range(order)]
    table = np.array([[(i + j) % order for j in range(order)] for i in range(order)])
    return FiniteGroupRep(table, us)


def finite_rep_to_json(rep: FiniteGroupRep) -> dict:
    return {
        "order": rep.order,
        "table": rep.table.tolist(),
        "unitaries": [complex_matrix_to_json(u) for u in rep.unitaries],
    }


def finite_rep_from_json(obj: dict) -> FiniteGroupRep:
    rep = FiniteGroupRep(obj["table"], [complex_matrix_from_json(u) for u in obj["unitaries"]])
    if "order" in obj and int(obj["order"]) != rep.order:
        raise RepresentationError(f"declared order {obj['order']} but table has {rep.order} rows")
    return rep


# ---------------------------------------------------------------------------
# U(1) charge gradings


class ChargeGrading:
    """Nonnegative integer charge per basis vector (number-operator eigenvalue)."""

    __slots__ = ("dim", "charges")

    def __init__(self, charges):
        c = np.asarray(charges, dtype=int).reshape(-1)
        if c.size == 0:
            raise RepresentationError("empty charge list")
        if c.min() < 0:
            raise RepresentationError("charges must be nonnegative integers")
        c.setflags(write=False)
        self.dim = int(c.size)
        self.charges = c

    def distinct_charges(self) -> np.ndarray:
        return np.unique(self.charges)

    def sector_projectors(self) -> list[np.ndarray]:
        """Diagonal 0/1 projectors onto each charge sector, by ascending charge."""
        return [np.diag((self.charges == n).astype(float)) for n in self.distinct_charges()]

    def sector_weights(self, rho) -> np.ndarray:
        """p_n = Tr(Pi_n rho) for each distinct charge, ascending."""
        diag = np.real(np.diagonal(rho.matrix if hasattr(rho, "matrix") else rho))
        return np.array([diag[self.charges == n].sum() for n in self.distinct_charges()])


def hamming_weight_grading(n_qubits: int) -> ChargeGrading:
    """Charge of a computational basis string = its number of 1 bits."""
    idx = np.arange(1 << n_qubits)
    return ChargeGrading([int(b).bit_count() for b in idx])


def charge_grading_to_json(g: ChargeGrading) -> dict:
    return {"dim": g.dim, "charges": g.charges.tolist()}


def charge_grading_from_json(obj: dict) -> ChargeGrading:
    g = ChargeGrading(obj["charges"])
    if "dim" in obj and int(obj["dim"]) != g.dim:
        raise RepresentationError(f"declared dim {obj['dim']} but {g.dim} charges given")
    return g


# ---------------------------------------------------------------------------
# Collective SU(2) on N qubits


def multiplicity_dimension(n_qubits: int, j: int) -> int:
    """Number of copies of the spin-j irrep in the N-qubit collective representation.

    Exact integer C(N, N/2 - j) (2j+1) / (N/2 + j + 1).
    """
    _check_even_qubits(n_qubits)
    if not 0 <= j <= n_qubits // 2:
        raise ValueError(f"j must lie in 0..{n_qubits // 2}, got {j}")
    num = math.comb(n_qubits, n_qubits // 2 - j) * (2 * j + 1)
    den = n_qubits // 2 + j + 1
    assert num % den == 0
    return num // den


def symmetric_subspace_dimension(n_copies: int, local_dim: int) -> int:
    """C(N + d - 1, d - 1): dimension of the symmetric subspace of d-level systems."""
    if n_copies < 1 or local_dim < 1:
        raise ValueError("need n_copies >= 1 and local_dim >= 1")
    return math.comb(n_copies + local_dim - 1, local_dim - 1)


def _check_even_qubits(n_qubits: int):
    if n_qubits % 2 != 0 or n_qubits < 2:
        raise ValueError(f"collective spin register needs an even qubit count >= 2, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise ResourceLimitError(f"{n_qubits} qubits exceeds cap {MAX_QUBITS}")


def _collective_operators(n_qubits: int):
    """Sparse J+, J-, Jz, J^2 in the computational basis (|0> = spin up)."""
    dim = 1 << n_qubits
    idx = np.arange(dim)
    weights = np.array([int(b).bit_count() for b in idx])
    mz = (n_qubits - 2 * weights) / 2.0
    jz = scipy.sparse.diags(mz).tocsr()

    rows, cols = [], []
    for b in range(dim):
        for q in range(n_qubits):
            if (b >> q) & 1:  # flip a down spin (bit 1) up: m -> m + 1
                rows.append(b & ~(1 << q))
                cols.append(b)
    jp = scipy.sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(dim, dim)
    )
    jm = jp.T.tocsr()
    j2 = (jm @ jp + jz @ jz + jz).tocsr()
    return jp, jm, jz, j2


@dataclass
class SpinSector:
    """One total-spin block: (2j+1) * multiplicity consecutive Schur columns."""

    j: int
    multiplicity: int
    start: int
    stop: int


class CollectiveSpinRep:
    """Collective SU(2) representation on an even number of qubits.

    ``basis`` holds the Schur vectors as columns, grouped into total-spin
    sectors (descending j).  Within a sector the column index is
    ``m_index * multiplicity + alpha`` with ``m_index = 0`` at ``m = j``.
    ``labels[k] = (j, m, alpha)`` for column k.
    """

    __slots__ = ("n_qubits", "dim", "jp", "jm", "jz", "j2", "basis", "labels", "sectors")

    def __init__(self, n_qubits, jp, jm, jz, j2, basis, labels, sectors):
        self.n_qubits = n_qubits
        self.dim = 1 << n_qubits
        self.jp, self.jm, self.jz, self.j2 = jp, jm, jz, j2
        basis.setflags(write=False)
        self.basis = basis
        self.labels = tuple(labels)
        self.sectors = tuple(sectors)

    @property
    def j_max(self) -> int:
        return self.n_qubits // 2

    def jx(self) -> np.ndarray:
        return np.asarray((self.jp + self.jm).todense()) / 2.0

    def jy(self) -> np.ndarray:
        return np.asarray((self.jp - self.jm).todense()) / 2j

    def jz_dense(self) -> np.ndarray:
        return np.asarray(self.jz.todense()).astype(complex)

    def sector(self, j: int) -> SpinSector:
        for s in self.sectors:
            if s.j == j:
                return s
        raise ValueError(f"no sector with j={j}")

    def rotation(self, theta) -> np.ndarray:
        """Collective rotation exp(i theta . J) as a dense unitary."""
        if self.dim > 1 << 10:
            raise ResourceLimitError("dense rotation capped at 10 qubits")
        tx, ty, tz = (float(t) for t in theta)
        gen = tx * self.jx() + ty * self.jy() + tz * self.jz_dense()
        return scipy.linalg.expm(1j * gen)


def _highest_weight_space(jp, n_qubits: int, j: int) -> np.ndarray:
    """Orthonormal basis (columns) of {v : Jz v = j v, J+ v = 0}.

    The kernel is computed by SVD and then re-based deterministically:
    lexicographically ordered computational basis vectors of the m = j
    sector are projected onto the kernel and Gram-Schmidt'ed in order, so
    the alpha labels are reproducible across runs.
    """
    dim = 1 << n_qubits
    k = n_qubits // 2 - j  # number of 1 bits at m = j
    sector = np.array([b for b in range(dim) if int(b).bit_count() == k])
    if k == 0:
        vec = np.zeros((dim, 1))
        vec[sector[0], 0] = 1.0
        return vec
    above = np.array([b for b in range(dim) if int(b).bit_count() == k - 1])
    a = jp[np.ix_(above, sector)].toarray()
    kernel = scipy.linalg.null_space(a)
    want = multiplicity_dimension(n_qubits, j)
    if kernel.shape[1] != want:
        raise FramenessError(
            f"highest-weight space at j={j} has dim {kernel.shape[1]}, expected {want}"
        )
    proj = kernel @ kernel.T
    chosen = []
    for i in range(sector.size):
        v = proj[:, i].copy()
        for u in chosen:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > COMPOSED_TOL:
            chosen.append(v / norm)
        if len(chosen) == want:
            break
    out = np.zeros((dim, want))
    for a_idx, v in enumerate(chosen):
        out[sector, a_idx] = v
    return out


def build_collective_spin_rep(n_qubits: int) -> CollectiveSpinRep:
    """Construct the Schur basis for an even-size qubit register.

    Each spin sector is generated from its highest-weight space by repeated
    application of the lowering operator:
    |j, m-1, a> = J- |j, m, a> / sqrt(j(j+1) - m(m-1)).
    """
    _check_even_qubits(n_qubits)
    jp, jm, jz, j2 = _collective_operators(n_qubits)
    dim = 1 << n_qubits

    columns = []
    labels = []
    sectors = []
    for j in range(n_qubits // 2, -1, -1):
        mult = multiplicity_dimension(n_qubits, j)
        top = _highest_weight_space(jp, n_qubits, j)
        start = len(columns)
        level = top
        for m in range(j, -j - 1, -1):
            for alpha in range(mult):
                columns.append(level[:, alpha])
                labels.append((j, m, alpha))
            if m > -j:
                level = (jm @ level) / math.sqrt(j * (j + 1) - m * (m - 1))
        sectors.append(SpinSector(j, mult, start, len(columns)))
    basis = np.column_stack(columns)
    if basis.shape != (dim, dim):
        raise FramenessError(f"Schur basis is {basis.shape}, expected ({dim}, {dim})")
    return CollectiveSpinRep(n_qubits, jp, jm, jz, j2, basis, labels, sectors)
