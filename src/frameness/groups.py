"""Group representations exercised by the twirling machinery.

Three families are supported:

* finite groups, supplied concretely as a multiplication table plus one
  unitary per element;
* U(1), encoded by an integer charge per basis vector (eigenbasis of the
  number operator);
* the collective SU(2) representation on a register of qubits, with its
  Schur basis ``|j, m, alpha>`` (irrep (x) multiplicity per total-spin
  sector) built and stored as one real orthogonal block per Hamming weight,
  by coupling one qubit at a time with closed-form Clebsch-Gordan
  coefficients; no ladder operator and no d x d matrix is formed.

Desk-scale caps: finite groups of order <= 64 (so the group axioms stay exhaustively
checkable), and registers whose 8 dense d x d operators fit the workspace budget (12 qubits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    COMPOSED_TOL,
    INPUT_TOL,
    _STACK_ENTRIES,
    FramenessError,
    ResourceLimitError,
    _check_workspace,
    _declared_int,
    complex_matrix_from_json,
    complex_matrix_to_json,
)

MAX_GROUP_ORDER = 64


class RepresentationError(FramenessError):
    """A supplied group representation violates its invariants."""


def _integer_entries(values, what: str) -> np.ndarray:
    """``values`` as an int array, integer-valued floats such as 2.0 included; else raise."""
    a = np.asarray(values)
    exact = a.dtype.kind == "f" and bool(np.all((np.abs(a) <= 2**53) & (a == np.trunc(a))))
    entries = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    if not (a.dtype.kind in "iu" or exact) or any(isinstance(x, bool) for x in entries):
        raise RepresentationError(f"{what} must be integers, got {values!r:.60}")
    return a.astype(int)


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

    ``table[i, j]`` is the index of ``g_i g_j``, and ``unitaries`` is one
    read-only (|G|, d, d) stack with ``unitaries[i]`` = T(g_i).  Construction
    checks shapes, finite entries and the order cap only; call
    :func:`validate_finite_rep` for the full axiom/unitarity/homomorphism report.
    """

    __slots__ = ("order", "table", "unitaries", "dim")

    def __init__(self, table, unitaries):
        t = _integer_entries(table, "table entries")
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
        us = np.array(us)
        finite = np.isfinite(us).all(axis=(1, 2))
        if not finite.all():
            raise RepresentationError(f"T(g{int(finite.argmin())}) has a non-finite entry (NaN or inf)")
        t.setflags(write=False)
        us.setflags(write=False)
        self.order = n
        self.table = t
        self.unitaries = us
        self.dim = us.shape[1]

    def unitarity_deviations(self) -> np.ndarray:
        """max |T(g)^dag T(g) - I| entrywise, for each element g."""
        us = self.unitaries
        return np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(self.dim)).max(axis=(1, 2))

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

    for i, dev in enumerate(rep.unitarity_deviations()):
        if dev > INPUT_TOL:
            report.add("unitarity", f"T(g{i}) is not unitary", dev)

    us, worst, first = rep.unitaries, 0.0, None
    for i, j, prods in _pair_products(us, max(1, _STACK_ENTRIES // rep.dim**2)):
        dev = np.abs(prods - us[t[i, j]]).max(axis=(1, 2))
        k = int(np.argmax(dev))  # the first worst pair of the block, in row-major order
        if dev[k] > worst:
            worst, first = float(dev[k]), (int(i[k]), int(j[k]))
    if worst > INPUT_TOL:
        i, j = first
        report.add("homomorphism", f"T(g{i})T(g{j}) != T(g{i} g{j})", worst)
    return report


def _pair_products(us: np.ndarray, per_block: int):
    """(i, j, T(g_i) T(g_j)) for all pairs of the (n, d, d) stack, row-major, in blocks of pairs."""
    n = len(us)
    for start in range(0, n * n, per_block):
        i, j = np.divmod(np.arange(start, min(start + per_block, n * n)), n)
        yield i, j, us[i] @ us[j]


def finite_group_from_unitaries(unitaries) -> FiniteGroupRep:
    """Build the multiplication table by matching matrix products to elements.

    Raises if the supplied set is not closed under multiplication (within
    COMPOSED_TOL, entrywise): the first product in row-major order that matches
    no element or several is reported.  The products are matched against every
    element in blocks of pairs, each at most max(2^16, n d^2) complex entries.
    """
    us = np.stack([np.asarray(u, dtype=complex) for u in unitaries])
    n, d = len(us), us.shape[-1]
    hits = np.empty((n * n, n), dtype=bool)
    for i, j, prods in _pair_products(us, max(1, _STACK_ENTRIES // (n * d * d))):
        hits[i * n + j] = np.abs(prods[:, None] - us).max(axis=(2, 3)) <= COMPOSED_TOL
    counts = hits.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise RepresentationError(
            f"product T(g{i})T(g{j}) matches {counts[bad[0]]} elements; set not closed"
        )
    return FiniteGroupRep(hits.argmax(axis=1).reshape(n, n), us)


def _distinct_conjugations(rep: FiniteGroupRep) -> tuple[np.ndarray, np.ndarray]:
    """The first element of each distinct map X -> U_g X U_g^dag, and its share of the elements.

    U_g and U_h give the same map iff U_g^dag U_h is a phase, iff |Tr U_g^dag U_h| = d:
    |G|^2 traces of the unitaries, not the multiplication table.  For a representation the
    classes are the cosets of the kernel K = {k : |Tr U_k| = d}, each |K| / |G| of the elements.
    """
    us = rep.unitaries
    same = np.abs(np.einsum("gij,hij->gh", us.conj(), us)) >= rep.dim - COMPOSED_TOL
    label = same.argmax(axis=0)  # the first element with the same map as h
    firsts = np.flatnonzero(label == np.arange(rep.order))
    return firsts, np.bincount(label, minlength=rep.order)[firsts] / rep.order


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
    if order > MAX_GROUP_ORDER:  # before the O(M^2) table
        raise ResourceLimitError(f"group order {order} exceeds cap {MAX_GROUP_ORDER}")
    if order < 1:
        raise RepresentationError(f"group order must be at least 1, got {order}")
    c = _integer_entries(charges, "charges")
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
    order = _declared_int(obj, "order", RepresentationError)
    if order is not None and order != rep.order:
        raise RepresentationError(f"declared order {order} but table has {rep.order} rows")
    return rep


# ---------------------------------------------------------------------------
# U(1) charge gradings


class ChargeGrading:
    """Nonnegative integer charge per basis vector (number-operator eigenvalue)."""

    __slots__ = ("dim", "charges")

    def __init__(self, charges):
        c = _integer_entries(charges, "charges").reshape(-1)
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


def _hamming_weights(n_bits: int) -> np.ndarray:
    """Number of 1 bits of each of 0 .. 2^n - 1, by shift and add over the n bits."""
    idx = np.arange(1 << n_bits)
    weights = np.zeros_like(idx)
    for q in range(n_bits):
        weights += (idx >> q) & 1
    return weights


def hamming_weight_grading(n_qubits: int) -> ChargeGrading:
    """Charge of a computational basis string = its number of 1 bits."""
    return ChargeGrading(_hamming_weights(n_qubits))


def charge_grading_to_json(g: ChargeGrading) -> dict:
    return {"dim": g.dim, "charges": g.charges.tolist()}


def charge_grading_from_json(obj: dict) -> ChargeGrading:
    g = ChargeGrading(obj["charges"])
    dim = _declared_int(obj, "dim", RepresentationError)
    if dim is not None and dim != g.dim:
        raise RepresentationError(f"declared dim {dim} but {g.dim} charges given")
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


@dataclass
class SpinSector:
    """One total-spin block: (2j+1) * multiplicity consecutive Schur columns."""

    j: int
    multiplicity: int
    start: int
    stop: int


class CollectiveSpinRep:
    """Collective SU(2) representation on an even number of qubits.

    Schur columns are grouped into total-spin sectors (descending j); within a
    sector the column index is ``m_index * multiplicity + alpha`` with
    ``m_index = 0`` at ``m = j``.  ``labels[k] = (j, m, alpha)`` for column k.
    Column (j, m, alpha) lives on the strings of Hamming weight N/2 - m, so the
    basis U is ``weight_blocks[k] = (rows, cols, u)``, U[rows, cols] = u, per k.

    alpha indexes the coupling paths that reach spin j when the qubits join one
    at a time, lowest bit first: the spins j_1 = 1/2, j_2, ..., j_N = j after
    1, 2, ..., N qubits, each step moving the spin by 1/2.  At each step the
    paths from j_n - 1/2 come first and then those from j_n + 1/2, each in the
    order of the step before.  The multiplicity label is therefore the same
    vector at every m, and J- maps (j, m, alpha) to
    sqrt(j(j+1) - m(m-1)) (j, m - 1, alpha).
    """

    __slots__ = ("n_qubits", "dim", "weight_blocks", "labels", "sectors")

    def __init__(self, n_qubits, weight_blocks, labels, sectors):
        self.n_qubits = n_qubits
        self.dim = 1 << n_qubits
        for _, _, u in weight_blocks:
            u.setflags(write=False)
        self.weight_blocks = tuple(weight_blocks)
        self.labels = tuple(labels)
        self.sectors = tuple(sectors)

    @property
    def j_max(self) -> int:
        return self.n_qubits // 2

    def sector(self, j: int) -> SpinSector:
        for s in self.sectors:
            if s.j == j:
                return s
        raise ValueError(f"no sector with j={j}")


def build_collective_spin_rep(n_qubits: int) -> CollectiveSpinRep:
    """Construct the Schur basis for an even-size qubit register by coupling one qubit at a time.

    Qubit n joins as the next higher bit: the weight-k strings at n qubits are
    those at n - 1 (the new qubit up, |0>), then the weight-(k - 1) ones plus
    2^(n-1) (down, |1>), in ascending order.  Column (j, m, alpha) joins column
    (j', m - 1/2) of weight k with column (j', m + 1/2) of weight k - 1, at
    j' = j - s/2 for s = +-1, by the Condon-Shortley Clebsch-Gordan coefficients
    of j' (x) 1/2: up s sqrt((j' + s m + 1/2) / (2j' + 1)), down
    sqrt((j' - s m + 1/2) / (2j' + 1)).  Only closed-form coefficients: no
    eigensolver and no tolerance.  At n qubits the spin-j columns of every
    weight block are the slab [C(n, a - 1), C(n, a)) with a = n/2 - j, so
    spin j' = j - 1/2 is slab a at n - 1 qubits and j' = j + 1/2 slab a - 1.
    """
    _check_even_qubits(n_qubits)
    # a mixed state's su2 asymmetry holds 2.6 dense d x d operators, 4.6 with G(rho) (tracemalloc): 8 budgeted
    _check_workspace(8 * 16 * 4**n_qubits if n_qubits <= 64 else math.inf, f"a {n_qubits}-qubit register")
    empty = (np.zeros(0, dtype=int), np.zeros((0, 0)))
    level = [(np.zeros(1, dtype=int), np.ones((1, 1)))]  # no qubits: the empty string, spin 0
    for n in range(1, n_qubits + 1):
        # new slab a takes old slab a (j' = j - 1/2, s = +1), then old slab a - 1 (j' = j + 1/2, s = -1):
        # column c at n qubits couples old column source[c], of doubled spin old[c], by sign[c]
        edges = [0] + [math.comb(n - 1, b) for b in range(n // 2 + 1)]
        paths = [(b, s) for a in range(n // 2 + 1) for b, s in ((a, 1), (a - 1, -1)) if b >= 0]
        source = np.concatenate([np.arange(edges[b], edges[b + 1]) for b, _ in paths])
        lengths = [edges[b + 1] - edges[b] for b, _ in paths]
        old = np.repeat([n - 1 - 2 * b for b, _ in paths], lengths)
        sign = np.repeat([s for _, s in paths], lengths)
        padded, level = [empty, *level, empty], []
        for k in range(n + 1):
            (down_rows, down), (up_rows, up) = padded[k], padded[k + 1]
            width = up_rows.size + down_rows.size
            s, j2, sg = source[:width], old[:width], sign[:width]
            sm = sg * (n - 2 * k)  # s 2m
            coef_up = sg * np.sqrt((j2 + sm + 1) / (2 * j2 + 2))
            coef_down = np.sqrt((j2 - sm + 1) / (2 * j2 + 2))
            u = np.zeros((width, width))
            has = s < up.shape[1]  # a column the old block lacks has coefficient 0
            u[:up_rows.size, has] = up[:, s[has]] * coef_up[has]
            has = s < down.shape[1]
            u[up_rows.size:, has] = down[:, s[has]] * coef_down[has]
            level.append((np.concatenate((up_rows, down_rows + (1 << (n - 1)))), u))
    labels, sectors = [], []
    for j in range(n_qubits // 2, -1, -1):
        mult = multiplicity_dimension(n_qubits, j)
        start = len(labels)
        labels += [(j, m, alpha) for m in range(j, -j - 1, -1) for alpha in range(mult)]
        sectors.append(SpinSector(j, mult, start, len(labels)))
    # a block's columns are the labels at its m, in label order: j descending, then alpha
    ms = np.array([m for _, m, _ in labels])
    blocks = [(r, np.flatnonzero(ms == n_qubits // 2 - k), u) for k, (r, u) in enumerate(level)]
    return CollectiveSpinRep(n_qubits, blocks, labels, sectors)
