"""Quantum channels and the unital-idempotent calculus.

The central fact used downstream: when a trace-preserving map is unital and
idempotent, the minimum relative-entropy distance from a state rho to the
channel's image is the entropy gap S(E(rho)) - S(rho), attained at E(rho)
itself.  :func:`relative_entropy_to_image` evaluates that gap after checking
both preconditions.  :class:`BlockProjection` is the one conditional-expectation
type (u1/su2 twirls, block algebras, dephasing): its basis is a direct sum of
unitary blocks, it is idempotent by its form and its entropy comes block by
block; a pinching is one, with blocks (1, rank P_k).  Finite twirls and user
channels stay Kraus-only; their idempotence is checked on the Choi matrices
of E o E and E, whose difference is a product with inner dimension n^2 + n
for n Kraus operators, or on the d^2 x d^2 superoperator when that is the
smaller product: O(d^4 min(n^2 + n, d^2)) time, in row blocks of constant
size.  Both types apply to one operator or to a (..., d, d) stack, and
:func:`image_fix_equivalence_check` validates and maps its sampled states in
stacks of bounded size.  The generators at the bottom produce test channels
going beyond group twirls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import _density_stack, haar_unitary
from .states import (
    COMPOSED_TOL,
    EIG_CUTOFF,
    IDENTITY_TOL,
    INPUT_TOL,
    _STACK_ENTRIES,
    DensityOperator,
    FramenessError,
    PureState,
    ShapeMismatchError,
    _declared_int,
    _entropy_of_spectrum,
    _validated_density,
    complex_matrix_from_json,
    complex_matrix_to_json,
    von_neumann_entropy,
)

# Rows of one Choi or superoperator block in the Kraus idempotence test, a constant
# workspace bound rather than an option.
_ROW_BLOCK = 32


class ChannelPreconditionError(FramenessError):
    """An operation requires a unital and/or idempotent channel."""


def _operand(x, dim: int) -> np.ndarray:
    """``x`` as a complex d x d operator or a (..., d, d) stack of them."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-2:] != (dim, dim):
        raise ShapeMismatchError(f"operator shape {x.shape} does not match dim {dim}")
    return x


def _row_blocked_max(n_rows: int, block) -> float:
    """max |block(a)| over a = 0, _ROW_BLOCK, ...: block(a) holds rows a:a+_ROW_BLOCK of a product."""
    return max(float(np.abs(block(a)).max()) for a in range(0, n_rows, _ROW_BLOCK))


class KrausChannel:
    """Completely positive trace-preserving map E(rho) = sum_a E_a rho E_a^dag."""

    __slots__ = ("dim", "kraus", "_idempotent")

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise FramenessError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ShapeMismatchError("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.abs(total - np.eye(d)).max())
        if dev > INPUT_TOL:
            raise FramenessError(f"sum E^dag E deviates from identity by {dev:.3e}")
        for k in ops:
            k.setflags(write=False)
        self.dim = d
        self.kraus = tuple(ops)
        self._idempotent = None

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """E(x) for one operator or a (..., d, d) stack of them."""
        x = _operand(x, self.dim)
        out = np.zeros_like(x)
        for k in self.kraus:
            out += k @ x @ k.conj().T
        return out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix))

    def image_entropy(self, rho: DensityOperator) -> float:
        """S(E(rho)), from the dense image."""
        return von_neumann_entropy(self.apply(rho))

    def adjoint_apply(self, a: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action sum_a E_a^dag A E_a (Hilbert-Schmidt adjoint)."""
        a = _operand(a, self.dim)
        out = np.zeros_like(a)
        for k in self.kraus:
            out += k.conj().T @ a @ k
        return out

    def superoperator(self) -> np.ndarray:
        """dim^2 x dim^2 matrix acting on row-major vectorized operators."""
        m = np.zeros((self.dim**2, self.dim**2), dtype=complex)
        for k in self.kraus:
            m += np.kron(k, k.conj())
        return m

    def kraus_channel(self) -> "KrausChannel":
        """The channel's Kraus form: itself."""
        return self

    def is_unital(self) -> bool:
        eye = np.eye(self.dim)
        return float(np.abs(self.apply_matrix(eye) - eye).max()) <= IDENTITY_TOL

    def _idempotence_deviation(self) -> float:
        """max |S @ S - S|, S the superoperator, through the smaller inner dimension.

        With V = [vec E_a] and W = [vec(E_a E_b)], Choi(E o E) - Choi(E) = W W^dag - V V^dag
        (inner dimension n^2 + n) holds the entries of S @ S - S (inner dimension d^2),
        reshuffled; so the product with the smaller inner dimension is formed, one
        block of _ROW_BLOCK rows at a time, never the whole d^2 x d^2 difference.  The
        Choi difference is X^T Y with X = [W; V], Y = [conj W; -conj V]; it is Hermitian,
        so each row block is formed from its own first row on.
        """
        d, n = self.dim, len(self.kraus)
        b = _ROW_BLOCK
        if n * (n + 1) >= d * d:
            m = self.superoperator()
            return _row_blocked_max(d * d, lambda a: m[a:a + b] @ m - m[a:a + b])
        k = np.stack(self.kraus)
        x = np.concatenate([np.matmul(k[:, None], k[None, :]).reshape(n * n, d * d),
                            k.reshape(n, d * d)])
        y = x.conj()
        y[n * n:] *= -1
        return _row_blocked_max(d * d, lambda a: x[:, a:a + b].T @ y[:, a:])

    def is_idempotent(self) -> bool:
        """E o E = E, entrywise on the superoperator to COMPOSED_TOL; decided once (the Kraus are frozen).

        Costs O(d^4 min(n^2 + n, d^2)) for n Kraus operators (see _idempotence_deviation).
        """
        if self._idempotent is None:
            self._idempotent = self._idempotence_deviation() <= COMPOSED_TOL
        return self._idempotent

    def __repr__(self):
        return f"KrausChannel(dim={self.dim}, n_kraus={len(self.kraus)})"


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b without promoting a real operand to a complex copy: two real GEMMs instead."""
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        return (a.real @ b) + 1j * (a.imag @ b)
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return (a @ b.real) + 1j * (a @ b.imag)
    return a @ b


def _checked_unitary(u) -> np.ndarray:
    """``u`` as a square array, after checking u^dag u = I to INPUT_TOL."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatchError(f"basis matrix must be square, got {u.shape}")
    dev = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if dev > INPUT_TOL:
        raise ValueError(f"basis matrix is not unitary (deviation {dev:.3e})")
    return u


def _identity_blocks(rows: np.ndarray, sizes) -> list:
    """Identity basis blocks on consecutive runs of ``rows``: U[:, c] = e_{rows[c]}."""
    ends = np.cumsum(sizes).tolist()
    return [(rows[t - n:t], np.arange(t - n, t), np.eye(n)) for n, t in zip(sizes, ends)]


class BlockProjection:
    """Conditional expectation onto a block algebra, E(x) = U (sum_q I_{m_q}/m_q (x) sigma_q) U^dag.

    sigma_q = Tr_{m_q} x_q, x_q the q-th diagonal block of U^dag x U with column
    index r n_q + alpha (r < m_q scrambled, alpha < n_q kept); ``blocks`` lists
    the (m_q, n_q).  ``basis`` is U as a d x d unitary array, or as a direct sum
    of unitary blocks: a sequence of (rows, cols, u), U[rows, cols] = u, whose
    rows and whose cols each partition range(d), each slab (q, r) n_q adjacent
    columns of one u.  Blocks keep their dtype and are checked unitary.  Unital
    and idempotent by this form; the Kraus form is built only as a test oracle.
    """

    __slots__ = ("dim", "basis", "blocks", "_slabs", "_kraus")

    def __init__(self, basis, blocks):
        if isinstance(basis, np.ndarray):  # one dense block
            basis = [(np.arange(len(basis)), np.arange(len(basis)), basis)]
        self.basis = tuple((np.asarray(r), np.asarray(c), _checked_unitary(u)) for r, c, u in basis)
        self.blocks = tuple((int(m), int(n)) for m, n in blocks)
        if not self.blocks or min(min(mn) for mn in self.blocks) < 1:
            raise ValueError(f"blocks must be a nonempty list of positive (m, n), got {blocks}")
        if any(r.shape != (u.shape[0],) or c.shape != (u.shape[0],) for r, c, u in self.basis):
            raise ShapeMismatchError("each basis block needs one row and one column index per side")
        rows_cols = np.concatenate([blk[:2] for blk in self.basis], axis=1)
        d = sum(m * n for m, n in self.blocks)
        if rows_cols.shape[1] != d:
            raise ShapeMismatchError(f"blocks cover dimension {d}, basis has {rows_cols.shape[1]}")
        if (np.sort(rows_cols) != np.arange(d)).any():
            raise ValueError("the rows and the columns of the basis blocks must each partition range(d)")
        self.dim, self._kraus = d, None
        # key[c] = d * (basis block) + (column within it), for column c of U
        key = np.empty(d, dtype=int)
        for b, (_, c, _) in enumerate(self.basis):
            key[c] = b * d + np.arange(c.size)
        # each slab (q, r) is n_q consecutive columns of one block: its keys run up by one
        key, self._slabs, s = key.tolist(), [], 0
        for m, n in self.blocks:
            firsts = range(s, s + m * n, n)
            if any(key[c:c + n] != list(range(key[c], key[c] + n)) for c in firsts):
                raise ValueError("each slab must be n_q consecutive columns of one basis block")
            self._slabs.append([divmod(key[c], d) for c in firsts])  # (block, its first column)
            s += m * n

    def _sector_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """sigma_q = sum_r U_{q,r}^dag x U_{q,r}, stacked like x; real blocks give real GEMMs."""
        xu = [_matmul(x[..., r[:, None], r], u) for r, _, u in self.basis]
        return [sum(_matmul(self.basis[b][2][:, c:c + n].conj().T, xu[b][..., c:c + n]) for b, c in slabs)
                for (_, n), slabs in zip(self.blocks, self._slabs)]

    def image_entropy(self, state: DensityOperator | PureState) -> float:
        """S(E(state)) = sum_q m_q H(eig(sigma_q)/m_q), from the sector blocks."""
        if state.dim != self.dim:
            raise ShapeMismatchError(f"state dim {state.dim} does not match dim {self.dim}")
        if isinstance(state, PureState):
            # sigma_q = C^T conj(C) for the m_q x n_q block C of U^dag psi; it has the
            # nonzero spectrum of C C^dag, so take the smaller Gram matrix
            psi = state.amplitudes
            coeffs = [_matmul(u.conj().T, psi[r]) for r, _, u in self.basis]
            cs = [np.array([coeffs[b][c:c + n] for b, c in slabs])
                  for (_, n), slabs in zip(self.blocks, self._slabs)]
            sigmas = [c @ c.conj().T if c.shape[0] <= c.shape[1] else c.T @ c.conj() for c in cs]
        else:
            sigmas = self._sector_blocks(state.matrix)
        return float(sum(m * _entropy_of_spectrum(np.linalg.eigvalsh(sigma) / m)
                         for (m, _), sigma in zip(self.blocks, sigmas)))

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """The dense E(x) of one operator or a (..., d, d) stack; block diagonal over the basis rows."""
        x = _operand(x, self.dim)
        fills = [np.zeros(x.shape[:-2] + u.shape, dtype=complex) for _, _, u in self.basis]
        for (m, n), slabs, sigma in zip(self.blocks, self._slabs, self._sector_blocks(x)):
            for b, c in slabs:
                fills[b][..., c:c + n, c:c + n] = sigma / m
        out = np.zeros_like(x)
        for (r, _, u), fill in zip(self.basis, fills):
            out[..., r[:, None], r] = _matmul(_matmul(u, fill), u.conj().T)
        return out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix))

    def adjoint_apply(self, a: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action: E is self-adjoint in the Hilbert-Schmidt product."""
        return self.apply_matrix(a)

    def is_unital(self) -> bool:
        """Structural: E(I) = I for a unitary U."""
        return True

    def is_idempotent(self) -> bool:
        """Structural: E fixes each I_{m_q}/m_q (x) sigma_q it produces."""
        return True

    def kraus_channel(self) -> KrausChannel:
        """Kraus form {U_{q,r} U_{q,s}^dag / sqrt(m_q)} (U_{q,r}: slab r's columns), built once."""
        if self._kraus is None:
            kraus = []
            for (m, n), slabs in zip(self.blocks, self._slabs):
                cols = []
                for b, c in slabs:
                    r, _, u = self.basis[b]
                    col = np.zeros((self.dim, n), dtype=u.dtype)
                    col[r] = u[:, c:c + n]
                    cols.append(col)
                kraus += [k @ k2.conj().T / math.sqrt(m) for k in cols for k2 in cols]
            self._kraus = KrausChannel(kraus)
        return self._kraus


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim)])


def kraus_channel_to_json(ch: KrausChannel | BlockProjection) -> dict:
    ops = ch.kraus_channel().kraus
    return {"dim": ch.dim, "kraus": [complex_matrix_to_json(k) for k in ops]}


def kraus_channel_from_json(obj: dict) -> KrausChannel:
    ch = KrausChannel([complex_matrix_from_json(k) for k in obj["kraus"]])
    dim = _declared_int(obj, "dim", ShapeMismatchError)
    if dim is not None and dim != ch.dim:
        raise ShapeMismatchError(f"declared dim {dim} but operators are {ch.dim}x{ch.dim}")
    return ch


def commutant_fixed_point_check(ch: KrausChannel | BlockProjection, tau: np.ndarray) -> bool:
    """True iff tau commutes with every Kraus operator and its adjoint.

    For unital channels the commutant of {E_a, E_a^dag} is exactly the fixed
    point algebra, so a True verdict is cross-checked against the Schrodinger
    action on tau/Tr(tau).
    """
    if not ch.is_unital():
        raise ChannelPreconditionError("commutant fixed-point test needs a unital channel")
    tau = np.asarray(tau, dtype=complex)
    for k in ch.kraus_channel().kraus:
        for e in (k, k.conj().T):
            if float(np.abs(tau @ e - e @ tau).max()) > IDENTITY_TOL:
                return False
    tr = complex(np.trace(tau))
    if abs(tr) > EIG_CUTOFF:
        state = tau / tr
        dev = float(np.abs(ch.apply_matrix(state) - state).max())
        if dev > IDENTITY_TOL:
            raise FramenessError(
                f"commuting operator not fixed by the channel (dev {dev:.3e}); tolerances inconsistent"
            )
    return True


@dataclass
class ImageFixReport:
    """Numerical comparison of Image(E) and Fix(E) on sampled states."""

    idempotent: bool
    all_image_states_fixed: bool
    max_refix_deviation: float
    samples: int

    @property
    def consistent(self) -> bool:
        return self.idempotent == self.all_image_states_fixed


def image_fix_equivalence_check(ch: KrausChannel | BlockProjection, samples: int = 50,
                                seed: int = 0) -> ImageFixReport:
    """Check Image(E) = Fix(E) against the channel's idempotence verdict.

    For ``samples`` random states rho the report records whether E(E(rho))
    equals E(rho); by the idempotence criterion both verdicts must agree.  The
    states are those of ``samples`` random_density_operator calls on one rng,
    drawn, validated and mapped in stacks of at most 2^16 complex entries.
    """
    rng = np.random.default_rng(seed)
    worst, per_stack = 0.0, max(1, _STACK_ENTRIES // ch.dim**2)
    for start in range(0, samples, per_stack):
        rhos, _ = _validated_density(_density_stack(ch.dim, rng, min(per_stack, samples - start)))
        image = ch.apply_matrix(rhos)
        worst = max(worst, float(np.abs(ch.apply_matrix(image) - image).max()))
    return ImageFixReport(
        idempotent=ch.is_idempotent(),
        all_image_states_fixed=worst <= COMPOSED_TOL,
        max_refix_deviation=worst,
        samples=samples,
    )


def relative_entropy_to_image(ch: KrausChannel | BlockProjection, rho: DensityOperator) -> float:
    """min over sigma in Image(E) of S(rho || sigma), as the entropy gap.

    Requires E unital and idempotent; then the minimum equals
    S(E(rho)) - S(rho) and is attained at sigma = E(rho).  A block projection
    meets both by its form and gives S(E(rho)) from its blocks.
    """
    if not ch.is_unital():
        raise ChannelPreconditionError("channel is not unital")
    if not ch.is_idempotent():
        raise ChannelPreconditionError("channel is not idempotent")
    return ch.image_entropy(rho) - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# Generators for unital idempotent test channels


def pinching_channel(projectors) -> BlockProjection:
    """rho -> sum_k P_k rho P_k for a complete family of orthogonal projectors: blocks (1, rank P_k).

    Each P_k must be a d x d Hermitian matrix with eigenvalues within INPUT_TOL of
    0 or 1; its eigenvectors of eigenvalue 1 are its basis columns.  BlockProjection
    then checks that the columns of all P_k form a unitary, so an overlapping
    family raises there and an incomplete one here.
    """
    ps = [np.asarray(p, dtype=complex) for p in projectors]
    if not ps:
        raise ValueError("a pinching needs at least one projector")
    d = ps[0].shape[0]
    cols = []
    for k, p in enumerate(ps):
        if p.shape != (d, d):
            raise ShapeMismatchError(f"projector {k} has shape {p.shape}, expected {(d, d)}")
        herm = float(np.abs(p - p.conj().T).max())
        if herm > INPUT_TOL:
            raise ValueError(f"projector {k} is not Hermitian (deviation {herm:.3e})")
        lams, vecs = np.linalg.eigh(p)
        ones = lams > 0.5
        off = float(np.abs(lams - ones).max())
        if off > INPUT_TOL:
            raise ValueError(f"projector {k} has an eigenvalue {off:.3e} away from 0 and 1")
        if ones.any():
            cols.append(vecs[:, ones])
    rank = sum(c.shape[1] for c in cols)
    if rank != d:
        raise ValueError(f"projectors of total rank {rank} do not complete dimension {d}")
    return BlockProjection(np.concatenate(cols, axis=1), [(1, c.shape[1]) for c in cols])


def dephasing_channel(basis_unitary) -> BlockProjection:
    """Measure-and-forget along the basis {U|k>}: the block projection with blocks (1, 1)."""
    return BlockProjection(np.asarray(basis_unitary), [(1, 1)] * len(basis_unitary))


def conditional_expectation_channel(block_dims, unitary: np.ndarray | None = None) -> BlockProjection:
    """Projection onto a block algebra: sectors (m_q x n_q) with the m factor scrambled.

    ``block_dims`` is a list of (m_q, n_q) pairs with sum m_q * n_q equal to
    the total dimension; on each sector the channel replaces the m factor by
    the maximally mixed state and acts as the identity on the n factor.  An
    optional unitary conjugates the whole block structure.
    """
    sizes = [m * n for m, n in block_dims]
    basis = _identity_blocks(np.arange(sum(sizes)), sizes) if unitary is None else np.asarray(unitary)
    return BlockProjection(basis, block_dims)


def twirl_channel(unitaries) -> KrausChannel:
    """Uniform average over a finite set of unitaries, rho -> mean U rho U^dag."""
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    n = len(us)
    return KrausChannel([u / np.sqrt(n) for u in us])


def _random_block_dims(dim: int, rng: np.random.Generator, with_multiplicity: bool):
    """Random sector structure (m_q, n_q) with sum m_q n_q = dim."""
    blocks = []
    left = dim
    while left > 0:
        if with_multiplicity and left >= 4 and rng.random() < 0.5:
            m = int(rng.integers(2, int(np.sqrt(left)) + 1))
            n = int(rng.integers(1, left // m + 1))
        else:
            m = int(rng.integers(1, left + 1))
            n = 1
        blocks.append((m, n))
        left -= m * n
    return blocks


def random_unital_idempotent_channel(dim: int, rng: np.random.Generator) -> KrausChannel | BlockProjection:
    """Sample one unital idempotent channel: pinching, finite twirl, or block projection.

    The twirl branch averages over a random cyclic phase group (order <= 8)
    conjugated by a Haar unitary; the other branches build pinchings and
    conditional expectations with random block structure.
    """
    kind = rng.integers(0, 3)
    u = haar_unitary(dim, rng)
    if kind == 0:
        # pinching onto a random partition of a rotated basis
        dims = [m for m, _ in _random_block_dims(dim, rng, with_multiplicity=False)]
        projectors = []
        offset = 0
        for m in dims:
            block = u[:, offset:offset + m]
            projectors.append(block @ block.conj().T)
            offset += m
        return pinching_channel(projectors)
    if kind == 1:
        order = int(rng.integers(2, 9))
        charges = rng.integers(0, order, size=dim)
        gens = [u @ np.diag(np.exp(2j * np.pi * k * charges / order)) @ u.conj().T
                for k in range(order)]
        return twirl_channel(gens)
    return conditional_expectation_channel(_random_block_dims(dim, rng, with_multiplicity=True), u)
