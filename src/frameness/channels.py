"""Quantum channels and the unital-idempotent calculus.

The central fact used downstream: when a trace-preserving map is unital and
idempotent, the minimum relative-entropy distance from a state rho to the
channel's image is the entropy gap S(E(rho)) - S(rho), attained at E(rho)
itself.  :func:`relative_entropy_to_image` evaluates that gap after checking
both preconditions.  :class:`BlockProjection` is the one conditional-expectation
type (every group twirl, pinchings, block algebras, dephasing): its basis is a
direct sum of unitary blocks, it is idempotent by its form and its entropy
comes block by block (its Kraus form is a test oracle, never built here).
User channels stay Kraus sums; their idempotence is probed on one
seeded operator X with unimodular entries, max |E(E(X)) - E(X)| <= COMPOSED_TOL,
in O(n d^3) time for n Kraus operators.  A nonzero E o E - E is missed only on
a null set of phases; against the entrywise rule on the superoperator the
verdicts differed only where that rule read 5e-9 to 1e-8.  Both types apply to
one operator or to a (..., d, d) stack, and :func:`image_fix_equivalence_check`
validates and maps its sampled states in stacks of bounded size.  The
generators at the bottom produce test channels going beyond group twirls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import _density_stack, haar_unitary
from .states import (
    COMPOSED_TOL,
    COPY_SPLIT_EPS,
    IDENTITY_TOL,
    INPUT_TOL,
    INTERTWINER_TOL,
    _STACK_ENTRIES,
    DensityOperator,
    FramenessError,
    PureState,
    ShapeMismatchError,
    _eigh,
    _entropy_of_spectrum,
    _validated_density,
    von_neumann_entropy,
)

_EPS = np.finfo(float).eps


class ChannelPreconditionError(FramenessError):
    """An operation requires a unital and/or idempotent channel."""


def _operand(x, dim: int) -> np.ndarray:
    """``x`` as a complex d x d operator or a (..., d, d) stack of them."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-2:] != (dim, dim):
        raise ShapeMismatchError(f"operator shape {x.shape} does not match dim {dim}")
    return x


class KrausChannel:
    """Completely positive trace-preserving map E(rho) = sum_a E_a rho E_a^dag."""

    __slots__ = ("dim", "kraus")

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise FramenessError("a channel needs at least one Kraus operator")
        d = len(ops[0]) if ops[0].ndim else 0  # a 0-d operator fails the shape check
        if not d or any(k.shape != (d, d) for k in ops):
            raise ShapeMismatchError("Kraus operators must share one nonempty square shape")
        if not all(np.isfinite(k).all() for k in ops):
            raise FramenessError("a Kraus operator has a non-finite entry (NaN or inf)")
        dev = float(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(d)).max())
        if not dev <= INPUT_TOL:
            raise FramenessError(f"sum E^dag E deviates from identity by {dev:.3e}")
        for k in ops:
            k.setflags(write=False)
        self.dim = d
        self.kraus = tuple(ops)

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
        """dim^2 x dim^2 matrix on row-major vectorized operators: a reference no verdict here uses."""
        m = np.zeros((self.dim**2, self.dim**2), dtype=complex)
        for k in self.kraus:
            m += np.kron(k, k.conj())
        return m

    def is_unital(self) -> bool:
        eye = np.eye(self.dim)
        return float(np.abs(self.apply_matrix(eye) - eye).max()) <= IDENTITY_TOL

    def is_idempotent(self) -> bool:
        """max |E(E(X)) - E(X)| <= COMPOSED_TOL on one probe X_ij = exp(2 pi i u_ij), u from default_rng(0).

        O(n d^3) for n Kraus operators, uncached.  A nonzero E o E - E is missed only for phases on a
        null set; the verdict differed from the entrywise rule max |S @ S - S| <= COMPOSED_TOL on the
        superoperator S only where S read 5e-9 to 1e-8, the probe reading 0.4 to 7.6 times S's value.
        """
        x = self.apply_matrix(np.exp(2j * np.pi * np.random.default_rng(0).random((self.dim, self.dim))))
        return bool(np.abs(self.apply_matrix(x) - x).max() <= COMPOSED_TOL)

    def __repr__(self):
        return f"KrausChannel(dim={self.dim}, n_kraus={len(self.kraus)})"


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b without promoting a real operand to a complex copy: two real GEMMs instead."""
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        return (a.real @ b) + 1j * (a.imag @ b)
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return (a @ b.real) + 1j * (a @ b.imag)
    return a @ b


def _slab_adjoint(u, xu: np.ndarray, c: int, n: int) -> np.ndarray:
    """u[:, c:c+n]^dag xu[..., c:c+n] for xu = x u, a row slice for u = None (the identity)."""
    if u is None:
        return xu[..., c:c + n, c:c + n]
    return _matmul(u[:, c:c + n].conj().T, xu[..., c:c + n])


def _checked_unitary(u) -> np.ndarray:
    """``u`` as a square array, after checking u^dag u = I to INPUT_TOL."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size:
        raise ShapeMismatchError(f"basis matrix must be nonempty and square, got {u.shape}")
    _check_unitaries(u)
    return u


def _check_unitaries(us: np.ndarray):
    """Raise ValueError unless the d x d matrix, or each matrix of a (C, d, d) stack, is finite
    and unitary to INPUT_TOL; the first failure in stack order is the one reported."""
    if not np.isfinite(us).all():
        raise ValueError("basis matrix has a non-finite entry (NaN or inf)")
    dev = np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(dev <= INPUT_TOL))
    if bad.size:
        raise ValueError(f"basis matrix is not unitary (deviation {dev.flat[bad[0]]:.3e})")


def _identity_blocks(rows: np.ndarray, sizes) -> list:
    """Permutation basis blocks on consecutive runs of ``rows``: U[:, c] = e_{rows[c]}."""
    ends = np.cumsum(sizes).tolist()
    return [(rows[t - n:t], np.arange(t - n, t), None) for n, t in zip(sizes, ends)]


class BlockProjection:
    """Conditional expectation onto a block algebra, E(x) = U (sum_q I_{m_q}/m_q (x) sigma_q) U^dag.

    sigma_q = Tr_{m_q} x_q, x_q the q-th diagonal block of U^dag x U with column
    index r n_q + alpha (r < m_q scrambled, alpha < n_q kept); ``blocks`` lists
    the (m_q, n_q).  ``basis`` is U as a d x d unitary array, or as a direct sum
    of unitary blocks: a sequence of (rows, cols, u), U[rows, cols] = u, whose
    rows and whose cols each partition range(d), each slab (q, r) n_q adjacent
    columns of one u.  Blocks keep their dtype and are checked unitary; a block
    u = None is the identity, U[rows, cols] = I, applied by index gathers alone
    (no check, no product).  Unital and idempotent by this form.
    """

    __slots__ = ("dim", "basis", "blocks", "_slabs")

    def __init__(self, basis, blocks):
        if isinstance(basis, np.ndarray):  # one dense block
            basis = [(np.arange(len(basis)), np.arange(len(basis)), basis)]
        self.basis = tuple((np.asarray(r), np.asarray(c), None if u is None else _checked_unitary(u))
                           for r, c, u in basis)
        self.blocks = tuple((int(m), int(n)) for m, n in blocks)
        if not self.blocks or min(min(mn) for mn in self.blocks) < 1:
            raise ValueError(f"blocks must be a nonempty list of positive (m, n), got {blocks}")
        if any(r.ndim != 1 or c.shape != r.shape or (u is not None and u.shape[0] != r.size)
               for r, c, u in self.basis):
            raise ShapeMismatchError("each basis block needs one row and one column index per side")
        rows_cols = np.concatenate([blk[:2] for blk in self.basis], axis=1)
        d = sum(m * n for m, n in self.blocks)
        if rows_cols.shape[1] != d:
            raise ShapeMismatchError(f"blocks cover dimension {d}, basis has {rows_cols.shape[1]}")
        if (np.sort(rows_cols) != np.arange(d)).any():
            raise ValueError("the rows and the columns of the basis blocks must each partition range(d)")
        self.dim = d
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
        xu = [x[..., r[:, None], r] if u is None else _matmul(x[..., r[:, None], r], u)
              for r, _, u in self.basis]
        return [sum(_slab_adjoint(self.basis[b][2], xu[b], c, n) for b, c in slabs)
                for (_, n), slabs in zip(self.blocks, self._slabs)]

    def image_entropy(self, state: DensityOperator | PureState) -> float:
        """S(E(state)) = sum_q m_q H(eig(sigma_q)/m_q), from the sector blocks."""
        if state.dim != self.dim:
            raise ShapeMismatchError(f"state dim {state.dim} does not match dim {self.dim}")
        if isinstance(state, PureState):
            # sigma_q = C^T conj(C) for the m_q x n_q block C of U^dag psi; it has the
            # nonzero spectrum of C C^dag, so take the smaller Gram matrix
            psi = state.amplitudes
            coeffs = [psi[r] if u is None else _matmul(u.conj().T, psi[r]) for r, _, u in self.basis]
            cs = [np.array([coeffs[b][c:c + n] for b, c in slabs])
                  for (_, n), slabs in zip(self.blocks, self._slabs)]
            sigmas = [c @ c.conj().T if c.shape[0] <= c.shape[1] else c.T @ c.conj() for c in cs]
        else:
            sigmas = self._sector_blocks(state.matrix)
        # one stacked eigvalsh and entropy per sector shape and dtype (a real block keeps its real
        # solver), summed in sector order
        ms, kinds, h = np.array([m for m, _ in self.blocks], dtype=float), {}, np.empty(len(sigmas))
        for q, sigma in enumerate(sigmas):
            kinds.setdefault((sigma.shape, sigma.dtype), []).append(q)
        for qs in kinds.values():
            spectra = np.linalg.eigvalsh(np.array([sigmas[q] for q in qs])) / ms[qs, None]
            h[qs] = _entropy_of_spectrum(spectra)
        return float(sum(m * hq for (m, _), hq in zip(self.blocks, h.tolist())))

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """The dense E(x) of one operator or a (..., d, d) stack; block diagonal over the basis rows."""
        x = _operand(x, self.dim)
        fills = [np.zeros(x.shape[:-2] + (r.size, r.size), dtype=complex) for r, _, _ in self.basis]
        for (m, n), slabs, sigma in zip(self.blocks, self._slabs, self._sector_blocks(x)):
            for b, c in slabs:
                fills[b][..., c:c + n, c:c + n] = sigma / m
        out = np.zeros_like(x)
        for (r, _, u), fill in zip(self.basis, fills):
            out[..., r[:, None], r] = fill if u is None else _matmul(_matmul(u, fill), u.conj().T)
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
    d = len(ps[0]) if ps[0].ndim else 0  # a 0-d or empty projector fails the shape check
    cols = []
    for k, p in enumerate(ps):
        if not d or p.shape != (d, d):
            raise ShapeMismatchError(f"projector {k} has shape {p.shape}, not a nonempty {(d, d)}")
        if not np.isfinite(p).all():
            raise ValueError(f"projector {k} has a non-finite entry (NaN or inf)")
        herm = float(np.abs(p - p.conj().T).max())
        if not herm <= INPUT_TOL:
            raise ValueError(f"projector {k} is not Hermitian (deviation {herm:.3e})")
        lams = np.linalg.eigvalsh(p)  # not _eigh's values: its SVD would read an eigenvalue -1 as +1
        ones = lams > 0.5
        off = float(np.abs(lams - ones).max())
        if not off <= INPUT_TOL:
            raise ValueError(f"projector {k} has an eigenvalue {off:.3e} away from 0 and 1")
        if ones.any():
            cols.append(_eigh(p, INPUT_TOL)[1][:, ones])
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


def _orbit_mean(us: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T(x) = mean_g U_g x U_g^dag over the (n, d, d) stack, in stacks of at most _STACK_ENTRIES."""
    per = max(1, _STACK_ENTRIES // x.size)
    return sum((u @ x @ u.conj().transpose(0, 2, 1)).sum(0)
               for u in np.split(us, range(per, len(us), per))) / len(us)


def twirl_channel(unitaries) -> BlockProjection:
    """rho -> mean_g U_g rho U_g^dag over a finite group's unitaries, as the projection onto the commutant.

    Numerical block-diagonalization (Murota, Kanno, Kojima & Kojima 2010) from one seeded draw:
    T(h) = (+)_lam I_(d_lam) (x) h_lam for Hermitian h, so each eigenvalue run of T(h) (gaps at most
    COPY_SPLIT_EPS d eps ||h||_F, as the orbit sum rounds with h) is one irrep copy, and by Schur's
    lemma block (b, a) of V^dag T(r) V is zero unless copies a and b are equivalent, and then c times
    a unitary that aligns b with a.  Each build is certified on a third seeded X against the orbit
    average, max |E(X) - T(X)| <= COMPOSED_TOL, with one more draw from the next seed; a list that
    is neither a group nor a uniform multiset of one raises.
    """
    us = np.asarray(unitaries, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2] or not us.size:
        raise ShapeMismatchError(f"expected a nonempty stack of square unitaries, got shape {us.shape}")
    if not np.isfinite(us).all():
        raise FramenessError("a unitary has a non-finite entry (NaN or inf)")
    d = us.shape[1]
    for seed in (0, 1):
        g = np.random.default_rng(seed).standard_normal((3, 2, d, d))
        h, r, x = g[:, 0] + 1j * g[:, 1]
        h += h.conj().T
        norm = np.linalg.norm(h)
        lams, v = _eigh(_orbit_mean(us, h), norm)  # T(h) + ||h||_F I is PSD
        lams, v = lams[::-1], v[:, ::-1]  # descending
        starts = np.flatnonzero(np.diff(lams, prepend=np.inf) < -COPY_SPLIT_EPS * d * _EPS * norm)
        sizes, k = np.diff(starts, append=d), v.conj().T @ _orbit_mean(us, r) @ v
        norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(k)**2, starts, axis=0), starts, axis=1))
        same = (norms > INTERTWINER_TOL * np.linalg.norm(r)) & (sizes[:, None] == sizes)
        np.fill_diagonal(same, True)
        first = same.argmax(axis=1)  # each copy's class: the first copy equivalent to it
        copy = np.repeat(np.arange(starts.size), sizes)  # the copy of each column of V
        offset = np.arange(d) - starts[copy]
        align = np.where(copy[:, None] == copy, k[:, starts[first][copy] + offset], 0)
        roots, cls = np.unique(first, return_inverse=True)
        basis = (v @ (align * (np.sqrt(sizes) / norms[range(starts.size), first])[copy])
                 )[:, np.lexsort((copy, offset, cls[copy]))]  # slabs: class, then r < d_lam, then copy
        try:
            proj = BlockProjection(basis, zip(sizes[roots], np.bincount(cls)))
        except ValueError as exc:  # a misaligned basis is not unitary
            failure = str(exc)
            continue
        dev = float(np.abs(proj.apply_matrix(x) - _orbit_mean(us, x)).max())
        if dev <= COMPOSED_TOL:
            return proj
        failure = f"deviates from the orbit average by {dev:.3e}"
    raise FramenessError(f"the projection onto the commutant of these {len(us)} unitaries {failure} "
                         f"(tol {COMPOSED_TOL:.0e}): they are not a group")


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


def random_unital_idempotent_channel(dim: int, rng: np.random.Generator) -> BlockProjection:
    """Sample one unital idempotent channel: pinching, finite twirl, or block projection.

    The twirl branch averages over a random cyclic phase group (order <= 8)
    conjugated by a Haar unitary; the other branches project onto random block
    structures in that rotated basis, a pinching onto sectors (1, n_q).
    """
    kind = rng.integers(0, 3)
    u = haar_unitary(dim, rng)
    if kind == 1:
        order = int(rng.integers(2, 9))
        charges = rng.integers(0, order, size=dim)
        gens = [u @ np.diag(np.exp(2j * np.pi * k * charges / order)) @ u.conj().T
                for k in range(order)]
        return twirl_channel(gens)
    blocks = _random_block_dims(dim, rng, with_multiplicity=kind == 2)
    return conditional_expectation_channel(blocks if kind == 2 else [(1, m) for m, _ in blocks], u)
