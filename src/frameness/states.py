"""Dense state objects, the entropic functionals, and the tolerance table.

All entropies are in bits.  The single spectral primitive is the Hermitian
eigendecomposition: spectra come from numpy's ``eigvalsh``, and every eigenvector
solve goes through :func:`_eigh`, which takes the eigenpairs of a PSD matrix from
an SVD in the band 26 <= d < 64 and from ``eigh`` elsewhere; every entropy routes
through :func:`_entropy_of_spectrum`.  Every numerical threshold of the toolkit
is defined once, in the table below, so that tolerances compose predictably.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance table: every numerical threshold, grouped by what it guards.
EIG_CUTOFF = 1e-12   # treated as zero: eigenvalue, probability, trace, asymmetry; above eigensolver noise
INPUT_TOL = 1e-10    # an input's defining identity, entrywise: states, weights, Kraus, unitaries, effects
IDENTITY_TOL = 1e-9  # a channel or POVM identity: E(I) = I, effects summing to I
COMPOSED_TOL = 1e-8  # a product of checked inputs: E(E(x)) = E(x), the image = fix report, group closure
BOUND_TOL = 1e-8     # the slack in "measured <= bound" (within_bound)
TIGHT_TOL = 1e-4     # |upper - lower| of a tight entanglement sandwich
# Own meanings.
PURE_NORM_TOL = 1e-12         # | ||psi|| - 1 | of a state vector
NULL_WEIGHT_TOL = 1e-10       # weight rho may put outside supp(sigma) before S(rho||sigma) = inf
BLOCK_SPECTRUM_CUTOFF = 0.0   # zero in a unit-trace Schur-Weyl block: its ~eps noise adds ~1e-15 bits
ZERO_VARIANCE_CUTOFF = 1e-15  # a per-copy charge law with a smaller variance is a point mass
CONVOLVED_SUM_EPS = 8         # |sum - (sum p)^N| of an N-fold convolution, in units of N eps
WRAPPED_MASS_TOL = 1e-20      # N-fold law's tail mass folded into the transform window (Hoeffding)
VERIFY_TOL = 1e-8             # verify: an identity between two computed values
KLEIN_TOL = 1e-9              # verify: how far below 0 a sampled S(rho||sigma) may read
DEGENERATE_ANGLE_TOL = 1e-7   # |sin 2 theta| at which a qubit basis ignores gamma: ree reports (0, 0)
COPY_SPLIT_EPS = 64           # twirl build: eigenvalues of T(H) within 64 d eps ||H||_F are one irrep copy
INTERTWINER_TOL = 1e-6        # twirl build: a block of V^dag T(R) V below 1e-6 ||R||_F is zero (Schur)

# Workspace bound of one stacked computation, in complex entries (1 MiB), a constant
# rather than an option: sampled states mapped at once, dephasing candidates scored at
# once, group products matched at once.
_STACK_ENTRIES = 2**16
# The one memory budget, in bytes (4 GiB, one complex 2^14-square matrix): see _check_workspace.
MAX_WORKSPACE_BYTES = 2**32
# The band where _eigh takes an SVD.  Measured on OpenBLAS 0.3.31 with two threads: from
# d = 26 (past SMLSIZ = 25, ?heevd divides and conquers) eigh leaves the pool's idle worker
# spinning for ~134 ms of CPU per call; a complex SVD or eigvalsh leaves 0.1 ms below d = 64.
_EIGH_DC_DIM = 26
# From d = 64 eigh, eigvalsh and the SVD all thread, and the pool does real work.
_BLAS_THREAD_DIM = 64


class FramenessError(Exception):
    """Base class for all toolkit errors."""


class InvalidStateError(FramenessError):
    """A matrix or vector violates the density-operator/pure-state invariants."""


class InvalidDistributionError(FramenessError):
    """A probability distribution is negative or not normalized."""


class ShapeMismatchError(FramenessError):
    """Operands have incompatible dimensions."""


class ResourceLimitError(FramenessError):
    """A request's estimated workspace exceeds MAX_WORKSPACE_BYTES, or its work or group order a cap."""


def _check_workspace(nbytes: float, what: str):
    """Raise ResourceLimitError, naming ``what``, if its estimate ``nbytes`` exceeds the budget."""
    if nbytes > MAX_WORKSPACE_BYTES:
        nbytes = nbytes if nbytes < 1e300 else math.inf  # an integer past float range reads inf
        raise ResourceLimitError(f"{what}: estimated {nbytes:.3g} bytes exceed the "
                                 f"{MAX_WORKSPACE_BYTES:.3g}-byte workspace budget")


class DensityOperator:
    """Finite-dimensional density operator: Hermitian, unit trace, PSD.

    The matrix is symmetrized, frozen (read-only) and validated on
    construction; instances are immutable and safe to share across threads.
    The spectrum computed for the PSD check is kept (read-only), so
    :meth:`eigenvalues` and every entropy of the state cost no further
    eigensolve.
    """

    __slots__ = ("dim", "matrix", "_spectrum")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape}")
        m, spectrum = _validated_density(m)
        m.setflags(write=False)
        spectrum.setflags(write=False)
        self.dim = int(m.shape[0])
        self.matrix = m
        self._spectrum = spectrum

    @classmethod
    def _of_checked(cls, m: np.ndarray, spectrum: np.ndarray) -> "DensityOperator":
        """A state from a symmetrized matrix and its read-only spectrum, already checked (as by
        :func:`_validated_density`): no eigensolve.  The matrix is frozen here."""
        m.setflags(write=False)
        state = object.__new__(cls)
        state.dim, state.matrix, state._spectrum = int(m.shape[0]), m, spectrum
        return state

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum (read-only; computed once, on construction)."""
        return self._spectrum

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(np.kron(self.matrix, other.matrix))

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def _validated_density(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The DensityOperator checks on a complex (..., d, d) stack: (symmetrized stack, spectra).

    Finite, Hermitian and unit trace to INPUT_TOL entrywise, then PSD through one
    stacked eigvalsh; the worst matrix of the stack is the one reported.
    """
    if not np.isfinite(m).all():
        raise InvalidStateError("matrix has a non-finite entry (NaN or inf)")
    mh = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.abs(m - mh).max()) if m.size else 0.0
    if herm_dev > INPUT_TOL:
        raise InvalidStateError(f"not Hermitian: max deviation {herm_dev:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    trace_dev = np.abs(tr - 1.0)
    if trace_dev.max() > INPUT_TOL:
        worst = complex(np.ravel(tr)[trace_dev.argmax()])
        raise InvalidStateError(f"trace {worst:.12g} differs from 1 beyond tolerance")
    m = 0.5 * (m + mh)
    spectrum = np.linalg.eigvalsh(m)
    lowest = float(spectrum[..., 0].min())
    if lowest < -INPUT_TOL:
        raise InvalidStateError(f"not PSD: smallest eigenvalue {lowest:.3e}")
    return m, spectrum


def _eigh(a: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian (..., d, d) stack.

    The caller guarantees that ``a + shift I`` is PSD.  For _EIGH_DC_DIM <= d <
    _BLAS_THREAD_DIM the pairs come from the SVD of ``a + shift I``, taken complex
    (a real SVD threads from d = 48): the singular values of a PSD matrix are its
    eigenvalues and its left singular vectors its eigenvectors, but an eigenvalue
    -x below -shift would read as +x, so the precondition is what makes them one.
    Elsewhere this is ``numpy.linalg.eigh(a)``.
    """
    d = a.shape[-1]
    if not _EIGH_DC_DIM <= d < _BLAS_THREAD_DIM:
        return np.linalg.eigh(a)
    u, s, _ = np.linalg.svd(a + shift * np.eye(d, dtype=complex))
    return s[..., ::-1] - shift, u[..., ::-1]


class PureState:
    """Unit-norm state vector."""

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if v.size == 0:
            raise InvalidStateError("empty amplitude vector")
        if not np.isfinite(v).all():
            raise InvalidStateError("amplitude vector has a non-finite entry (NaN or inf)")
        # numpy's pairwise sum: BLAS's norm reads an exact uniform vector 1.2e-12 short at d = 10^6 + 1
        norm = math.sqrt(float((v.real**2 + v.imag**2).sum()))
        if abs(norm - 1.0) > PURE_NORM_TOL:
            raise InvalidStateError(f"norm {norm:.15f} differs from 1 beyond {PURE_NORM_TOL:g}")
        v.setflags(write=False)
        self.dim = int(v.size)
        self.amplitudes = v

    def projector(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class ProbabilityDistribution:
    """Finite sequence of nonnegative weights summing to one (to INPUT_TOL)."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise InvalidDistributionError("empty distribution")
        total = float(w.sum())  # finite when every weight is, so the entries are checked only when it is not
        if not math.isfinite(total) and not np.isfinite(w).all():
            raise InvalidDistributionError("non-finite weight (NaN or inf)")
        if float(w.min()) < -INPUT_TOL:
            raise InvalidDistributionError(f"negative weight {w.min():.3e}")
        if abs(total - 1.0) > INPUT_TOL:
            raise InvalidDistributionError(f"weights sum to {total:.12g}, expected 1")
        w = np.maximum(w, 0.0)
        w.setflags(write=False)
        self.weights = w

    def __len__(self):
        return int(self.weights.size)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return float(self.weights[i])


def _as_weights(p) -> np.ndarray:
    if isinstance(p, ProbabilityDistribution):
        return p.weights
    return ProbabilityDistribution(p).weights


def within_bound(measured: float, bound: float) -> bool:
    """measured <= bound, up to BOUND_TOL: the one rule for every bound check."""
    return bool(measured <= bound + BOUND_TOL)


def _entropy_of_spectrum(lams: np.ndarray, cutoff: float = EIG_CUTOFF):
    """-sum lam log2 lam over the last axis, lam <= cutoff as 0; a stack gives an array."""
    safe = np.where(lams > cutoff, lams, 1.0)  # 1 log2 1 = 0
    terms = np.log2(safe)
    terms *= safe
    h = 0.0 - terms.sum(axis=-1)  # not -sum: a zero entropy is +0.0, never -0.0
    return float(h) if np.ndim(h) == 0 else h


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr rho log2 rho, with eigenvalues below the cutoff dropped."""
    return _entropy_of_spectrum(rho.eigenvalues())


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i with 0 log 0 = 0."""
    return _entropy_of_spectrum(_as_weights(p))


def binary_entropy(p: float) -> float:
    """H2(p) for a single probability p in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy needs p in [0, 1], got {p}")
    return _entropy_of_spectrum(np.array([p, 1.0 - p]))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) in bits; math.inf when supp(rho) is not inside supp(sigma).

    Computed as -S(rho) - sum_i <v_i|rho|v_i> log2 s_i over the eigenpairs
    (s_i, v_i) of sigma with s_i above the cutoff.  The weight rho places on
    sigma's null space decides the infinity sentinel.
    """
    if rho.dim != sigma.dim:
        raise ShapeMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    s, vecs = _eigh(sigma.matrix, INPUT_TOL)
    # diagonal of V^dag rho V, one GEMM: weight of rho along each eigenvector of sigma
    w = (vecs.conj() * (rho.matrix @ vecs)).sum(axis=0).real
    null = s <= EIG_CUTOFF
    if float(w[null].sum()) > NULL_WEIGHT_TOL:
        return math.inf
    keep = ~null
    cross = float((w[keep] * np.log2(s[keep])).sum())
    return -von_neumann_entropy(rho) - cross


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Trace norm ||a - b||_1 (no 1/2 factor): orthogonal pure states give 2."""
    if a.dim != b.dim:
        raise ShapeMismatchError(f"dims {a.dim} and {b.dim} differ")
    return float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def partial_trace(rho: DensityOperator, dims: tuple[int, int], keep: int) -> DensityOperator:
    """Reduced state of a bipartite operator with A-major index ordering.

    ``dims = (dA, dB)`` must factor ``rho.dim``; ``keep`` is 0 for the A
    factor, 1 for B.
    """
    da, db = int(dims[0]), int(dims[1])
    if da * db != rho.dim:
        raise ShapeMismatchError(f"dims {da}x{db} do not factor {rho.dim}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (first factor) or 1 (second factor)")
    r = rho.matrix.reshape(da, db, da, db)
    red = np.einsum("ijkj->ik", r) if keep == 0 else np.einsum("ijil->jl", r)
    return DensityOperator(red)


# ---------------------------------------------------------------------------
# JSON wire format.  Complex scalars serialize as [re, im]; matrices are
# row-major lists of rows.  Readers re-validate all invariants on load.

def _complex_to_pairs(a) -> list:
    """A complex array as nested lists whose innermost entries are [re, im] floats."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_from_pairs(x, axes: tuple) -> np.ndarray:
    """[re, im] pairs, as nested lists or a float array, viewed as a complex array.

    ``axes`` names the complex array's axes; an input whose shape is not
    ``(*axes, 2)`` raises ``ValueError`` naming that shape.
    """
    expected = "(" + ", ".join(axes) + ", 2)"
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a numeric array of shape {expected}: {exc}") from None
    if a.ndim != len(axes) + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected a numeric array of shape {expected}, got shape {a.shape}")
    return np.ascontiguousarray(a).view(complex)[..., 0]


def _declared_int(obj: dict, key: str, error: type[FramenessError]) -> int | None:
    """The optional integer ``obj[key]`` of a file's envelope, None when the key is absent.

    Any other JSON value (a list, a string, a fraction, NaN) raises ``error``
    naming the key.
    """
    if key not in obj:
        return None
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"'{key}' must be an integer, got {value!r:.40}")
    return value


def complex_matrix_to_json(m: np.ndarray) -> list:
    return _complex_to_pairs(m)


def complex_matrix_from_json(rows) -> np.ndarray:
    return _complex_from_pairs(rows, ("rows", "cols"))


def density_to_json(rho: DensityOperator) -> dict:
    return {"dim": rho.dim, "matrix": complex_matrix_to_json(rho.matrix)}


def density_from_json(obj: dict) -> DensityOperator:
    m = complex_matrix_from_json(obj["matrix"])
    dim = _declared_int(obj, "dim", InvalidStateError)
    if dim is not None and dim != m.shape[0]:
        raise InvalidStateError(f"declared dim {dim} but matrix is {m.shape[0]}x{m.shape[1]}")
    return DensityOperator(m)


def pure_state_to_json(psi: PureState) -> dict:
    return {"dim": psi.dim, "amplitudes": _complex_to_pairs(psi.amplitudes)}


def pure_state_from_json(obj: dict) -> PureState:
    v = _complex_from_pairs(obj["amplitudes"], ("dim",))
    dim = _declared_int(obj, "dim", InvalidStateError)
    if dim is not None and dim != v.size:
        raise InvalidStateError(f"declared dim {dim} but vector has {v.size} entries")
    return PureState(v)
