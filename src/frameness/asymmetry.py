"""Group twirling and the asymmetry it measures.

The twirl averages a state over a group action; its fixed points are exactly
the invariant states, and the entropy it adds,

    A_G(rho) = S(G(rho)) - S(rho),

equals the minimum relative-entropy distance from rho to the invariant set
(the minimizer being G(rho) itself).  That identity is what
:func:`relative_entropy_of_frameness` returns and what
:func:`invariant_state_oracle` brackets by brute-force search.

Realized actions:

* finite groups: uniform average over the |G| conjugations;
* U(1): pinching across charge sectors (intra-sector coherence survives);
* collective SU(2): per spin sector, scramble the irrep factor to the
  maximally mixed state while leaving the multiplicity factor untouched,
  killing cross-sector blocks.

For U(1) and SU(2) the twirl is block diagonal in a known basis U (the
charge-sorted computational basis, or the Schur basis):

    G(rho) = U (sum_q I_{m_q}/m_q (x) sigma_q) U^dag,

with m_q = 1 for a charge sector and m_q = 2j+1 for a spin sector, and
sigma_q the sector block of U^dag rho U traced over the m_q factor.  So
:func:`g_asymmetry` takes S(G(rho)) = sum_q m_q H(eig(sigma_q)/m_q) from the
small sector blocks and never forms the d x d matrix G(rho).  A
:class:`~frameness.states.PureState` input goes further: S(psi) = 0, and
each sigma_q shares its nonzero spectrum with the Gram matrix of the
m_q x n_q coefficient block of U^dag psi, taken on its smaller side, so no
d x d array is built at all.  The dense G(rho) is formed only when
:attr:`AsymmetryResult.twirled_state` is read.  Finite groups keep the
|G|-term sum.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import KrausChannel
from .groups import ChargeGrading, CollectiveSpinRep, FiniteGroupRep, multiplicity_dimension
from .sampling import random_density_operator, random_pure_state
from .states import (
    DensityOperator,
    FramenessError,
    ProbabilityDistribution,
    PureState,
    ShapeMismatchError,
    _entropy_of_spectrum,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)


class ClosedFormInapplicableError(FramenessError):
    """A closed-form asymmetry formula does not cover the given representation."""


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b without promoting a real operand to a complex copy: two real GEMMs instead."""
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        return (a.real @ b) + 1j * (a.imag @ b)
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return (a @ b.real) + 1j * (a @ b.imag)
    return a @ b


class TwirlOperation:
    """The group-averaging channel for one of the supported group families."""

    __slots__ = ("kind", "rep", "_charge_sectors")

    def __init__(self, kind: str, rep):
        if kind not in ("finite", "u1", "su2"):
            raise ValueError(f"unknown group kind {kind!r}")
        self.kind = kind
        self.rep = rep
        self._charge_sectors = None
        if kind == "u1":
            # basis indices of each charge sector, by ascending charge
            order = np.argsort(rep.charges, kind="stable")
            breaks = np.flatnonzero(np.diff(rep.charges[order])) + 1
            self._charge_sectors = tuple(np.split(order, breaks))

    @classmethod
    def finite(cls, rep: FiniteGroupRep) -> "TwirlOperation":
        return cls("finite", rep)

    @classmethod
    def u1(cls, grading: ChargeGrading) -> "TwirlOperation":
        return cls("u1", grading)

    @classmethod
    def su2(cls, rep: CollectiveSpinRep) -> "TwirlOperation":
        return cls("su2", rep)

    @property
    def dim(self) -> int:
        return self.rep.dim

    def _sector_blocks(self, x: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(m_q, sigma_q) per sector, so that G(x) = U (sum_q I_{m_q}/m_q (x) sigma_q) U^dag.

        u1: sigma_q = x[idx_q, idx_q].  su2: the sector block of B^dag x B
        traced over the 2j+1 irrep factor; the built Schur basis B is real,
        so x B is two real GEMMs.
        """
        if self.kind == "u1":
            return [(1, x[np.ix_(idx, idx)]) for idx in self._charge_sectors]
        b = self.rep.basis
        xb = _matmul(x, b)
        blocks = []
        for sec in self.rep.sectors:
            width, mult = 2 * sec.j + 1, sec.multiplicity
            cols = b[:, sec.start:sec.stop].reshape(self.dim, width, mult)
            rhs = xb[:, sec.start:sec.stop].reshape(self.dim, width, mult)
            blocks.append((width, np.tensordot(cols.conj(), rhs, axes=([0, 1], [0, 1]))))
        return blocks

    def _sector_coefficients(self, psi: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(m_q, C_q) per sector: the m_q x n_q block of U^dag psi, so sigma_q = C_q^T conj(C_q)."""
        if self.kind == "u1":
            return [(1, psi[idx].reshape(1, -1)) for idx in self._charge_sectors]
        c = _matmul(self.rep.basis.conj().T, psi)
        return [(2 * sec.j + 1, c[sec.start:sec.stop].reshape(2 * sec.j + 1, sec.multiplicity))
                for sec in self.rep.sectors]

    def _blockwise_entropy(self, state: DensityOperator | PureState) -> float:
        """S(G(state)) = sum_q m_q H(eig(sigma_q)/m_q), from the sector blocks (u1/su2 only)."""
        if isinstance(state, PureState):
            # sigma_q = C^T conj(C) has the nonzero spectrum of C C^dag: take the smaller Gram
            blocks = [(w, c @ c.conj().T if c.shape[0] <= c.shape[1] else c.T @ c.conj())
                      for w, c in self._sector_coefficients(state.amplitudes)]
        else:
            blocks = self._sector_blocks(state.matrix)
        return float(sum(w * _entropy_of_spectrum(np.linalg.eigvalsh(sigma) / w)
                         for w, sigma in blocks))

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise ShapeMismatchError(f"operator shape {x.shape} does not match dim {self.dim}")
        if self.kind == "finite":
            out = np.zeros_like(x)
            for u in self.rep.unitaries:
                out += u @ x @ u.conj().T
            return out / self.rep.order
        out = np.zeros_like(x)
        blocks = self._sector_blocks(x)
        if self.kind == "u1":
            for idx, (_, sigma) in zip(self._charge_sectors, blocks):
                out[np.ix_(idx, idx)] = sigma
            return out
        for sec, (width, sigma) in zip(self.rep.sectors, blocks):
            out[sec.start:sec.stop, sec.start:sec.stop] = np.kron(np.eye(width) / width, sigma)
        b = self.rep.basis
        return _matmul(_matmul(b, out), b.conj().T)

    def __call__(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix))

    def kraus_channel(self) -> KrausChannel:
        """The same map in explicit Kraus form (for the channel-calculus checks)."""
        if self.kind == "finite":
            scale = 1.0 / math.sqrt(self.rep.order)
            return KrausChannel([scale * u for u in self.rep.unitaries])
        if self.kind == "u1":
            return KrausChannel(self.rep.sector_projectors())
        rep = self.rep
        kraus = []
        for sec in rep.sectors:
            width, mult = 2 * sec.j + 1, sec.multiplicity
            cols = rep.basis[:, sec.start:sec.stop].reshape(rep.dim, width, mult)
            for m in range(width):
                for mp in range(width):
                    kraus.append(cols[:, m, :] @ cols[:, mp, :].conj().T / math.sqrt(width))
        return KrausChannel(kraus)


def _as_density(state: DensityOperator | PureState) -> DensityOperator:
    return state.projector() if isinstance(state, PureState) else state


class AsymmetryResult:
    """A_G of one state, both entropies, and G(state), built only when first read."""

    __slots__ = ("asymmetry", "entropy_in", "entropy_out", "_twirl", "_state", "_twirled")

    def __init__(self, asymmetry: float, entropy_in: float, entropy_out: float,
                 twirl: TwirlOperation, state: DensityOperator | PureState,
                 twirled: DensityOperator | None = None):
        self.asymmetry = asymmetry
        self.entropy_in = entropy_in
        self.entropy_out = entropy_out
        self._twirl = twirl
        self._state = state
        self._twirled = twirled

    @property
    def twirled_state(self) -> DensityOperator:
        """The dense G(state); the first read does the d x d twirl."""
        if self._twirled is None:
            self._twirled = self._twirl(_as_density(self._state))
        return self._twirled

    def __repr__(self):
        return (f"AsymmetryResult(asymmetry={self.asymmetry!r}, entropy_in={self.entropy_in!r}, "
                f"entropy_out={self.entropy_out!r})")


def g_asymmetry(twirl: TwirlOperation, state: DensityOperator | PureState) -> AsymmetryResult:
    """A_G(state) = S(G(state)) - S(state), along with both entropies and the twirled state.

    ``state`` is a density operator or a pure state.  For u1/su2 twirls
    S(G(state)) comes from the sector blocks (see the module docstring); the
    finite kind twirls the dense matrix, a pure state's projector included.
    """
    if not isinstance(state, (DensityOperator, PureState)):
        raise TypeError(f"expected a DensityOperator or PureState, got {type(state).__name__}")
    if state.dim != twirl.dim:
        raise ShapeMismatchError(f"state dim {state.dim} does not match twirl dim {twirl.dim}")
    if twirl.kind == "finite":
        rho = _as_density(state)
        twirled = twirl(rho)
        s_in, s_out = von_neumann_entropy(rho), von_neumann_entropy(twirled)
        return AsymmetryResult(s_out - s_in, s_in, s_out, twirl, state, twirled)
    s_in = 0.0 if isinstance(state, PureState) else von_neumann_entropy(state)
    s_out = twirl._blockwise_entropy(state)
    return AsymmetryResult(s_out - s_in, s_in, s_out, twirl, state)


def relative_entropy_of_frameness(twirl: TwirlOperation, rho: DensityOperator) -> float:
    """Minimum relative-entropy distance from rho to the invariant states (bits)."""
    return g_asymmetry(twirl, rho).asymmetry


def invariant_state_oracle(twirl: TwirlOperation, rho: DensityOperator,
                           trials: int = 100, seed: int = 0) -> float:
    """Brute-force the minimization over invariant states.

    Candidates are twirls of random states (invariant because the twirl is
    idempotent), convex mixtures of those with G(rho), and G(rho) itself, so
    the result can never exceed the closed-form value and bounds it from
    above within numerical tolerance.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    g_rho = twirl(rho)
    best = relative_entropy(rho, g_rho)
    for t in range(trials):
        if t % 2 == 0:
            tau = random_density_operator(twirl.dim, rng)
        else:
            tau = random_pure_state(twirl.dim, rng).projector()
        sigma = twirl(tau)
        best = min(best, relative_entropy(rho, sigma))
        lam = float(rng.uniform(0.05, 0.95))
        mixed = DensityOperator(lam * sigma.matrix + (1 - lam) * g_rho.matrix)
        best = min(best, relative_entropy(rho, mixed))
    return best


def u1_asymmetry_closed_form(grading: ChargeGrading, rho: DensityOperator) -> float:
    """H({p_n}) - S(rho) for gradings whose charge sectors are all 1-dimensional.

    With a sector of dimension > 1 the pinched state keeps intra-sector
    coherence and the formula fails; the general twirl route must be used
    instead, so this raises :class:`ClosedFormInapplicableError`.
    """
    if rho.dim != grading.dim:
        raise ShapeMismatchError(f"state dim {rho.dim} does not match grading dim {grading.dim}")
    charges, counts = np.unique(grading.charges, return_counts=True)
    if counts.max() > 1:
        raise ClosedFormInapplicableError(
            f"charge {charges[counts.argmax()]} has a {counts.max()}-dimensional sector; "
            "use g_asymmetry with the u1 twirl"
        )
    p = grading.sector_weights(rho)
    return shannon_entropy(ProbabilityDistribution(p)) - von_neumann_entropy(rho)


def su2_pure_asymmetry_closed_form(p, q, j_max: int) -> float:
    """Asymmetry of a collective-spin pure state from its sector data.

    ``p`` is the distribution over total spin j = 0..j_max and ``q[j]`` the
    Schmidt distribution of the sector component across the irrep and
    multiplicity factors (for j < j_max; the top sector has no multiplicity).
    Returns

        p[j_max] log2(2 j_max + 1)
        + sum_{j < j_max} p[j] (log2(2j+1) + H(q[j]))
        + H(p).
    """
    pw = p.weights if isinstance(p, ProbabilityDistribution) else ProbabilityDistribution(p).weights
    if pw.size != j_max + 1:
        raise ValueError(f"p must have j_max + 1 = {j_max + 1} entries, got {pw.size}")
    n_qubits = 2 * j_max
    total = pw[j_max] * math.log2(2 * j_max + 1) if j_max > 0 else 0.0
    for j in range(j_max):
        if pw[j] == 0.0:
            continue
        qj = q[j]
        if qj is None:
            raise ValueError(f"missing Schmidt distribution for occupied sector j={j}")
        qj = qj if isinstance(qj, ProbabilityDistribution) else ProbabilityDistribution(qj)
        cap = min(2 * j + 1, multiplicity_dimension(n_qubits, j))
        if len(qj) > cap:
            raise ValueError(f"sector j={j} admits at most {cap} Schmidt terms, got {len(qj)}")
        total += pw[j] * (math.log2(2 * j + 1) + shannon_entropy(qj))
    return total + shannon_entropy(pw)


def max_u1_asymmetry_value(n_max: int) -> float:
    """log2(n_max + 1): the ceiling for charges 0..n_max without multiplicity."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return math.log2(n_max + 1)


def max_su2_asymmetry_value(j_max: int) -> float:
    """log2((4/3) j_max^3 + (5/3) j_max + 1), evaluated in exact integer arithmetic."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    num = 4 * j_max**3 + 5 * j_max + 3
    assert num % 3 == 0
    return math.log2(num // 3)


def maximal_asymmetry_state(group_kind: str, *, n_max: int | None = None,
                            rep: CollectiveSpinRep | None = None) -> PureState:
    """The pure state attaining the maximal asymmetry for the given family.

    * ``"u1"``: uniform superposition over charges 0..n_max (1-dim sectors).
    * ``"su2"``: per sector j, a uniform Schmidt combination of
      d_j = min(2j+1, mult_j) irrep/multiplicity pairs taken in index order,
      with sector weight proportional to (2j+1) d_j.
    """
    if group_kind == "u1":
        if n_max is None or n_max < 0:
            raise ValueError("u1 maximal state needs n_max >= 0")
        return PureState(np.full(n_max + 1, 1.0 / math.sqrt(n_max + 1), dtype=complex))
    if group_kind == "su2":
        if rep is None:
            raise ValueError("su2 maximal state needs a CollectiveSpinRep")
        weights = {s.j: (2 * s.j + 1) * min(2 * s.j + 1, s.multiplicity) for s in rep.sectors}
        d_star = sum(weights.values())
        amps = np.zeros(rep.dim)
        for sec in rep.sectors:
            d_j = min(2 * sec.j + 1, sec.multiplicity)
            coeff = math.sqrt(weights[sec.j] / (d_star * d_j))
            for k in range(d_j):
                # pair the k-th m level with the k-th multiplicity label
                amps += coeff * rep.basis[:, sec.start + k * sec.multiplicity + k]
        return PureState(amps / np.linalg.norm(amps))
    raise ValueError(f"no maximal-asymmetry construction for group kind {group_kind!r}")
