"""Group twirling and the asymmetry it measures.

The twirl averages a state over a group action; its fixed points are exactly
the invariant states, and the entropy it adds,

    A_G(rho) = S(G(rho)) - S(rho),

equals the minimum relative-entropy distance from rho to the invariant set
(the minimizer being G(rho) itself).  That identity is what
:func:`g_asymmetry` returns and what :func:`invariant_state_oracle`
brackets by brute-force search.

Realized actions:

* finite groups: uniform average over the |G| conjugations, Kraus-only
  (idempotence checked on the Choi matrices, O(d^4 min(|G|^2 + |G|, d^2)));
* U(1): pinching across charge sectors (intra-sector coherence survives);
* collective SU(2): per spin sector, scramble the irrep factor to the
  maximally mixed state while leaving the multiplicity factor untouched,
  killing cross-sector blocks.

The U(1) and SU(2) twirls are each a :class:`~frameness.channels.BlockProjection`,
the one conditional-expectation type, idempotent by its form: identity basis
blocks on the charge sectors with sectors (1, n_c), and the Schur basis's
Hamming-weight blocks with sectors (2j+1, mult_j).  So :func:`g_asymmetry`
takes S(G(rho)) from the small sector blocks, or for a
:class:`~frameness.states.PureState` (S(psi) = 0) from its sector
coefficients, and never forms the d x d matrix G(rho); that is formed only
when :attr:`AsymmetryResult.twirled_state` is read.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import BlockProjection, KrausChannel, _identity_blocks, twirl_channel
from .groups import ChargeGrading, CollectiveSpinRep, FiniteGroupRep, multiplicity_dimension
from .sampling import random_density_operator, random_pure_state
from .states import (
    DensityOperator,
    FramenessError,
    ProbabilityDistribution,
    PureState,
    ShapeMismatchError,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)


class ClosedFormInapplicableError(FramenessError):
    """A closed-form asymmetry formula does not cover the given representation."""


class TwirlOperation:
    """The group-averaging channel ``channel`` of one of the supported group families."""

    __slots__ = ("kind", "rep", "channel")

    def __init__(self, kind: str, rep, channel: KrausChannel | BlockProjection):
        self.kind = kind
        self.rep = rep
        self.channel = channel

    @classmethod
    def finite(cls, rep: FiniteGroupRep) -> "TwirlOperation":
        return cls("finite", rep, twirl_channel(rep.unitaries))

    @classmethod
    def u1(cls, grading: ChargeGrading) -> "TwirlOperation":
        order = np.argsort(grading.charges, kind="stable")
        counts = np.unique(grading.charges, return_counts=True)[1].tolist()
        proj = BlockProjection(_identity_blocks(order, counts), [(1, n) for n in counts])
        return cls("u1", grading, proj)

    @classmethod
    def su2(cls, rep: CollectiveSpinRep) -> "TwirlOperation":
        # the real weight blocks of the Schur basis stay uncopied
        blocks = [(2 * sec.j + 1, sec.multiplicity) for sec in rep.sectors]
        return cls("su2", rep, BlockProjection(rep.weight_blocks, blocks))

    @property
    def dim(self) -> int:
        return self.channel.dim

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.channel.apply_matrix(x)

    def __call__(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix))

    def kraus_channel(self) -> KrausChannel:
        """The same map in explicit Kraus form (for the channel-calculus checks)."""
        return self.channel.kraus_channel()


class AsymmetryResult:
    """A_G of one state, both entropies, and G(state), built only when first read."""

    __slots__ = ("asymmetry", "entropy_in", "entropy_out", "_twirl", "_state", "_twirled")

    def __init__(self, asymmetry: float, entropy_in: float, entropy_out: float,
                 twirl: TwirlOperation, state: DensityOperator | PureState):
        self.asymmetry = asymmetry
        self.entropy_in = entropy_in
        self.entropy_out = entropy_out
        self._twirl = twirl
        self._state = state
        self._twirled = None

    @property
    def twirled_state(self) -> DensityOperator:
        """The dense G(state); the first read does the d x d twirl."""
        if self._twirled is None:
            state = self._state
            self._twirled = self._twirl(state.projector() if isinstance(state, PureState) else state)
        return self._twirled

    def __repr__(self):
        return (f"AsymmetryResult(asymmetry={self.asymmetry!r}, entropy_in={self.entropy_in!r}, "
                f"entropy_out={self.entropy_out!r})")


def g_asymmetry(twirl: TwirlOperation, state: DensityOperator | PureState) -> AsymmetryResult:
    """A_G(state) = S(G(state)) - S(state), along with both entropies and the twirled state.

    ``state`` is a density operator or a pure state.  S(G(state)) is the
    twirl channel's image entropy: blockwise for u1/su2 (see the module
    docstring), from the dense twirl for a finite group.
    """
    if not isinstance(state, (DensityOperator, PureState)):
        raise TypeError(f"expected a DensityOperator or PureState, got {type(state).__name__}")
    if isinstance(state, PureState) and isinstance(twirl.channel, KrausChannel):
        state = state.projector()  # a Kraus sum twirls the dense projector
    s_in = 0.0 if isinstance(state, PureState) else von_neumann_entropy(state)
    s_out = twirl.channel.image_entropy(state)
    return AsymmetryResult(s_out - s_in, s_in, s_out, twirl, state)


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


def maximal_asymmetry_state(family: str, *, n_max: int | None = None,
                            rep: CollectiveSpinRep | None = None) -> PureState:
    """The pure state attaining the maximal asymmetry for the given family.

    * ``"u1"``: uniform superposition over charges 0..n_max (1-dim sectors).
    * ``"su2"``: per sector j, a uniform Schmidt combination of
      d_j = min(2j+1, mult_j) irrep/multiplicity pairs taken in index order,
      with sector weight proportional to (2j+1) d_j.
    """
    if family == "u1":
        if n_max is None or n_max < 0:
            raise ValueError("u1 maximal state needs n_max >= 0")
        return PureState(np.full(n_max + 1, 1.0 / math.sqrt(n_max + 1), dtype=complex))
    if family == "su2":
        if rep is None:
            raise ValueError("su2 maximal state needs a CollectiveSpinRep")
        weights = {s.j: (2 * s.j + 1) * min(2 * s.j + 1, s.multiplicity) for s in rep.sectors}
        d_star = sum(weights.values())
        coords = np.zeros(rep.dim)  # in the Schur basis
        for sec in rep.sectors:
            d_j = min(2 * sec.j + 1, sec.multiplicity)
            coeff = math.sqrt(weights[sec.j] / (d_star * d_j))
            # pair the k-th m level with the k-th multiplicity label, k < d_j
            coords[sec.start + np.arange(d_j) * (sec.multiplicity + 1)] = coeff
        amps = np.zeros(rep.dim)
        for rows, cols, u in rep.weight_blocks:
            amps[rows] = u @ coords[cols]
        return PureState(amps / np.linalg.norm(amps))
    raise ValueError(f"no maximal-asymmetry construction for group family {family!r}")
