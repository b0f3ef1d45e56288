"""Many-copy behavior of the asymmetry: exact convolution, bounds, witnesses.

For a pure state with 1-dimensional charge sectors, the asymmetry of N copies
is the Shannon entropy of the N-fold convolution of the single-copy charge
distribution, so the whole N-sweep runs on distributions without ever
materializing the 2^N-dimensional state.  The convolved entropy approaches
the discrete-Gaussian value

    (1/2) log2(2 pi N V) + c,

where c = (1/2) log2(e) in bits (the literal constant 1/2 of the natural-log
convention is available as ``GAUSSIAN_CONSTANT_HALF``).  Dividing by N sends
the asymmetry to zero; re-linearizing through L(x) = 2^(2x) instead recovers
a quantity proportional to the single-copy charge variance.

The N-fold convolution is computed by binary powering with real FFTs
(:func:`convolve_copies`): at most 2 log2 N convolutions whose supports
double up to S = N (levels - 1) + 1, so O(S log S) work in all, where a loop
of direct convolutions costs O(N^2).  Its rounding error is absolute and of
order N eps times the largest weight, the conditioning of the problem itself.
Against the direct loop and against lgamma binomial entropies, the entropies
agree to 5e-12 bits at N = 2*10^4 and at N = 10^6 (Bernoulli 0.3), where one
convolution takes about 0.2 s on a 2-vCPU x86 machine.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .asymmetry import TwirlOperation, g_asymmetry
from .estimation import orbit_ensemble
from .groups import ChargeGrading, CollectiveSpinRep, FiniteGroupRep, symmetric_subspace_dimension
from .states import (
    CONVOLVED_SUM_EPS,
    ZERO_VARIANCE_CUTOFF,
    DensityOperator,
    FramenessError,
    ProbabilityDistribution,
    PureState,
    ResourceLimitError,
    _entropy_of_spectrum,
    max_dim,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
    within_bound,
)

GAUSSIAN_CONSTANT_BITS = 0.5 * math.log2(math.e)
GAUSSIAN_CONSTANT_HALF = 0.5  # natural-log convention, kept for literal reproduction

_MAX_CONVOLVED_SUPPORT = 1 << 22


def number_variance(grading: ChargeGrading, state) -> float:
    """V = Tr(rho N^2) - Tr(rho N)^2 for the grading's number operator."""
    if isinstance(state, PureState):
        weights = np.abs(state.amplitudes) ** 2
    elif isinstance(state, DensityOperator):
        weights = np.real(np.diagonal(state.matrix))
    else:
        raise TypeError("state must be a DensityOperator or PureState")
    if weights.size != grading.dim:
        raise ValueError(f"state dim {weights.size} does not match grading dim {grading.dim}")
    c = grading.charges.astype(float)
    return float(weights @ c**2 - (weights @ c) ** 2)


@dataclass
class NumberDistributionProfile:
    """Exact N-fold convolution of a per-copy charge distribution."""

    per_copy: ProbabilityDistribution
    copies: int
    convolved: ProbabilityDistribution

    def mean(self) -> float:
        w = self.convolved.weights
        return float(w @ np.arange(w.size))

    def variance(self) -> float:
        w = self.convolved.weights
        n = np.arange(w.size)
        return float(w @ n**2 - (w @ n) ** 2)


def _smooth_lengths(limit: int) -> list[int]:
    """Every 2^a 3^b 5^c <= limit, ascending: the lengths numpy's FFT transforms fast."""
    lengths = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:  # p35 = 3^b 5^c
            lengths += [p35 << a for a in range((limit // p35).bit_length())]
            p35 *= 3
        p5 *= 5
    return sorted(lengths)


# each convolution in convolve_copies yields a support of at most the cap
_FFT_LENGTHS = _smooth_lengths(_MAX_CONVOLVED_SUPPORT)


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for n <= ``_MAX_CONVOLVED_SUPPORT``.

    The same as ``scipy.fft.next_fast_len(n, real=True)``.
    """
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, n)]


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution a * b by one zero-padded real FFT (one forward transform if b is a)."""
    size = a.size + b.size - 1
    n = _fft_size(size)
    fa = np.fft.rfft(a, n)
    if b is a:
        fa *= fa
    else:
        fa *= np.fft.rfft(b, n)
    return np.fft.irfft(fa, n)[:size]


def convolve_copies(per_copy, n_copies: int) -> NumberDistributionProfile:
    """N-fold self-convolution of ``per_copy`` by binary powering.

    The law is squared once per bit of N and multiplied into the result once
    per set bit, each product one real-FFT convolution: at most 2 log2 N
    products of support at most S = N (len - 1) + 1.  The error is absolute,
    of order N eps times the largest weight, so weights below ``EIG_CUTOFF``
    (which every entropy drops) can be rounding noise.  The result must sum
    to (sum p)^N within ``CONVOLVED_SUM_EPS`` N eps; it is then divided by
    its sum and validated as a ``ProbabilityDistribution``, which clips
    negative noise to zero.  Zero weights at either end of the law only shift
    the result, so a point mass comes out exact at any N.
    """
    p = per_copy if isinstance(per_copy, ProbabilityDistribution) else ProbabilityDistribution(per_copy)
    if n_copies < 1:
        raise ValueError("need at least one copy")
    support = n_copies * (len(p) - 1) + 1
    if support > _MAX_CONVOLVED_SUPPORT:
        raise ResourceLimitError(f"convolved support {support} exceeds {_MAX_CONVOLVED_SUPPORT}")
    # zero end weights only shift the result: power the law between them
    lo, hi = np.flatnonzero(p.weights)[[0, -1]]
    power, acc, n = p.weights[lo:hi + 1], None, n_copies
    while n:
        if n & 1:
            acc = power if acc is None else _fft_convolve(acc, power)
        n >>= 1
        if n:
            power = _fft_convolve(power, power)
    # (sum p)^N is 1 - 1.3e-10 for the stored [0.7, 0.3] at N = 2^22 - 1, beyond INPUT_TOL
    total, expected = float(acc.sum()), math.fsum(p.weights) ** n_copies
    if abs(total - expected) > CONVOLVED_SUM_EPS * n_copies * np.finfo(float).eps:
        raise FramenessError(f"{n_copies}-fold convolution sums to {total!r}, expected {expected!r}")
    acc = np.pad(acc, (n_copies * lo, n_copies * (len(p) - 1 - hi)))
    acc /= total
    return NumberDistributionProfile(p, n_copies, ProbabilityDistribution(acc))


def u1_ncopy_asymmetry(per_copy, n_copies: int) -> float:
    """Asymmetry of N copies of a pure state, from its charge distribution alone."""
    return shannon_entropy(convolve_copies(per_copy, n_copies).convolved)


def _u1_ladder(per_copy, n_list) -> tuple[float, list[tuple[int, float]]]:
    """The per-copy law's variance and (N, A(N)) for each distinct N in ``n_list``, ascending."""
    p = per_copy if isinstance(per_copy, ProbabilityDistribution) else ProbabilityDistribution(per_copy)
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise ValueError("n_list must contain positive copy counts")
    return convolve_copies(p, 1).variance(), [(n, u1_ncopy_asymmetry(p, n)) for n in ns]


def gaussian_entropy_model(variance: float, n_copies: int,
                           constant: float = GAUSSIAN_CONSTANT_BITS) -> float:
    """Discrete-Gaussian entropy model (1/2) log2(2 pi N V) + constant."""
    if variance <= 0:
        raise ValueError("gaussian model needs a positive variance")
    return 0.5 * math.log2(2 * math.pi * n_copies * variance) + constant


@dataclass
class ScalingRow:
    copies: int
    asymmetry: float
    model_value: float
    gap: float

    @property
    def a_over_n(self) -> float:
        return self.asymmetry / self.copies


@dataclass
class ScalingReport:
    """Asymmetry vs copy count, against the Gaussian-entropy model."""

    model: str
    variance: float
    rows: list[ScalingRow] = field(default_factory=list)

    CSV_HEADER = ("N", "A_bits", "model_bits", "gap_bits", "A_over_N")

    def csv_rows(self):
        for r in self.rows:
            yield (r.copies, r.asymmetry, r.model_value, r.gap, r.a_over_n)


def regularized_asymmetry_table(per_copy, n_list,
                                constant: float = GAUSSIAN_CONSTANT_BITS) -> ScalingReport:
    """Tabulate exact N-copy asymmetry, the Gaussian model and their gap.

    With a point-mass per-copy distribution every row is zero (the state is
    already invariant); otherwise A/N decays toward zero while the gap to the
    model shrinks, which is the numerical content of the log-N law.
    """
    v1, ladder = _u1_ladder(per_copy, n_list)
    rows = []
    for n, a in ladder:
        model = gaussian_entropy_model(v1, n, constant) if v1 > ZERO_VARIANCE_CUTOFF else 0.0
        rows.append(ScalingRow(n, a, model, a - model))
    label = f"0.5*log2(2*pi*N*V) + {constant:.6f}"
    return ScalingReport(model=label, variance=v1, rows=rows)


# ---------------------------------------------------------------------------
# Group-family bounds on the N-copy asymmetry


@dataclass
class BoundRow:
    copies: int
    asymmetry: float
    bound: float

    @property
    def ok(self) -> bool:
        return within_bound(self.asymmetry, self.bound)


@dataclass
class FiniteGroupBoundReport:
    group_order: int
    rows: list[BoundRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def finite_group_bound_check(rep: FiniteGroupRep, rho: DensityOperator,
                             n_max: int) -> FiniteGroupBoundReport:
    """Check A_G(rho^(x)N) <= log2|G| for N = 1..n_max from the single-copy orbit.

    G(rho^(x)N) is the orbit average (1/|G|) sum_g (U_g rho U_g^dag)^(x)N and
    S(rho^(x)N) = N S(rho), so a row costs one d^N eigensolve and builds no
    N-copy representation or channel.  The bound does not depend on N.
    """
    if n_max < 1:
        raise ValueError(f"need at least one copy, got {n_max}")
    if rho.dim**n_max > max_dim():
        raise ResourceLimitError(f"dim {rho.dim}**{n_max} exceeds cap {max_dim()}")
    orbit = [sigma.matrix for sigma in orbit_ensemble(rep, rho).states]
    s_in, bound, rows = von_neumann_entropy(rho), math.log2(rep.order), []
    for n in range(1, n_max + 1):
        mean = np.zeros((rho.dim**n, rho.dim**n), dtype=complex)
        for sigma in orbit:
            mean += reduce(np.kron, [sigma] * n)
        s_out = _entropy_of_spectrum(np.linalg.eigvalsh(mean) / rep.order)
        rows.append(BoundRow(n, s_out - n * s_in, bound))
    return FiniteGroupBoundReport(rep.order, rows)


@dataclass
class LieGroupBound:
    """Design-cardinality bound on the N-copy asymmetry of d-level systems."""

    copies: int
    local_dim: int
    exact_bits: float       # 2 log2 C(N+d-1, d-1)
    asymptotic_bits: float  # 2 (d-1) log2 N


def lie_group_log_bound(n_copies: int, local_dim: int) -> LieGroupBound:
    if n_copies < 2 or local_dim < 2:
        raise ValueError("need n_copies >= 2 and local_dim >= 2")
    d_star = symmetric_subspace_dimension(n_copies, local_dim)
    return LieGroupBound(
        copies=n_copies,
        local_dim=local_dim,
        exact_bits=2.0 * math.log2(d_star),
        asymptotic_bits=2.0 * (local_dim - 1) * math.log2(n_copies),
    )


@dataclass
class Su2BoundReport:
    bound: LieGroupBound
    measured: list[float]

    @property
    def ok(self) -> bool:
        return all(within_bound(a, self.bound.exact_bits) for a in self.measured)


def su2_bound_check(rep: CollectiveSpinRep, states) -> Su2BoundReport:
    """Measure collective-SU(2) asymmetries against the qubit design bound."""
    twirl = TwirlOperation.su2(rep)
    measured = [g_asymmetry(twirl, rho).asymmetry for rho in states]
    return Su2BoundReport(lie_group_log_bound(rep.n_qubits, 2), measured)


# ---------------------------------------------------------------------------
# Variance discontinuity witness


def variance_witness_pair(n: int) -> tuple[PureState, PureState, ChargeGrading]:
    """Two nearby superpositions of charges 0 and 2n with variances n^2 and n^2 - 4n.

    The pair converges in trace norm as n grows while the variance gap 4n
    diverges relative to log n, witnessing that the variance fails asymptotic
    continuity even though every relative-entropy distance satisfies it.
    """
    if n <= 4:
        raise ValueError(f"witness needs n > 4, got {n}")
    psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    phi = PureState(np.array([math.sqrt(0.5 - 1 / math.sqrt(n)), math.sqrt(0.5 + 1 / math.sqrt(n))]))
    return psi, phi, ChargeGrading([0, 2 * n])


@dataclass
class WitnessRow:
    n: int
    variance_psi: float
    variance_phi: float
    variance_gap: float
    trace_dist: float
    gap_over_log: float


@dataclass
class WitnessReport:
    rows: list[WitnessRow]

    @property
    def trace_distances_decreasing(self) -> bool:
        t = [r.trace_dist for r in self.rows]
        return all(b < a for a, b in zip(t, t[1:]))

    @property
    def ratios_increasing(self) -> bool:
        r = [r.gap_over_log for r in self.rows]
        return all(b > a for a, b in zip(r, r[1:]))


def variance_discontinuity_witness(n_list) -> WitnessReport:
    """Tabulate the witness pair over n: variances, trace distance, gap / log2 n."""
    rows = []
    for n in sorted(set(int(n) for n in n_list)):
        psi, phi, grading = variance_witness_pair(n)
        v_psi = number_variance(grading, psi)
        v_phi = number_variance(grading, phi)
        td = trace_distance(psi.projector(), phi.projector())
        gap = v_psi - v_phi
        rows.append(WitnessRow(n, v_psi, v_phi, gap, td, gap / math.log2(n)))
    return WitnessReport(rows)


# ---------------------------------------------------------------------------
# Re-linearization


@dataclass
class RelinearizationRow:
    copies: int
    asymmetry: float
    relinearized: float

    @property
    def per_copy(self) -> float:
        return self.relinearized / self.copies


@dataclass
class RelinearizationReport:
    rows: list[RelinearizationRow]
    plateau: float         # L(A)/N at the largest tabulated N
    plateau_target: float  # 2 pi V 2^(2c), the exact large-N limit

    def relative_change(self, n_lo: int, n_hi: int) -> float:
        vals = {r.copies: r.per_copy for r in self.rows}
        return abs(vals[n_hi] - vals[n_lo]) / vals[n_lo]


def relinearized_monotone(per_copy, n_list,
                          constant: float = GAUSSIAN_CONSTANT_BITS) -> RelinearizationReport:
    """Apply L(x) = 2^(2x) to the exact N-copy asymmetry and normalize by N.

    L undoes the logarithm of the Gaussian-entropy law, so L(A)/N settles at
    2 pi V 2^(2c), an extensive quantity proportional to the per-copy charge
    variance (the asymmetry itself regularizes to zero).
    """
    v1, ladder = _u1_ladder(per_copy, n_list)
    rows = [RelinearizationRow(n, a, 2.0 ** (2.0 * a)) for n, a in ladder]
    target = 2.0 * math.pi * v1 * 2.0 ** (2.0 * constant)
    return RelinearizationReport(rows, rows[-1].per_copy, target)
