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

The N-fold law comes from powering the law's spectrum over the window that
holds its mass (:func:`convolve_copies`).  By Hoeffding's inequality all but
``WRAPPED_MASS_TOL`` (1e-20) of the N-fold law of a law on 0..D lies within
t = D sqrt(N ln(2 / 1e-20) / 2), about 4.8 D sqrt N, of its mean, so one real
FFT of length L >= min(N D + 1, 2 t + 1), rounded up to a 2^a 3^b 5^c length,
holds the law folded modulo L: 1440 points at N = 2*10^4 and 9720 at
N = 10^6 (D = 1).  The spectrum is raised to the N-th power in polar form,
from the law's levels in centred form where |F|^N > (sum w)^N / N
(:func:`_centred_log_power`; 17 of 4861 frequencies at N = 10^6), and one
inverse FFT and a read-back by index follow: O(D sqrt N log N) work.  A ladder
of N goes through one pass (:func:`_power_rows`): only the transforms run row
by row.  Against 30-digit mpmath with the weights at or below ``EIG_CUTOFF``
dropped, as every entropy drops them, the N = 10^6 row is within 2.7e-14 bits
for p = 0.3 and exact for p = 0.5.  On a shared 2-vCPU x86 machine (numpy
2.4.6; medians of 41 interleaved in-process calls) the benchmark's 12-row
ladder to N = 2*10^4 takes 0.47-0.53 ms per law against 1.03-1.06 ms row by
row, and the default ladder to N = 10^6 0.73 ms against 1.29 ms.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .asymmetry import TwirlOperation, g_asymmetry
from .estimation import orbit_ensemble
from .groups import (ChargeGrading, CollectiveSpinRep, FiniteGroupRep, _distinct_conjugations,
                     symmetric_subspace_dimension)
from .states import (
    BLOCK_SPECTRUM_CUTOFF,
    CONVOLVED_SUM_EPS,
    EIG_CUTOFF,
    WRAPPED_MASS_TOL,
    ZERO_VARIANCE_CUTOFF,
    DensityOperator,
    FramenessError,
    ProbabilityDistribution,
    PureState,
    ResourceLimitError,
    _STACK_ENTRIES,
    _check_workspace,
    _entropy_of_spectrum,
    trace_distance,
    von_neumann_entropy,
    within_bound,
)

GAUSSIAN_CONSTANT_BITS = 0.5 * math.log2(math.e)
GAUSSIAN_CONSTANT_HALF = 0.5  # natural-log convention, kept for literal reproduction

_MAX_CONVOLVED_SUPPORT = 1 << 22
_QUBIT_BOUND_WORK = 1 << 35  # |G| N^4 of the qubit finite-group check: Q8 to N = 256, ~4 s on 2 cores
_EPS = np.finfo(float).eps
# what every N of a ladder shares (_prepare_law): the law p, its weights w on the lattice lo + spacing k
_Law = namedtuple("_Law", "p lo spacing w total levels level_weights mean")


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


# convolve_copies transforms at the powered law's length, at most the cap
_FFT_LENGTHS = _smooth_lengths(_MAX_CONVOLVED_SUPPORT)


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for n <= ``_MAX_CONVOLVED_SUPPORT``.

    The same as ``scipy.fft.next_fast_len(n, real=True)``.
    """
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, n)]


def _mass_window(law, n_copies: int) -> tuple[int, int, int]:
    """(L, start, c) for the N-fold law of ``law.w`` on 0..D: transform length, first index, centre.

    The N-fold law puts all but ``WRAPPED_MASS_TOL`` of its mass within
    t = D sqrt(N ln(2 / tol) / 2) of its mean (Hoeffding's inequality), so
    L = the fast length >= min(N D + 1, 2 t + 1), O(D sqrt N), and the window
    [start, start + min(L, N D + 1)) holds [c - t, c + t] with c = round(N mean),
    moved inside the support where it would cross an end.
    """
    size = n_copies * (law.w.size - 1) + 1
    reach = math.ceil((law.w.size - 1) * math.sqrt(n_copies * math.log(2 / WRAPPED_MASS_TOL) / 2))
    length = _fft_size(min(size, 2 * reach + 1))
    centre = round(n_copies * law.mean)
    return length, min(max(centre - length // 2, 0), size - min(length, size)), centre


def _centred_log_power(weights, levels, total: float, j, n_copies, centre, length) -> np.ndarray:
    """log F^N at theta = 2 pi j / L from the law's levels, centred on c: N log|F| + i (N phi - theta c).

    ``n_copies``, ``centre`` and ``length`` are each frequency j's row's N, c and L, or numbers for one
    row.  The angles a_x = theta (x - c / N) of the nonzero ``weights`` w_x at ``levels`` x, and
    theta c, are reduced exactly in integers, so the heavy levels near c / N have small, accurate
    angles.  phi = arg sum_x w_x e^(-i a_x), and sum w - |F| = 2 sum_x w_x sin^2((a_x + phi) / 2) is a
    sum of nonnegative terms, so N log|F| = N log(sum w) + N log1p(-(sum w - |F|) / sum w) keeps its
    relative precision where |F| is near sum w; an error in phi moves that sum only in second order.
    The sums run level by level, so a frequency's value does not depend on the others in the call.
    """
    cycle = n_copies * length
    mid = cycle // 2
    half = ((j * (levels[:, None] * n_copies - centre) + mid) % cycle - mid) * (np.pi / cycle)  # a_x / 2
    mean = (weights[:, None] * np.exp(-2j * half)).cumsum(0)[-1]
    phase = np.arctan2(mean.imag, mean.real)
    short = (2.0 * weights[:, None] * np.sin(half + 0.5 * phase) ** 2).cumsum(0)[-1]  # sum w - |F| < sum w
    theta_c = 2j * (np.pi / length) * (j * centre % length)
    return n_copies * (np.log1p(-short / total) + (math.log(total) + 1j * phase)) - theta_c


def _prepare_law(per_copy) -> _Law:
    p = per_copy if isinstance(per_copy, ProbabilityDistribution) else ProbabilityDistribution(per_copy)
    # zero end weights only shift the result, and a law on a sublattice only spreads it:
    # power the law on the lattice's points between them
    charges = p.weights.nonzero()[0]
    lo, spacing = int(charges[0]), max(int(np.gcd.reduce(charges - charges[0])), 1)
    levels, level_weights = (charges - lo) // spacing, p.weights[charges]
    total = math.fsum(level_weights)
    return _Law(p, lo, spacing, p.weights[lo:charges[-1] + 1:spacing], total, levels, level_weights,
                float(levels @ level_weights) / total)


def _row_groups(law: _Law, ns) -> list[list[tuple]]:
    """Rows (N, L, start, c, L // 2 + 1 bins, min(L, N D + 1) weights, first bin, first weight), grouped.

    A group's L sum to at most 2^22; a count below 1 or a support above 2^22 is refused first.
    """
    if min(ns, default=0) < 1:
        raise ValueError("need at least one copy")
    support = max(ns) * (len(law.p) - 1) + 1
    if support > _MAX_CONVOLVED_SUPPORT:
        raise ResourceLimitError(f"convolved support {support} exceeds {_MAX_CONVOLVED_SUPPORT}")
    groups, room = [], 0
    for n in ns:
        length, start, centre = _mass_window(law, n)
        if length > room:
            groups.append([])
            room, bin_at, weight_at = _MAX_CONVOLVED_SUPPORT, 0, 0
        bins, count = length // 2 + 1, min(length, n * (law.w.size - 1) + 1)
        groups[-1].append((n, length, start, centre, bins, count, bin_at, weight_at))
        room, bin_at, weight_at = room - length, bin_at + bins, weight_at + count
    return groups


def _power_rows(law: _Law, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized N-fold laws on a :func:`_row_groups` group's windows (see convolve_copies).

    Returns the windows concatenated, each row's first index in them and its start.
    """
    table, one = np.array(rows), len(rows) == 1  # one row's values broadcast, and are numbers to refine
    n, length, start, _, bins, count, first, firsts = table.T
    total, levels = law.total, law.levels
    spread = (lambda values, counts: values) if one else (lambda values, counts: values.repeat(counts))
    factor = np.concatenate([np.fft.rfft(law.w, r[1]) for r in rows])
    factor[first] = total  # F = sum w at theta = 0, so F^N = (sum w)^N there
    size = abs(factor)
    inverse = 1 / n
    near = (size > spread(total * _EPS**inverse, bins)).nonzero()[0]
    row = first[1:].searchsorted(near, "right")
    size, factor = size[near], factor[near]
    # F^N in polar form: at |F| = r sum w its error is about N eps r^N, so where
    # r^N > 1 / N it is taken from the levels instead, except at theta = 0
    log_power = n[row] * (np.log(size) + 1j * np.arctan2(factor.imag, factor.real))
    fine = size > (total * n**-inverse)[row]
    fine[near.searchsorted(first)] = False
    fine = fine.nonzero()[0]
    if fine.size * levels.size > np.minimum.reduce(length) and (
            np.bincount(row[fine], minlength=n.size) * levels.size > length).any():
        # many levels near a point mass: a row's ~L level terms go to its largest |F|
        fine = fine[np.lexsort((-size[fine], row[fine]))]
        rank = np.arange(fine.size) - row[fine].searchsorted(row[fine])
        fine = fine[rank < np.maximum(1, length // levels.size)[row[fine]]]
    step = max(1, _STACK_ENTRIES // levels.size)
    for k in (fine[i:i + step] for i in range(0, fine.size, step)):
        n_k, length_k, _, centre_k, _, _, first_k, _ = rows[0] if one else table[row[k]].T
        j = near[k] - first_k
        log_power[k] = _centred_log_power(law.level_weights, levels, total, j, n_k, centre_k, length_k)
    spectrum = np.zeros(first[-1] + bins[-1], dtype=complex)
    spectrum[near] = np.exp(log_power)
    # each transform holds its row's law folded modulo L, read from start (0 if the window is shorter)
    parts = []
    for _, length_r, start_r, _, bins_r, count_r, first_r, _ in rows:
        folded, cut = np.fft.irfft(spectrum[first_r:first_r + bins_r], length_r), start_r % length_r
        parts += folded[cut:count_r], folded[:cut]
    acc = np.concatenate(parts)
    # (sum p)^N is 1 - 1.3e-10 for the stored [0.7, 0.3] at N = 2^22 - 1, beyond INPUT_TOL
    got, expected = np.add.reduceat(acc, firsts), total**n
    bad = ~(abs(got - expected) <= CONVOLVED_SUM_EPS * _EPS * n)  # a NaN or inf sum fails too
    if bad.any():
        r = bad.argmax()
        raise FramenessError(f"{n[r]}-fold convolution sums to {float(got[r])!r}, "
                             f"expected {float(expected[r])!r}")
    acc[abs(acc) <= spread(-np.minimum.reduceat(acc, firsts), count)] = 0.0  # each row's noise
    acc /= spread(np.add.reduceat(acc, firsts), count)
    return acc, firsts, start


def convolve_copies(per_copy, n_copies: int) -> NumberDistributionProfile:
    """N-fold self-convolution of ``per_copy``, powering its spectrum over the window that holds the mass.

    One real FFT of length L = O(D sqrt N) holds the N-fold law folded modulo
    L (:func:`_mass_window`); read back by index, it differs from the law on
    the window by at most ``WRAPPED_MASS_TOL``, and the weights outside the
    window are zero.  F^N = e^(N log|F| + i N arg F) from the transform is
    off by about N eps r^N where |F| = r sum w, so where r^N > 1 / N it is
    taken from the m nonzero levels in centred form instead, with at most
    about L level terms in all; where |F|^N is below eps (sum w)^N it stays
    zero, which moves no weight by more than eps.  The raw result must sum to
    (sum p)^N within ``CONVOLVED_SUM_EPS`` N eps.  Its most negative weight
    measures the inverse transform's noise: every weight no larger in
    magnitude is set to zero, and the rest is divided by its sum.  Zero
    weights at either end of the law only shift the result, and a law on a
    sublattice only spreads it, so a point mass comes out exact at any N.
    The transforms cost O(L log L); the result has all N D + 1 weights, so
    the call is O(N).
    """
    law = _prepare_law(per_copy)
    window, _, (start,) = _power_rows(law, _row_groups(law, [n_copies])[0])
    out = np.zeros(n_copies * (len(law.p) - 1) + 1)
    out[n_copies * law.lo + law.spacing * start::law.spacing][:window.size] = window
    return NumberDistributionProfile(law.p, n_copies, ProbabilityDistribution(out))


def u1_ncopy_asymmetry(per_copy, n_copies):
    """Asymmetry of N copies of a pure state from its charge law (or prepared law); a list for a ladder."""
    law, out = per_copy if isinstance(per_copy, _Law) else _prepare_law(per_copy), []
    for rows in _row_groups(law, [int(n) for n in np.atleast_1d(n_copies)]):
        acc, firsts, _ = _power_rows(law, rows)
        safe = np.where(acc > EIG_CUTOFF, acc, 1.0)  # as _entropy_of_spectrum, row by row
        out += (0.0 - np.add.reduceat(np.log2(safe) * safe, firsts)).tolist()
    return out if np.ndim(n_copies) else out[0]


def _u1_ladder(per_copy, n_list) -> tuple[float, list[tuple[int, float]]]:
    """The per-copy law's variance and (N, A(N)) for each distinct N in ``n_list``, ascending."""
    law = _prepare_law(per_copy)  # once for the whole ladder
    ns = sorted(set(int(n) for n in n_list))
    return NumberDistributionProfile(law.p, 1, law.p).variance(), list(zip(ns, u1_ncopy_asymmetry(law, ns)))


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
    conjugation_bits: float  # log2 of the number of classes the rows' orbit means take one state from

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _dicke_jx(n: int) -> np.ndarray:
    """J_x of spin n/2 in the Dicke basis |n, k> (k ones, J_z = n/2 - k): real, tridiagonal."""
    k = np.arange(1, n + 1)
    jx = np.zeros((n + 1, n + 1))
    jx[k - 1, k] = jx[k, k - 1] = 0.5 * np.sqrt(k * (n - k + 1.0))  # (J_+ + J_-) / 2
    return jx


def symmetric_powers(us, n: int) -> np.ndarray:
    """Sym^n(U), the restriction of U^(x)n to the symmetric subspace, for a stack of 2 x 2 unitaries.

    In the Dicke basis, from the Euler form U = e^(i phi) R_z(alpha) R_y(beta)
    R_z(gamma): Sym^n(U) = e^(i n phi) e^(-i alpha J_z) e^(-i beta J_y)
    e^(-i gamma J_z).  J_y is J_x turned by pi/2 about z, so exp(-i beta J_y)
    comes from one real ``eigh`` of J_x shared by the stack.  The result is
    unitary and multiplicative to rounding at any n; the entries' monomial
    recursion drifts from unitarity by 5e-11 at n = 50 and 4e-4 at n = 100.
    """
    us = np.asarray(us, dtype=complex)
    phi = 0.5 * np.angle(np.linalg.det(us))
    a, b = (us[:, :, 0] * np.exp(-1j * phi)[:, None]).T  # U e^(-i phi) = [[a, -b*], [b, a*]]
    alpha, gamma = np.angle(b) - np.angle(a), -np.angle(a) - np.angle(b)
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    m = 0.5 * n - np.arange(n + 1)  # J_z, descending
    p = np.linalg.eigh(_dicke_jx(n))[1]  # columns: J_x = m[::-1], ascending
    rx = (p * np.exp(-1j * np.outer(beta, m[::-1]))[:, None, :]) @ p.T
    # e^(-i beta J_y) = e^(-i pi/2 J_z) e^(-i beta J_x) e^(i pi/2 J_z)
    left = np.exp(1j * (n * phi[:, None] - np.outer(alpha + 0.5 * np.pi, m)))
    return left[:, :, None] * rx * np.exp(-1j * np.outer(gamma - 0.5 * np.pi, m))[:, None, :]


def schur_weyl_weights(eigenvalues, n_copies: int) -> np.ndarray:
    """p_j = Tr of the spin-j block of rho^(x)N for a qubit, j = N/2, N/2 - 1, ...

    rho^(x)N = (+)_j det(rho)^(N/2-j) Sym^2j(rho) (x) I_(m_j), so with
    k = N/2 - j, p_j = m_j det^k Tr Sym^(N-2k)(rho) and
    m_j = C(N, k) - C(N, k-1).  Each weight is formed in log2, so neither
    m_j (2^N at most) nor det^k overflows or underflows before the product
    does; det = 0 leaves the one weight k = 0.
    """
    lo, hi = np.clip(np.sort(np.asarray(eigenvalues, dtype=float)), 0.0, None)
    k, binom = np.arange(n_copies // 2 + 1), [1]
    for i in range(1, k.size):
        binom.append(binom[-1] * (n_copies - i + 1) // i)  # C(N, i), exact
    log2_p = np.array([math.log2(c - b) for b, c in zip([0] + binom, binom)])  # log2 m_j
    # Tr Sym^n(rho) = hi^n sum_(i<=n) r^i with r = lo / hi <= 1
    sums = np.cumsum((lo / hi) ** np.arange(n_copies + 1))[n_copies - 2 * k]
    log2_p += (n_copies - 2 * k) * math.log2(hi) + np.log2(sums)
    if lo > 0.0:
        log2_p += k * math.log2(lo * hi)
    else:
        log2_p[1:] = -math.inf
    return np.exp2(log2_p)


def _qubit_block_gaps(states: np.ndarray, shares, eigenvalues, n_max: int) -> np.ndarray:
    """H(B_n) - H(Sym^n(rho)) for n = 0..n_max, each spectrum normalized to unit trace.

    B_n = sum_g s_g Sym^n(sigma_g) over the orbit states sigma_g = W_g diag(hi, lo)
    W_g^dag with shares s_g summing to 1, and Sym^n(sigma_g) = Sym^n(W_g) hi^n
    diag(r^k) Sym^n(W_g)^dag with r = lo / hi.  One state per distinct
    conjugation, with its share of the elements, gives the orbit mean; ``states``
    stacks them, (C, 2, 2).
    """
    lo, hi = np.clip(eigenvalues, 0.0, None)
    ws = np.linalg.eigh(states)[1][:, :, ::-1]  # larger first
    gaps, roots = np.zeros(n_max + 1), np.sqrt(np.asarray(shares, dtype=float))[:, None, None]
    for n in range(1, n_max + 1):
        q = (lo / hi) ** np.arange(n + 1)
        q /= q.sum()
        x = symmetric_powers(ws, n) * np.sqrt(q) * roots
        z = x.transpose(1, 0, 2).reshape(n + 1, -1)  # [X_1 X_2 ...]: B_n = z z^dag
        spectrum = np.linalg.eigvalsh(z @ z.conj().T)
        # not EIG_CUTOFF: a value crossing 1e-12 from one n to the next would step the gap by 4e-11 bits
        gaps[n] = (_entropy_of_spectrum(spectrum, BLOCK_SPECTRUM_CUTOFF)
                   - _entropy_of_spectrum(q, BLOCK_SPECTRUM_CUTOFF))
    return gaps


def finite_group_bound_check(rep: FiniteGroupRep, rho: DensityOperator,
                             n_max: int) -> FiniteGroupBoundReport:
    """Check A_G(rho^(x)N) <= log2|G| for N = 1..n_max from the single-copy orbit.

    G(rho^(x)N) is the orbit average (1/|G|) sum_g (U_g rho U_g^dag)^(x)N.
    Elements equal up to a phase give the same orbit state, so on both paths
    below the average takes one state per distinct conjugation, weighted by
    its share of the elements (:func:`groups._distinct_conjugations`, from
    the unitaries alone).  It mixes at most that many product states, so every
    row also stays below ``conjugation_bits``, log2 of the class count, often
    tighter than log2|G|.

    On a qubit, Schur-Weyl duality splits rho^(x)N into blocks
    det(rho)^(N/2-j) Sym^2j(rho) (x) I_(m_j), one per spin j, and the orbit
    average acts inside each block.  So A_G(rho^(x)N) = sum_j p_j A_j, with
    p_j the weight of block j (:func:`schur_weyl_weights`) and A_j the
    entropy gap between B_2j = mean_g Sym^2j(U_g rho U_g^dag) and Sym^2j(rho),
    both normalized.  One (n + 1) x (n + 1) block per n <= n_max serves every
    row: O(|G| n_max^4) time, capped at |G| n_max^4 <= 2^35, which also bounds
    the workspace.  For d > 2, each row sums the class states' Kronecker
    powers into one D x D mean, D = d^N, and eigensolves it: at most two D x D
    arrays and one (D/d)-square power at once, which must fit the workspace
    budget.  All limits are checked before any allocation.  Neither builds an
    N-copy representation or channel.  The bound does not depend on N.
    """
    if n_max < 1:
        raise ValueError(f"need at least one copy, got {n_max}")
    if rho.dim == 2 and rep.order * n_max**4 > _QUBIT_BOUND_WORK:
        raise ResourceLimitError(f"work |G| N^4 = {rep.order * n_max**4:.3g} for N <= {n_max} exceeds 2^35 "
                                 "(Q8 to N = 256, about 4 s)")
    if rho.dim > 2:  # the top mean and one Kronecker power, or the solver's copy; inf for D past 2^64
        top = rho.dim**n_max if n_max * rho.dim.bit_length() <= 64 else math.inf
        _check_workspace(16 * (2 * top**2 + (top / rho.dim)**2), f"{n_max} copies of a d = {rho.dim} state")
    firsts, shares = _distinct_conjugations(rep)
    states = orbit_ensemble(rep, rho).matrices[firsts]
    if rho.dim == 2:
        lam = rho.eigenvalues()
        gaps = _qubit_block_gaps(states, shares, lam, n_max)
        values = [float(schur_weyl_weights(lam, n) @ gaps[n::-2]) for n in range(1, n_max + 1)]
    else:
        values = _orbit_mean_asymmetries(states, shares, rho, n_max)
    bound = math.log2(rep.order)
    rows = [BoundRow(n, a, bound) for n, a in enumerate(values, 1)]
    # log2 of the class count, as log2|G| - log2|K|: for a representation |G| / classes is |K|
    return FiniteGroupBoundReport(rep.order, rows, bound - math.log2(rep.order / firsts.size))


def _orbit_mean_asymmetries(states: np.ndarray, shares, rho: DensityOperator, n_max: int) -> list[float]:
    """S(sum_c s_c sigma_c^(x)N) - N S(rho) for N = 1..n_max over the (C, d, d) ``states``, a mean per N."""
    s_in, out = von_neumann_entropy(rho), []
    for n in range(1, n_max + 1):
        mean = np.zeros((rho.dim**n, rho.dim**n), dtype=complex)
        for state, share in zip(states, shares):  # each power built afresh, released once added
            mean += functools.reduce(np.kron, [state] * (n - 1), share * state)  # share on the first factor
        out.append(_entropy_of_spectrum(np.linalg.eigvalsh(mean)) - n * s_in)
    return out


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
