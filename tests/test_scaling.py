import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr
import frameness.scaling
import frameness.states
from frameness.scaling import schur_weyl_weights, symmetric_powers
from frameness.states import EIG_CUTOFF, WRAPPED_MASS_TOL, _entropy_of_spectrum
from ncopy_oracle import kronecker_bound_asymmetries, mp_bound_asymmetries, tensor_power
from power_window_oracle import power_window


def binomial_entropy_oracle(n):
    """Direct sum over binomial coefficients, independent of the convolution code."""
    weights = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float) / 2.0**n
    return float(-(weights * np.log2(weights)).sum())


def convolve_copies_oracle(weights, n):
    """The direct loop: N - 1 linear convolutions with the per-copy law."""
    acc = weights
    for _ in range(n - 1):
        acc = np.convolve(acc, weights)
    return acc


def _charge_law(levels, shape, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(levels))
    if shape == "zero-ends":  # a 2-level law keeps one nonzero end
        w[0] = 0.0
        w[-1] = 0.0 if levels > 2 else w[-1]
    elif shape == "skewed":
        w = rng.dirichlet(np.full(levels, 0.05))
    elif shape == "subnormal":  # tails of the loop's products fall below 2^-1022
        w[0] = 0.0
        w *= 10.0 ** -rng.uniform(3, 8) / w.sum()
        w[0] = 1.0 - w.sum()
    return w / w.sum()


@given(st.integers(2, 8), st.sampled_from(["flat", "zero-ends", "skewed", "subnormal"]),
       st.integers(0, 10**6), st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_fft_powering_matches_the_convolution_loop(levels, shape, seed, n):
    # above N ~ 95 the transform covers only the window that holds the mass
    per_copy = fr.ProbabilityDistribution(_charge_law(levels, shape, seed))
    oracle = convolve_copies_oracle(per_copy.weights, n)
    profile = fr.convolve_copies(per_copy, n)
    assert profile.convolved.weights.shape == oracle.shape
    # An N-fold convolution has condition number ~N: rounding the law's weights
    # alone moves the result by ~N eps, and the loop rounds that much (measured
    # worst 0.95 N eps over 600 seeded laws with N <= 1000, most of it the loop's).
    weight_tol = 4 * n * np.finfo(float).eps
    assert_allclose(profile.convolved.weights, oracle, rtol=0, atol=weight_tol)
    # The entropy drops weights at or below EIG_CUTOFF, which is a jump of up to
    # EIG_CUTOFF log2(1 / EIG_CUTOFF) = 4e-11 bits for a weight on that edge.
    edge = np.count_nonzero(np.abs(oracle - EIG_CUTOFF) <= weight_tol)
    assert fr.u1_ncopy_asymmetry(per_copy, n) == pytest.approx(
        fr.shannon_entropy(oracle), abs=1e-11 + edge * EIG_CUTOFF * math.log2(1 / EIG_CUTOFF))


def mpmath_binomial_entropy(n, weights, cutoff=EIG_CUTOFF, digits=30):
    """Entropy in bits of the n-fold law of the two stored ``weights``, to ``digits`` digits.

    Like ``convolve_copies`` it normalises the law by its sum ((w0 + w1)^n, not 1 for the
    doubles [0.7, 0.3]), and like the entropy it drops the weights at or below ``cutoff``.
    The binomial law is unimodal, so the sum runs outwards from the mode and stops on each
    side at the first weight at or below the cutoff.
    """
    import mpmath  # the reference; mpmath is a test dependency only

    with mpmath.workdps(digits):
        total = mpmath.mpf(weights[0]) + mpmath.mpf(weights[1])
        q, p = mpmath.mpf(weights[0]) / total, mpmath.mpf(weights[1]) / total
        mode = int((n + 1) * p)
        w_mode = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(mode + 1)
                            - mpmath.loggamma(n - mode + 1) + mode * mpmath.log(p) + (n - mode) * mpmath.log(q))
        h = mpmath.mpf(0)
        for direction in (1, -1):
            k, w = mode, w_mode
            if direction == -1:  # the mode was summed going up
                k, w = mode - 1, w_mode * mode / (n - mode + 1) * q / p
            while 0 <= k <= n and w > cutoff:
                h -= w * mpmath.log(w, 2)
                w = w * ((n - k) / mpmath.mpf(k + 1) * p / q if direction == 1 else k / mpmath.mpf(n - k + 1) * q / p)
                k += direction
        return float(h)


def test_million_copies_match_the_binomial_entropy():
    n = 10**6
    for p in (0.3, 0.5):
        profile = fr.convolve_copies([1.0 - p, p], n)  # constructing it passed the INPUT_TOL sum check
        assert profile.convolved.weights.size == n + 1
        # Measured 2.5e-14 (p = 0.3) and 1.8e-15 (p = 0.5) apart.  The float lgamma sum would read
        # 6.1e-9 bits low at this N, and the weights at or below EIG_CUTOFF carry 5.8e-9 bits,
        # so the reference is exact arithmetic over the law and the cutoff the convolution
        # and the entropy use.
        assert fr.shannon_entropy(profile.convolved) == pytest.approx(
            mpmath_binomial_entropy(n, [1.0 - p, p]), abs=1e-13)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_three_level_law_matches_an_extended_precision_loop(seed):
    # the direct loop in 64-bit-mantissa arithmetic is exact to ~N 1e-19 relative per weight;
    # measured within 2.7e-15 bits, where squaring the spectrum read up to 3.0e-12 bits off
    n, q = 5000, np.random.default_rng([seed, 2]).dirichlet([30.0, 30.0, 30.0])
    w = fr.ProbabilityDistribution(q).weights
    acc = w.astype(np.longdouble)
    for _ in range(n - 1):
        acc = np.convolve(acc, w.astype(np.longdouble))
    acc = acc[acc > EIG_CUTOFF * acc.sum()] / acc.sum()
    reference = float(-(acc * np.log2(acc)).sum())
    assert fr.u1_ncopy_asymmetry(w, n) == pytest.approx(reference, abs=1e-13)


@given(st.integers(2, 8), st.sampled_from(["flat", "zero-ends", "skewed", "subnormal"]),
       st.integers(0, 10**6), st.integers(96, 1500))
@settings(max_examples=40, deadline=None)
def test_the_window_misses_at_most_the_wrapped_mass_tolerance(levels, shape, seed, n):
    w = _charge_law(levels, shape, seed)
    w = w[np.flatnonzero(w)[0]:np.flatnonzero(w)[-1] + 1]  # the law the window is set for
    oracle = convolve_copies_oracle(w, n)  # positive sums: its tails are accurate to N eps relative
    length, start, centre = fr.scaling._mass_window(fr.scaling._prepare_law(w), n)
    count = min(length, oracle.size)
    assert start <= centre <= start + count - 1 and 0 <= start <= oracle.size - count
    outside = math.fsum(oracle[:start]) + math.fsum(oracle[start + count:])
    assert outside <= WRAPPED_MASS_TOL
    got = fr.convolve_copies(w, n).convolved.weights
    assert not got[:start].any() and not got[start + count:].any()


def test_the_window_length_at_twenty_thousand_copies():
    # t = ceil(sqrt(N ln(2 / 1e-20) / 2)) = 684 for a two-level law: 2t + 1 = 1369 of 20001
    # points, rounded up to the fast length 1440
    length, start, centre = fr.scaling._mass_window(fr.scaling._prepare_law([0.7, 0.3]), 20000)
    assert (length, start, centre) == (1440, 6000 - 720, 6000)


def test_a_zero_of_the_spectrum_on_the_grid_raises_no_warning():
    # [0.5, 0.5] has F(pi) = 0, on the grid of every even transform length
    for n in (16, 1000, 20000):
        length = fr.scaling._mass_window(fr.scaling._prepare_law([0.5, 0.5]), n)[0]
        assert length % 2 == 0 and np.fft.rfft([0.5, 0.5], length)[-1] == 0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error", RuntimeWarning)
            weights = fr.convolve_copies([0.5, 0.5], n).convolved.weights
        assert fr.shannon_entropy(weights) == pytest.approx(mpmath_binomial_entropy(n, [0.5, 0.5]),
                                                            abs=1e-13)



def sparse_convolution_oracle(weights, n):
    """The direct loop over the law's nonzero levels only: exact positions, sums of products."""
    levels = {int(x): float(weights[x]) for x in np.flatnonzero(weights)}
    acc = dict(levels)
    for _ in range(n - 1):
        nxt = {}
        for y, a in acc.items():
            for x, b in levels.items():
                nxt[x + y] = nxt.get(x + y, 0.0) + a * b
        acc = nxt
    out = np.zeros(n * (len(weights) - 1) + 1)
    out[list(acc)] = list(acc.values())
    return out


@pytest.mark.parametrize("n", [1, 4])
def test_a_wide_sparse_law_costs_about_one_transform(n):
    # three levels spread over 0..10^5: the transform is as long as the support, and the
    # powering costs O(levels) per frequency (a parent-style full transform takes ~0.05 s)
    w = np.zeros(100001)
    w[[0, 1, 100000]] = [0.5, 0.3, 0.2]
    start = time.perf_counter()
    got = fr.convolve_copies(w, n).convolved.weights
    assert time.perf_counter() - start < 10.0
    assert_allclose(got, sparse_convolution_oracle(w, n), rtol=0, atol=4 * n * np.finfo(float).eps)


def test_a_law_with_many_levels_near_a_point_mass_refines_a_few_frequencies(monkeypatch):
    # |F| stays within 4e-6 of 1 everywhere, so |F|^N > 1 / N at every frequency; about one
    # transform length of level terms goes to the frequencies with the largest |F|, and the
    # rest keep the transform's rounding grown N-fold, as square-and-multiply did: measured
    # 24 N eps off the loop at the peak (square-and-multiply over the support read 19 N eps)
    n, w = 8, np.random.default_rng(3).dirichlet(np.ones(2001)) * 1e-6
    w[1000] += 1.0 - w.sum()
    refine, terms = fr.scaling._centred_log_power, []
    monkeypatch.setattr(fr.scaling, "_centred_log_power",
                        lambda weights, *rest: terms.append(weights.size * rest[2].size) or refine(weights, *rest))
    got = fr.convolve_copies(w, n).convolved.weights
    length = fr.scaling._mass_window(fr.scaling._prepare_law(w), n)[0]
    assert 0 < sum(terms) <= length
    assert_allclose(got, convolve_copies_oracle(w, n), rtol=0,
                    atol=4 * n * math.log2(length) * np.finfo(float).eps)

@pytest.mark.parametrize("w", [[0.3, 0.0, 0.0, 0.7], [0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.8]])
def test_a_law_on_a_sublattice_is_powered_on_the_lattice(w):
    # |F| = 1 at theta = 2 pi / k as well as at 0; on the lattice only theta = 0 has it
    n, spacing = 50000, len(w) - 1 - int(w[0] == 0.0)
    got = fr.convolve_copies(w, n).convolved.weights
    lo = n * int(w[0] == 0.0)
    assert got.size == (len(w) - 1) * n + 1 and np.count_nonzero(got[lo::spacing]) > 1000
    assert not np.delete(got, np.s_[lo::spacing]).any()
    assert fr.shannon_entropy(got) == pytest.approx(mpmath_binomial_entropy(n, [w[-1 - spacing], w[-1]]),
                                                    abs=1e-13)


def test_number_variance_examples():
    grading = fr.ChargeGrading([0, 1])
    number_state = fr.DensityOperator(np.diag([1.0, 0.0]))
    assert fr.number_variance(grading, number_state) == 0.0
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2))
    assert fr.number_variance(grading, plus) == pytest.approx(0.25)

    psi16, phi16, grading16 = fr.variance_witness_pair(16)
    assert fr.number_variance(grading16, psi16) == pytest.approx(256.0, abs=1e-10)
    assert fr.number_variance(grading16, phi16) == pytest.approx(256.0 - 64.0, abs=1e-8)


def test_convolution_examples():
    profile = fr.convolve_copies([0.5, 0.5], 2)
    assert_allclose(profile.convolved.weights, [0.25, 0.5, 0.25])

    profile16 = fr.convolve_copies([0.5, 0.5], 16)
    oracle = np.array([math.comb(16, k) for k in range(17)], dtype=float) / 2.0**16
    assert_allclose(profile16.convolved.weights, oracle, atol=1e-15)

    point = fr.convolve_copies([0.0, 1.0], 7)
    assert_allclose(point.convolved.weights, np.eye(8)[7], atol=1e-15)
    # zero end weights shift the powered law, so a point mass stays exact at any N
    far = fr.convolve_copies([0.0, 1.0, 0.0], 20000).convolved.weights
    assert far.size == 40001 and far[20000] == 1.0 and np.count_nonzero(far) == 1
    assert fr.u1_ncopy_asymmetry([0.0, 1.0, 0.0], 20000) == 0.0


def test_convolution_moment_additivity():
    rng = np.random.default_rng(0)
    per_copy = fr.ProbabilityDistribution(rng.dirichlet(np.ones(5)))
    one = fr.convolve_copies(per_copy, 1)
    many = fr.convolve_copies(per_copy, 12)
    assert many.mean() == pytest.approx(12 * one.mean(), abs=1e-9)
    assert many.variance() == pytest.approx(12 * one.variance(), abs=1e-9)
    assert many.convolved.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_convolution_sum_is_checked_then_normalized(monkeypatch):
    # the stored [0.7, 0.3] sums to 1 - 5.6e-17, so its 10^6-fold law sums to 1 - 3.2e-11
    big = fr.convolve_copies([0.7, 0.3], 10**6).convolved.weights
    assert abs(big.sum() - 1.0) < 1e-13
    irfft = np.fft.irfft
    monkeypatch.setattr(fr.scaling.np.fft, "irfft", lambda a, n: irfft(a, n) * (1 + 1e-9))
    with pytest.raises(fr.FramenessError, match="sums to"):
        fr.convolve_copies([0.7, 0.3], 1000)
    # a table row builds no ProbabilityDistribution: the sum check refuses a NaN itself
    monkeypatch.setattr(fr.scaling.np.fft, "irfft", lambda a, n: np.full(n, np.nan))
    with pytest.raises(fr.FramenessError, match="sums to nan"):
        fr.u1_ncopy_asymmetry([0.7, 0.3], 1000)


def test_fft_size_is_scipys_fast_real_length():
    from scipy.fft import next_fast_len

    sizes = list(range(1, 2**16 + 1))
    sizes += np.random.default_rng(0).integers(2**16, 2**22, size=4000).tolist() + [2**22]
    assert [fr.scaling._fft_size(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]


def test_convolution_budget():
    with pytest.raises(fr.ResourceLimitError):
        fr.convolve_copies([0.5, 0.5], 2**23)


def test_ncopy_asymmetry_examples():
    assert fr.u1_ncopy_asymmetry([0.25] * 4, 1) == pytest.approx(2.0)
    assert fr.u1_ncopy_asymmetry([0.5, 0.5], 16) == pytest.approx(
        binomial_entropy_oracle(16), abs=1e-12
    )


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_ncopy_asymmetry_matches_full_state_twirl(p):
    per_copy = [1.0 - p, p]
    psi = fr.PureState([math.sqrt(1.0 - p), math.sqrt(p)])
    for n in (1, 2, 4, 6):
        grading = fr.hamming_weight_grading(n)
        tw = fr.TwirlOperation.u1(grading)
        full = tensor_power(psi, n).projector()
        assert fr.u1_ncopy_asymmetry(per_copy, n) == pytest.approx(
            fr.g_asymmetry(tw, full).asymmetry, abs=1e-8
        )


def test_gaussian_entropy_model():
    v = 1.0 / (2.0 * math.pi)
    assert fr.gaussian_entropy_model(v, 1) == pytest.approx(0.5 * math.log2(math.e))
    # doubling N adds exactly half a bit
    assert fr.gaussian_entropy_model(0.25, 64) - fr.gaussian_entropy_model(0.25, 32) == \
        pytest.approx(0.5)
    assert abs(fr.u1_ncopy_asymmetry([0.5, 0.5], 200)
               - fr.gaussian_entropy_model(0.25, 200)) <= 0.02
    with pytest.raises(ValueError):
        fr.gaussian_entropy_model(0.0, 10)


def test_literal_half_constant_is_available():
    assert fr.GAUSSIAN_CONSTANT_HALF == 0.5
    bits = fr.gaussian_entropy_model(0.25, 100)
    literal = fr.gaussian_entropy_model(0.25, 100, constant=fr.GAUSSIAN_CONSTANT_HALF)
    assert bits - literal == pytest.approx(0.5 * math.log2(math.e) - 0.5)


def test_regularized_asymmetry_table():
    report = fr.regularized_asymmetry_table([0.5, 0.5], [10, 50, 100, 200])
    assert report.variance == pytest.approx(0.25)
    a_over_n = [r.a_over_n for r in report.rows]
    assert all(b < a for a, b in zip(a_over_n, a_over_n[1:]))
    for row in report.rows:
        if row.copies >= 100:
            assert abs(row.gap) <= 0.05
    assert report.rows[-1].a_over_n <= 0.05

    invariant = fr.regularized_asymmetry_table([0.0, 1.0], [1, 10, 100])
    assert all(r.asymmetry == pytest.approx(0.0, abs=1e-12) for r in invariant.rows)
    assert all(r.gap == pytest.approx(0.0, abs=1e-12) for r in invariant.rows)


def _ladder_law(levels, zero_ends, seed):
    w = np.random.default_rng(seed).dirichlet(np.ones(levels))
    if zero_ends:
        w = np.concatenate(([0.0], w, [0.0]))
    return w


# rows from N = 500 on (D = 1) are powered on a window shorter than the support
_TABLE_LADDER = [1, 2, 5, 20, 100, 500, 1000]


@given(st.one_of(st.builds(_ladder_law, st.integers(2, 5), st.booleans(), st.integers(0, 10**6)),
                 st.sampled_from([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [1.0]])))
@settings(max_examples=30, deadline=None)
def test_table_rows_match_the_full_support_entropy(w):
    # the table reads each row's entropy off the window of a law prepared once per ladder
    law = fr.scaling._prepare_law(w)
    if law.w.size > 1:
        assert fr.scaling._mass_window(law, _TABLE_LADDER[-1])[0] < _TABLE_LADDER[-1] * (law.w.size - 1) + 1
    rows = fr.regularized_asymmetry_table(w, _TABLE_LADDER).rows
    assert [r.copies for r in rows] == _TABLE_LADDER
    per_copy = fr.ProbabilityDistribution(w).weights
    for row in rows:
        full = fr.shannon_entropy(fr.convolve_copies(w, row.copies).convolved)
        assert abs(row.asymmetry - full) <= 1e-14
        oracle = convolve_copies_oracle(per_copy, row.copies)
        oracle = oracle / oracle.sum()
        # a weight this close to EIG_CUTOFF may fall on either side of it (see above)
        edge = np.count_nonzero(np.abs(oracle - EIG_CUTOFF) <= 1e-15)
        assert row.asymmetry == pytest.approx(
            fr.shannon_entropy(oracle), abs=1e-13 + edge * EIG_CUTOFF * math.log2(1 / EIG_CUTOFF))


def batched_windows(law, ns):
    """(window, start) of each N in ``ns`` from the batched kernel, group by group."""
    out = []
    for rows in fr.scaling._row_groups(law, ns):
        acc, firsts, starts = fr.scaling._power_rows(law, rows)
        out += zip(np.split(acc, firsts[1:]), starts.tolist())
    return out


def assert_rows_match_the_oracle(law, ns):
    # each row within 4 N eps of the per-row powering, and its entropy within 1e-14 bits
    entropies = fr.u1_ncopy_asymmetry(law, ns)
    for n, (window, start), entropy in zip(ns, batched_windows(law, ns), entropies):
        want, want_start = power_window(law, n)
        assert start == want_start and window.shape == want.shape
        assert_allclose(window, want, rtol=0, atol=4 * n * np.finfo(float).eps)
        assert abs(entropy - _entropy_of_spectrum(want)) <= 1e-14


def _lattice_law(levels, spacing, zeros, shape, seed):
    """A ``_charge_law`` on every ``spacing``-th charge, with ``zeros`` zero weights at each end."""
    w = _charge_law(levels, shape, seed)
    out = np.zeros(2 * zeros + spacing * (levels - 1) + 1)
    out[zeros::spacing][:levels] = w
    return out


@st.composite
def _ladders(draw):
    ns = draw(st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=20))
    # a neighbour of a large N usually shares its transform length
    ns += [n + 1 for n in ns[:draw(st.integers(0, len(ns)))]]
    return sorted(set(ns))[:30]


@given(st.builds(_lattice_law, st.integers(2, 8), st.integers(1, 3), st.integers(0, 2),
                 st.sampled_from(["flat", "zero-ends", "skewed", "subnormal"]), st.integers(0, 10**6)),
       _ladders())
@settings(max_examples=40, deadline=None)
def test_a_batched_ladder_matches_the_per_row_oracle(w, ns):
    ns = [n for n in ns if n * (len(w) - 1) < 2**22]  # within the support cap
    assume(ns)
    assert_rows_match_the_oracle(fr.scaling._prepare_law(w), ns)


def test_the_refinement_cap_holds_row_by_row_inside_a_batch(monkeypatch):
    # the law of test_a_law_with_many_levels_near_a_point_mass_refines_a_few_frequencies: every
    # frequency of both rows passes the refinement threshold, and each row keeps its own ~L terms
    w = np.random.default_rng(3).dirichlet(np.ones(2001)) * 1e-6
    w[1000] += 1.0 - w.sum()
    law, ns = fr.scaling._prepare_law(w), [3, 8]
    refine, copies = fr.scaling._centred_log_power, []
    monkeypatch.setattr(fr.scaling, "_centred_log_power", lambda weights, levels, total, j, n, *rest:
                        copies.append(np.broadcast_to(n, j.shape)) or refine(weights, levels, total, j, n, *rest))
    fr.u1_ncopy_asymmetry(law, ns)
    monkeypatch.undo()
    counts = np.bincount(np.concatenate(copies))  # refined frequencies per row
    assert [counts[n] for n in ns] == [fr.scaling._mass_window(law, n)[0] // law.levels.size for n in ns]
    assert_rows_match_the_oracle(law, ns)


def test_a_ladder_past_one_group_of_transforms_matches_the_oracle():
    # 300 rows near the support cap hold about 5.8 * 10^6 transform points: two groups of at most 2^22
    law, ns = fr.scaling._prepare_law([0.7, 0.3]), list(range(2**22 - 300, 2**22))
    groups = fr.scaling._row_groups(law, ns)
    assert len(groups) == 2 and all(sum(row[1] for row in rows) <= 2**22 for rows in groups)
    assert_rows_match_the_oracle(law, ns)


def test_a_table_past_the_support_cap_raises():
    with pytest.raises(fr.ResourceLimitError, match="convolved support 4194305 exceeds 4194304"):
        fr.regularized_asymmetry_table([0.7, 0.3], [10, 1000, 2**22])


def test_finite_group_bound_check():
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
    rep = fr.z2_phase_flip_rep()
    report = fr.finite_group_bound_check(rep, plus, 3)
    assert report.rows[0].asymmetry == pytest.approx(1.0, abs=1e-10)  # saturates log2|Z2|
    assert all(r.asymmetry <= 1.0 + 1e-8 for r in report.rows)
    assert report.ok

    invariant = fr.DensityOperator(np.diag([0.3, 0.7]))
    report = fr.finite_group_bound_check(rep, invariant, 3)
    assert all(abs(r.asymmetry) <= 1e-9 for r in report.rows)


# rows of the per-state path that the class stack replaced, as float.hex; the one d^N = 1296
# eigensolve (d = 6, N = 4) rounds with the BLAS thread count (8 ulp between 1 and 2 threads)
@pytest.mark.parametrize("dim, n_max, seed, rows, last_ulps", [
    (2, 8, 2024, ["0x1.e6c86fc4568b1p-2", "0x1.8b224ae8a3528p-1", "0x1.fa29a1ede3728p-1",
                  "0x1.2539d6f1c4464p+0", "0x1.443dc8a32ef18p+0", "0x1.5c47a6006852dp+0",
                  "0x1.6fbe48893fea7p+0", "0x1.7fa0f9ecd4f22p+0"], 0),
    (6, 4, 0, ["0x1.3945a00659db8p-1", "0x1.1b4da0c2bf20cp+0", "0x1.767b9dccc49a8p+0",
               "0x1.ada3ef9186760p+0"], 16),
])
def test_q8_bound_rows_hold_their_bits(dim, n_max, seed, rows, last_ulps):
    q8 = fr.quaternion_rep()
    rep = q8 if dim == 2 else fr.finite_group_from_unitaries([np.kron(u, np.eye(3)) for u in q8.unitaries])
    rho = fr.random_density_operator(dim, np.random.default_rng(seed))
    got = [r.asymmetry for r in fr.finite_group_bound_check(rep, rho, n_max).rows]
    want = [float.fromhex(h) for h in rows]
    assert got[:-1] == want[:-1]
    assert abs(got[-1] - want[-1]) <= last_ulps * np.spacing(want[-1])


def test_finite_group_bound_respects_dimension_cap(monkeypatch):
    # a budget of exactly the N = 4 qutrit peak, the 81-square mean and power and one 27-square power
    rep, rho = fr.cyclic_phase_rep([0, 1, 2], 3), fr.DensityOperator(np.eye(3) / 3)
    monkeypatch.setattr(frameness.states, "MAX_WORKSPACE_BYTES", 16 * (2 * 81**2 + 27**2))
    assert len(fr.finite_group_bound_check(rep, rho, 4).rows) == 4

    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the estimate")

    monkeypatch.setattr(np, "zeros", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    with pytest.raises(fr.ResourceLimitError, match=r"^5 copies of a d = 3 state: estimated 1\.99e\+06 bytes "
                       r"exceed the 2\.22e\+05-byte workspace budget$"):
        fr.finite_group_bound_check(rep, rho, 5)


@pytest.mark.parametrize("dim, last", [(3, 8), (4, 6), (128, 1)])
def test_finite_group_bound_budget_admits_the_same_rows_as_the_old_cap(monkeypatch, dim, last):
    # the 2^32-byte budget: a qutrit to N = 8, d = 4 to N = 6, d = 128 at N = 1; the rows are stubbed
    monkeypatch.setattr(frameness.scaling, "_orbit_mean_asymmetries", lambda states, shares, rho, n: [0.0] * n)
    rep, rho = fr.cyclic_phase_rep(np.arange(dim) % 2, 2), fr.DensityOperator(np.eye(dim) / dim)
    assert len(fr.finite_group_bound_check(rep, rho, last).rows) == last
    with pytest.raises(fr.ResourceLimitError, match=f"^{last + 1} copies of a d = {dim} state"):
        fr.finite_group_bound_check(rep, rho, last + 1)


@pytest.mark.parametrize("dim, copies", [(3, 10**9), (300, 64)])
def test_finite_group_bound_refuses_an_astronomical_peak_without_forming_it(dim, copies):
    # d^N is neither formed as a huge integer (3^(10^9)) nor squared past float range (300^64)
    rep, rho = fr.cyclic_phase_rep(np.arange(dim) % 2, 2), fr.DensityOperator(np.eye(dim) / dim)
    start = time.perf_counter()
    with pytest.raises(fr.ResourceLimitError, match=f"^{copies} copies of a d = {dim} state: estimated inf bytes"):
        fr.finite_group_bound_check(rep, rho, copies)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rep", [fr.z2_phase_flip_rep(), fr.quaternion_rep(),
                                 fr.cyclic_phase_rep([0, 1, 2], 3)], ids=["z2", "q8", "z3-qutrit"])
def test_finite_group_bound_rows_match_the_kronecker_twirl(rep):
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = fr.random_density_operator(rep.dim, rng)
        report = fr.finite_group_bound_check(rep, rho, 4)
        assert [r.copies for r in report.rows] == [1, 2, 3, 4]
        assert_allclose([r.asymmetry for r in report.rows],
                        kronecker_bound_asymmetries(rep, rho, 4), rtol=0, atol=1e-12)


def test_finite_group_bound_memory_does_not_grow_with_the_group():
    rho = fr.random_density_operator(2, np.random.default_rng(5))
    fr.finite_group_bound_check(fr.quaternion_rep(), rho, 2)  # warm any lazy imports
    tracemalloc.start()
    try:
        report = fr.finite_group_bound_check(fr.quaternion_rep(), rho, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.rows) == 8
    # one complex 256 x 256 array is 1 MiB; |G| = 8 Kronecker unitaries of that size are 8 MiB
    assert peak < 6 * 2**20


def test_finite_group_bound_rejects_a_non_unitary_rep():
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    similar_z = s @ np.diag([1.0, -1.0]) @ np.linalg.inv(s)  # squares to I, not unitary
    rep = fr.FiniteGroupRep([[0, 1], [1, 0]], [np.eye(2), similar_z])
    rho = fr.random_density_operator(2, np.random.default_rng(2))
    with pytest.raises(fr.FramenessError):
        fr.finite_group_bound_check(rep, rho, 2)


@pytest.mark.parametrize("n_max", [0, -1])
def test_finite_group_bound_needs_a_copy(n_max):
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
    with pytest.raises(ValueError, match="at least one copy"):
        fr.finite_group_bound_check(fr.z2_phase_flip_rep(), plus, n_max)


_QUBIT_REPS = {"z2": fr.z2_phase_flip_rep(), "q8": fr.quaternion_rep(),
               "z3": fr.cyclic_phase_rep([0, 1], 3)}


def _qubit_inputs():
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
    u = fr.haar_unitary(2, np.random.default_rng(4))
    rotated = fr.DensityOperator(u @ np.diag([1.0, 0.0]) @ u.conj().T)
    mixed = fr.random_density_operator(2, np.random.default_rng(9))
    return {"plus": plus, "diag": fr.DensityOperator(np.diag([0.3, 0.7])),
            "maximally-mixed": fr.DensityOperator(np.eye(2) / 2), "rotated-pure": rotated,
            "mixed": mixed}


@pytest.mark.parametrize("name", sorted(_QUBIT_REPS))
def test_qubit_schur_weyl_rows_match_the_kronecker_oracle(name):
    rep = _QUBIT_REPS[name]
    for label, rho in _qubit_inputs().items():
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error", RuntimeWarning)  # det 0, a real Z: no log2(0) or 0 * inf
            rows = fr.finite_group_bound_check(rep, rho, 8).rows
        assert_allclose([r.asymmetry for r in rows], kronecker_bound_asymmetries(rep, rho, 8),
                        rtol=0, atol=1e-12, err_msg=f"{name} on {label}")


def test_qubit_schur_weyl_rows_known_values():
    inputs, n_max = _qubit_inputs(), 20  # past N = 14, where the 2^N mean meets the default cap
    z2 = fr.finite_group_bound_check(_QUBIT_REPS["z2"], inputs["plus"], n_max)
    assert_allclose([r.asymmetry for r in z2.rows], 1.0, rtol=0, atol=1e-12)  # saturates log2|Z2|
    for name, rep in _QUBIT_REPS.items():
        for label in ("maximally-mixed",) + (("diag",) if name != "q8" else ()):
            rows = fr.finite_group_bound_check(rep, inputs[label], n_max).rows
            assert_allclose([r.asymmetry for r in rows], 0.0, rtol=0, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("name", sorted(_QUBIT_REPS))
def test_qubit_rows_at_a_hundred_copies(name):
    rep = _QUBIT_REPS[name]
    for label, rho in _qubit_inputs().items():
        report = fr.finite_group_bound_check(rep, rho, 100)
        a = np.array([r.asymmetry for r in report.rows])
        assert np.diff(a).min() >= -1e-12, label  # tracing out a copy is covariant
        assert a.min() >= -1e-12 and a.max() <= report.conjugation_bits + 1e-12, label
        assert report.ok
        weights = schur_weyl_weights(rho.eigenvalues(), 100)
        assert weights.size == 51 and abs(math.fsum(weights) - 1.0) <= 1e-12, label


def test_schur_weyl_weights_at_rank_one_and_far_past_float_range():
    assert_allclose(schur_weyl_weights([0.0, 1.0], 7), [1, 0, 0, 0], rtol=0, atol=0)
    weights = schur_weyl_weights([0.3, 0.7], 4000)  # m_j up to ~2^3990, det^k down to ~2^-4500
    assert np.isfinite(weights).all() and abs(math.fsum(weights) - 1.0) <= 1e-12


def test_qubit_rows_match_a_50_digit_oracle():
    rho = fr.DensityOperator(np.array([[0.7, 0.2], [0.2, 0.3]]))
    rep = fr.quaternion_rep()
    rows = fr.finite_group_bound_check(rep, rho, 40).rows
    assert_allclose([rows[29].asymmetry, rows[39].asymmetry], mp_bound_asymmetries(rep, rho, [30, 40]),
                    rtol=0, atol=1e-10)


def test_symmetric_powers_restrict_the_tensor_power():
    us = np.stack([fr.haar_unitary(2, np.random.default_rng(s)) for s in range(3)] + [np.diag([1.0, -1.0])])
    n = 3
    dicke = np.zeros((2**n, n + 1))
    for index in range(2**n):
        ones = bin(index).count("1")
        dicke[index, ones] = 1 / math.sqrt(math.comb(n, ones))
    for u, sym in zip(us, symmetric_powers(us, n)):
        assert_allclose(sym, dicke.T @ np.kron(np.kron(u, u), u) @ dicke, rtol=0, atol=1e-12)


def test_symmetric_powers_stay_unitary_and_multiplicative_at_n_200():
    rng = np.random.default_rng(6)
    a, b = (np.stack([fr.haar_unitary(2, rng) for _ in range(4)]) for _ in range(2))
    sa, sb, sab = (symmetric_powers(x, 200) for x in (a, b, a @ b))
    eye = np.eye(201)
    assert np.abs(sa @ sa.conj().transpose(0, 2, 1) - eye).max() <= 1e-12
    assert np.abs(sa @ sb - sab).max() <= 1e-12


@pytest.mark.parametrize("rep, bits", [(fr.z2_phase_flip_rep(), 1.0), (fr.quaternion_rep(), 2.0),
                                       (fr.cyclic_phase_rep([0, 1], 3), math.log2(3)),
                                       (fr.cyclic_phase_rep([0, 1, 2], 3), math.log2(3)),
                                       (fr.cyclic_phase_rep([1, 1], 4), 0.0),
                                       # no representation: two maps, from classes of 2 and 1 elements
                                       (fr.FiniteGroupRep(np.zeros((3, 3), dtype=int),
                                                          [np.eye(2), 1j * np.eye(2), np.eye(2)[::-1]]), 1.0)],
                         ids=["z2", "q8", "z3", "z3-qutrit", "z4-global-phase", "unequal-classes"])
def test_conjugation_bits_count_maps_not_elements(rep, bits):
    rho = fr.random_density_operator(rep.dim, np.random.default_rng(1))
    report = fr.finite_group_bound_check(rep, rho, 2)
    assert report.conjugation_bits == pytest.approx(bits, abs=1e-12)
    assert all(r.asymmetry <= bits + 1e-12 for r in report.rows)
    assert all(r.bound == pytest.approx(math.log2(rep.order)) for r in report.rows)


@pytest.mark.parametrize("rep, cosets", [(fr.quaternion_rep(), 4), (fr.z2_phase_flip_rep(), 2),
                                         (fr.cyclic_phase_rep([0, 2], 4), 2),
                                         (fr.cyclic_phase_rep([1, 1], 4), 1)],
                         ids=["q8", "z2", "z4-kernel-z2", "z4-global-phase"])
def test_qubit_rows_take_one_orbit_state_per_coset_of_the_kernel(monkeypatch, rep, cosets):
    rho, n_max = fr.random_density_operator(2, np.random.default_rng(7)), 30
    gaps, sizes = fr.scaling._qubit_block_gaps, []
    monkeypatch.setattr(fr.scaling, "_qubit_block_gaps",
                        lambda states, shares, lam, n: sizes.append(len(states)) or gaps(states, shares, lam, n))
    report = fr.finite_group_bound_check(rep, rho, n_max)
    assert sizes == [cosets]
    assert_allclose([r.asymmetry for r in report.rows], _all_elements_rows(rep, rho, n_max), rtol=0, atol=1e-12)


def test_qudit_rows_take_one_orbit_state_per_coset_of_the_kernel(monkeypatch):
    # Q8 (x) I_3 on d = 6: the kernel {I, -I} leaves 4 classes, as on a qubit
    rep = fr.finite_group_from_unitaries([np.kron(u, np.eye(3)) for u in fr.quaternion_rep().unitaries])
    rho, n_max = fr.random_density_operator(6, np.random.default_rng(3)), 3
    means, sizes = fr.scaling._orbit_mean_asymmetries, []
    monkeypatch.setattr(fr.scaling, "_orbit_mean_asymmetries",
                        lambda states, shares, r, n: sizes.append(len(states)) or means(states, shares, r, n))
    report = fr.finite_group_bound_check(rep, rho, n_max)
    assert sizes == [4] and report.conjugation_bits == 2.0
    assert_allclose([r.asymmetry for r in report.rows], kronecker_bound_asymmetries(rep, rho, n_max),
                    rtol=0, atol=1e-12)


def _all_elements_rows(rep, rho, n_max):
    """The qubit rows from the mean over every element's orbit state."""
    lam, states = rho.eigenvalues(), fr.orbit_ensemble(rep, rho).matrices
    every = fr.scaling._qubit_block_gaps(states, np.full(len(states), 1 / len(states)), lam, n_max)
    return [float(schur_weyl_weights(lam, n) @ every[n::-2]) for n in range(1, n_max + 1)]


def test_qubit_rows_do_not_read_the_multiplication_table():
    # the conjugation classes come from the unitaries: an unvalidated rep with a wrong
    # table (all zeros) gives the all-elements rows, and so do unitaries that are no
    # representation, with classes of unequal size ({I, iI}, {X})
    rho, n_max = fr.random_density_operator(2, np.random.default_rng(11)), 20
    q8 = fr.quaternion_rep()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for rep in (fr.FiniteGroupRep(np.zeros((8, 8), dtype=int), q8.unitaries),
                fr.FiniteGroupRep(np.zeros((3, 3), dtype=int), [np.eye(2), 1j * np.eye(2), x])):
        report = fr.finite_group_bound_check(rep, rho, n_max)
        assert_allclose([r.asymmetry for r in report.rows], _all_elements_rows(rep, rho, n_max),
                        rtol=0, atol=1e-12)


def test_lie_group_log_bound_values():
    b = fr.lie_group_log_bound(4, 2)
    assert b.exact_bits == pytest.approx(2.0 * math.log2(5))
    assert b.asymptotic_bits == pytest.approx(2.0 * math.log2(4))
    assert fr.lie_group_log_bound(2, 2).exact_bits == pytest.approx(2.0 * math.log2(3))
    with pytest.raises(ValueError):
        fr.lie_group_log_bound(1, 2)


def test_su2_bound_check_on_maximal_state():
    rep = fr.build_collective_spin_rep(4)
    state = fr.maximal_asymmetry_state("su2", rep=rep).projector()
    report = fr.su2_bound_check(rep, [state])
    assert report.measured[0] == pytest.approx(math.log2(15), abs=1e-8)
    assert report.measured[0] <= report.bound.exact_bits
    assert report.ok


def test_variance_witness_report():
    report = fr.variance_discontinuity_witness([8, 16, 64, 256])
    for row in report.rows:
        n = row.n
        assert row.variance_psi == pytest.approx(n**2, abs=1e-8)
        assert row.variance_phi == pytest.approx(n**2 - 4 * n, abs=1e-8)
        assert row.variance_gap == pytest.approx(4 * n, abs=1e-8)
        assert row.gap_over_log == pytest.approx(4 * n / math.log2(n), abs=1e-6)
    assert report.trace_distances_decreasing
    assert report.ratios_increasing
    assert report.rows[1].trace_dist == pytest.approx(0.5176380902050415, abs=1e-12)
    with pytest.raises(ValueError):
        fr.variance_witness_pair(4)


def test_relinearized_monotone():
    report = fr.relinearized_monotone([0.5, 0.5], [50, 100, 200])
    assert report.relative_change(100, 200) < 0.02
    assert report.plateau == pytest.approx(report.plateau_target, rel=0.01)
    # doubling N doubles L(A) asymptotically
    vals = {r.copies: r.relinearized for r in report.rows}
    assert vals[200] / vals[100] == pytest.approx(2.0, rel=0.03)

    flat = fr.relinearized_monotone([0.0, 1.0], [1, 10, 100])
    per_copy = [r.per_copy for r in flat.rows]
    assert per_copy == pytest.approx([1.0, 0.1, 0.01])  # L(0)/N = 1/N
