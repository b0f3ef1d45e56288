import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr
from frameness.states import EIG_CUTOFF
from ncopy_oracle import kronecker_bound_asymmetries, tensor_power


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
       st.integers(0, 10**6), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_fft_powering_matches_the_convolution_loop(levels, shape, seed, n):
    per_copy = fr.ProbabilityDistribution(_charge_law(levels, shape, seed))
    oracle = convolve_copies_oracle(per_copy.weights, n)
    profile = fr.convolve_copies(per_copy, n)
    assert profile.convolved.weights.shape == oracle.shape
    # An N-fold convolution has condition number ~N: rounding the law's weights
    # alone moves the result by ~N eps, and both the loop and the powering
    # round that much (measured worst 1.2 N eps over 400 seeded laws).
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
    n, p = 10**6, 0.3
    profile = fr.convolve_copies([1.0 - p, p], n)  # constructing it passed the INPUT_TOL sum check
    assert profile.convolved.weights.size == n + 1
    # Measured 2.1e-11 apart.  The float lgamma sum would read 6.1e-9 bits low at this N,
    # and the weights at or below EIG_CUTOFF carry 5.8e-9 bits, so the reference is exact
    # arithmetic over the law and the cutoff the convolution and the entropy use.
    assert fr.shannon_entropy(profile.convolved) == pytest.approx(
        mpmath_binomial_entropy(n, [1.0 - p, p]), abs=1e-10)


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


def test_finite_group_bound_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("FRAMENESS_MAX_DIM", "8")
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
    with pytest.raises(fr.ResourceLimitError):
        fr.finite_group_bound_check(fr.z2_phase_flip_rep(), plus, 4)


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
