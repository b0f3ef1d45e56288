import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr
from frameness.sampling import _density_operators, _density_stack, _haar_stack
from frameness.states import INPUT_TOL, _certify_psd, _validated_density
from ncopy_oracle import tensor_power
from stack_oracle import per_sample_density_draws

# Frozen oracle values (computed by direct formula / inner-product evaluation).
H2_011 = 0.499915958164528
PROP3_TRACE_DIST_16 = 0.5176380902050415  # 2 sqrt(1 - |<psi|phi>|^2) at n = 16


def bell_plus():
    v = np.zeros(4, dtype=complex)
    v[[0, 3]] = 1 / math.sqrt(2)
    return fr.PureState(v)


def test_density_operator_rejects_bad_matrices():
    with pytest.raises(fr.InvalidStateError):
        fr.DensityOperator([[0.5, 0.3], [0.1, 0.5]])  # not Hermitian
    with pytest.raises(fr.InvalidStateError):
        fr.DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(fr.InvalidStateError):
        fr.DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(fr.ShapeMismatchError):
        fr.DensityOperator(np.ones((2, 3)) / 6)


def test_pure_state_norm_is_enforced():
    with pytest.raises(fr.InvalidStateError):
        fr.PureState([1.0, 1.0])
    psi = fr.PureState([1.0, 0.0])
    assert psi.projector().dim == 2


def test_pure_state_norm_reads_a_long_uniform_vector_exactly():
    # BLAS's norm reads this exact state 1.2e-12 short of 1, past PURE_NORM_TOL; the pairwise sum does not
    assert fr.maximal_asymmetry_state("u1", n_max=10**6).dim == 10**6 + 1
    with pytest.raises(fr.InvalidStateError, match="norm 1.0000000000100"):
        fr.PureState(np.full(4, 0.5) * (1 + 1e-11))


@pytest.mark.parametrize("dim, count", [(3, 10), (4, 40)])
def test_stacked_draws_are_the_repeated_draws(dim, count):
    stacked_rng, loop_rng = np.random.default_rng(14), np.random.default_rng(14)
    states = _density_operators(dim, stacked_rng, count)
    for state in states:
        one = fr.random_density_operator(dim, loop_rng)
        np.testing.assert_array_equal(state.matrix, one.matrix)
        np.testing.assert_array_equal(state.eigenvalues(), one.eigenvalues())
        assert not state.matrix.flags.writeable and not state.eigenvalues().flags.writeable
    assert stacked_rng.random() == loop_rng.random()


@pytest.mark.parametrize("dim, count", [(1, 3), (2, 1), (3, 7), (8, 20), (32, 20), (32, 1)])
def test_density_stack_is_the_per_sample_draws(dim, count):
    # the Ginibre pairs go straight into one buffer: the same rng calls in the same order
    rngs = [np.random.default_rng(dim * 100 + count) for _ in range(3)]
    stack = _density_stack(dim, rngs[0], count)
    np.testing.assert_array_equal(stack, per_sample_density_draws(dim, rngs[1], count))
    checked, _ = _validated_density(stack)  # as DensityOperator symmetrizes each draw
    for k in range(count):
        np.testing.assert_array_equal(checked[k], fr.random_density_operator(dim, rngs[2]).matrix)
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def _stack_with_lowest(dim, count, lowest, seed):
    """A Hermitian unit-trace (count, d, d) stack, each matrix with smallest eigenvalue ``lowest``."""
    rng = np.random.default_rng(seed)
    u = _haar_stack(dim, rng, count)
    lams = np.empty((count, dim))
    lams[:, 0] = lowest
    lams[:, 1:] = (1.0 - lowest) * rng.dirichlet(np.ones(dim - 1), size=count)
    m = (u * lams[:, None, :]) @ u.conj().swapaxes(1, 2)
    return 0.5 * (m + m.conj().swapaxes(1, 2))


@pytest.mark.parametrize("dim", [2, 8, 32])
@pytest.mark.parametrize("lowest, psd", [(0.0, True), (-INPUT_TOL * (1 - 1e-3), True),
                                         (-INPUT_TOL * (1 + 1e-3), False)])
def test_cholesky_certificate_is_the_eigvalsh_rule(dim, lowest, psd):
    # the same verdict as lambda_min >= -INPUT_TOL, matrix by matrix and for the whole stack,
    # 1e-3 INPUT_TOL on either side of the boundary
    for seed in range(5):
        stack = _stack_with_lowest(dim, 6, lowest, seed)
        rule = np.linalg.eigvalsh(stack)[:, 0] >= -INPUT_TOL
        assert rule.tolist() == [psd] * 6
        assert [_certify_psd(m) for m in stack] == rule.tolist()
        assert _certify_psd(stack) == psd


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_a_bad_last_matrix_fails_the_certificate_with_the_spectral_message(dim):
    stack = _stack_with_lowest(dim, 5, 0.0, dim)
    stack[-1] = _stack_with_lowest(dim, 1, -3e-4, dim + 1)[0]
    assert not _certify_psd(stack) and _certify_psd(stack[:-1])
    lowest = np.linalg.eigvalsh(stack[-1])[0]
    for spectra in (True, False):
        with pytest.raises(fr.InvalidStateError) as info:
            _validated_density(stack, spectra=spectra)
        assert str(info.value) == f"not PSD: smallest eigenvalue {lowest:.3e}"
    with pytest.raises(fr.InvalidStateError, match=f"^not PSD: smallest eigenvalue {lowest:.3e}$"):
        fr.DensityOperator(stack[-1])


def test_a_certified_stack_is_the_checked_stack_without_spectra():
    stack = _density_stack(8, np.random.default_rng(2), 6)
    certified, none = _validated_density(stack, spectra=False)
    checked, spectra = _validated_density(stack)
    assert none is None and spectra.shape == (6, 8)
    np.testing.assert_array_equal(certified, checked)


def test_eigenvalues_are_the_read_only_validation_spectrum():
    rho = fr.random_density_operator(6, np.random.default_rng(3))
    spectrum = rho.eigenvalues()
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 1.0
    np.testing.assert_array_equal(spectrum, np.linalg.eigvalsh(rho.matrix))
    assert rho.eigenvalues() is spectrum


def test_von_neumann_entropy_examples():
    assert fr.von_neumann_entropy(fr.DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0)
    psi = fr.random_pure_state(5, np.random.default_rng(0))
    assert fr.von_neumann_entropy(psi.projector()) == pytest.approx(0.0, abs=1e-10)
    # dephased Bell mixture: diag(1/2, 0, 0, 1/2) on two qubits
    rho = fr.DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert fr.von_neumann_entropy(rho) == pytest.approx(1.0)


@given(st.integers(0, 10**6), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_entropy_bounds_and_unitary_invariance(seed, dim):
    rng = np.random.default_rng(seed)
    rho = fr.random_density_operator(dim, rng)
    s = fr.von_neumann_entropy(rho)
    assert -1e-10 <= s <= math.log2(dim) + 1e-9
    u = fr.haar_unitary(dim, rng)
    rotated = fr.DensityOperator(u @ rho.matrix @ u.conj().T)
    assert fr.von_neumann_entropy(rotated) == pytest.approx(s, abs=1e-9)


def test_entropy_bounds_attained():
    assert fr.von_neumann_entropy(fr.DensityOperator(np.eye(8) / 8)) == pytest.approx(3.0)
    assert fr.von_neumann_entropy(fr.DensityOperator(np.diag([1.0, 0, 0, 0]))) == 0.0


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_entropy_additivity(seed):
    rng = np.random.default_rng(seed)
    a = fr.random_density_operator(3, rng)
    b = fr.random_density_operator(4, rng)
    assert fr.von_neumann_entropy(a.tensor(b)) == pytest.approx(
        fr.von_neumann_entropy(a) + fr.von_neumann_entropy(b), abs=1e-9
    )


def test_relative_entropy_examples():
    rng = np.random.default_rng(1)
    rho = fr.random_density_operator(4, rng)
    assert fr.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
    half = fr.DensityOperator(np.eye(2) / 2)
    assert fr.relative_entropy(plus, half) == pytest.approx(1.0, abs=1e-10)
    zero = fr.DensityOperator(np.diag([1.0, 0.0]))
    one = fr.DensityOperator(np.diag([0.0, 1.0]))
    assert fr.relative_entropy(zero, one) == math.inf
    with pytest.raises(fr.ShapeMismatchError):
        fr.relative_entropy(plus, fr.DensityOperator(np.eye(3) / 3))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_klein_inequality(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    a = fr.random_density_operator(dim, rng)
    b = fr.random_density_operator(dim, rng)
    val = fr.relative_entropy(a, b)
    assert val >= -1e-9
    # equality only when the states coincide
    if val <= 1e-9:
        assert fr.trace_distance(a, b) <= 1e-8


def test_shannon_entropy_examples():
    assert fr.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert fr.shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)
    assert fr.shannon_entropy([0.25] * 4) == pytest.approx(2.0)
    with pytest.raises(fr.InvalidDistributionError):
        fr.shannon_entropy([0.7, -0.2, 0.5])
    with pytest.raises(fr.InvalidDistributionError):
        fr.shannon_entropy([0.7, 0.7])


def test_entropy_matches_the_full_temporaries_formula_bit_for_bit():
    from frameness.states import EIG_CUTOFF, _entropy_of_spectrum

    def oracle(lams):
        safe = np.where(lams > EIG_CUTOFF, lams, 1.0)
        return -(safe * np.log2(safe)).sum(axis=-1)

    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 64, 4097):
        lams = rng.dirichlet(np.full(size, 0.3))
        lams[rng.random(size) < 0.3] = 0.0  # exact zeros and sub-cutoff weights
        lams[rng.random(size) < 0.1] = 1e-14
        assert _entropy_of_spectrum(lams) == float(oracle(lams))
    stack = rng.dirichlet(np.ones(5), size=(3, 4))
    stack[0, 0] = [1.0, 0.0, 0.0, 0.0, 0.0]
    assert np.array_equal(_entropy_of_spectrum(stack), oracle(stack))
    # a pure spectrum has entropy +0.0, where -sum gives -0.0
    assert math.copysign(1.0, _entropy_of_spectrum(np.array([1.0, 0.0]))) == 1.0
    assert math.copysign(1.0, fr.shannon_entropy([0.0, 1.0, 0.0])) == 1.0


def test_binary_entropy_examples():
    assert fr.binary_entropy(0.5) == pytest.approx(1.0)
    assert fr.binary_entropy(0.0) == 0.0
    assert fr.binary_entropy(1.0) == 0.0
    assert fr.binary_entropy(0.11) == pytest.approx(H2_011, abs=1e-12)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            fr.binary_entropy(bad)


def test_partial_trace_examples():
    rng = np.random.default_rng(2)
    a = fr.random_density_operator(2, rng)
    b = fr.random_density_operator(3, rng)
    joint = a.tensor(b)
    assert_allclose(fr.partial_trace(joint, (2, 3), 0).matrix, a.matrix, atol=1e-12)
    assert_allclose(fr.partial_trace(joint, (2, 3), 1).matrix, b.matrix, atol=1e-12)

    bell = bell_plus().projector()
    assert_allclose(fr.partial_trace(bell, (2, 2), 0).matrix, np.eye(2) / 2, atol=1e-12)

    # mixing the two phase-related Bell states still reduces to I/2
    minus = np.zeros(4, dtype=complex)
    minus[0], minus[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    mix = fr.DensityOperator(0.7 * bell.matrix + 0.3 * np.outer(minus, minus.conj()))
    assert_allclose(fr.partial_trace(mix, (2, 2), 0).matrix, np.eye(2) / 2, atol=1e-12)

    with pytest.raises(fr.ShapeMismatchError):
        fr.partial_trace(bell, (3, 2), 0)
    with pytest.raises(ValueError):
        fr.partial_trace(bell, (2, 2), 2)


def test_trace_distance_examples():
    rng = np.random.default_rng(3)
    rho = fr.random_density_operator(3, rng)
    assert fr.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    zero = fr.DensityOperator(np.diag([1.0, 0.0]))
    one = fr.DensityOperator(np.diag([0.0, 1.0]))
    assert fr.trace_distance(zero, one) == pytest.approx(2.0)

    n = 16
    psi = fr.PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    phi = fr.PureState([math.sqrt(0.5 - 1 / math.sqrt(n)), math.sqrt(0.5 + 1 / math.sqrt(n))])
    assert fr.trace_distance(psi.projector(), phi.projector()) == pytest.approx(
        PROP3_TRACE_DIST_16, abs=1e-12
    )
    with pytest.raises(fr.ShapeMismatchError):
        fr.trace_distance(zero, fr.DensityOperator(np.eye(3) / 3))


def test_tensor_power():
    psi = fr.PureState([1.0, 0.0])
    assert_allclose(tensor_power(psi, 1).amplitudes, psi.amplitudes)
    cubed = tensor_power(psi, 3)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert_allclose(cubed.amplitudes, expected)
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2))
    assert_allclose(tensor_power(plus, 2).amplitudes, np.full(4, 0.5), atol=1e-15)
    with pytest.raises(fr.ResourceLimitError):
        tensor_power(plus, 15)  # a 2^15-square complex projector is 16 GiB, over the 4 GiB budget


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_partial_trace_of_tensor_power(seed):
    rng = np.random.default_rng(seed)
    psi = fr.random_pure_state(3, rng)
    squared = tensor_power(psi, 2).projector()
    single = psi.projector()
    assert_allclose(fr.partial_trace(squared, (3, 3), 0).matrix, single.matrix, atol=1e-10)
    assert_allclose(fr.partial_trace(squared, (3, 3), 1).matrix, single.matrix, atol=1e-10)


def test_json_round_trips():
    rng = np.random.default_rng(4)
    rho = fr.random_density_operator(3, rng)
    back = fr.density_from_json(json.loads(json.dumps(fr.density_to_json(rho))))
    assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    psi = fr.random_pure_state(4, rng)
    back_psi = fr.pure_state_from_json(json.loads(json.dumps(fr.pure_state_to_json(psi))))
    assert_allclose(back_psi.amplitudes, psi.amplitudes, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    # NaN fails no ">" tolerance test, so each constructor checks finiteness itself
    off_diagonal = np.diag([0.5, 0.5]).astype(complex)
    off_diagonal[0, 1] = off_diagonal[1, 0] = complex(0.0, bad)
    for m in (np.diag([bad, 0.5]), off_diagonal):
        with pytest.raises(fr.InvalidStateError, match="non-finite"):
            fr.DensityOperator(m)
    with pytest.raises(fr.InvalidStateError, match="non-finite"):
        fr.PureState([bad, 0.0])
    with pytest.raises(fr.InvalidStateError, match="non-finite"):
        fr.PureState([1.0, complex(0.0, bad)])
    with pytest.raises(fr.InvalidDistributionError, match="non-finite"):
        fr.ProbabilityDistribution([bad, 1.0])


def test_json_loaders_validate():
    with pytest.raises(fr.InvalidStateError):
        fr.density_from_json({"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]]})  # trace 2
    with pytest.raises(fr.InvalidStateError):
        fr.density_from_json({"dim": 3, "matrix": [[[1.0, 0.0]]]})  # declared dim mismatch
    with pytest.raises(fr.InvalidStateError):
        fr.pure_state_from_json({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})  # norm
