import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr

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
    assert_allclose(fr.tensor_power(psi, 1).amplitudes, psi.amplitudes)
    cubed = fr.tensor_power(psi, 3)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert_allclose(cubed.amplitudes, expected)
    plus = fr.PureState(np.array([1, 1]) / math.sqrt(2))
    assert_allclose(fr.tensor_power(plus, 2).amplitudes, np.full(4, 0.5), atol=1e-15)
    with pytest.raises(fr.ResourceLimitError):
        fr.tensor_power(plus, 15)  # 2**15 > default cap 2**14


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_partial_trace_of_tensor_power(seed):
    rng = np.random.default_rng(seed)
    psi = fr.random_pure_state(3, rng)
    squared = fr.tensor_power(psi, 2).projector()
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


def test_json_loaders_validate():
    with pytest.raises(fr.InvalidStateError):
        fr.density_from_json({"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]]})  # trace 2
    with pytest.raises(fr.InvalidStateError):
        fr.density_from_json({"dim": 3, "matrix": [[[1.0, 0.0]]]})  # declared dim mismatch
    with pytest.raises(fr.InvalidStateError):
        fr.pure_state_from_json({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})  # norm
