import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr

Z = np.diag([1.0, -1.0]).astype(complex)


def z2_twirl_channel():
    return fr.twirl_channel([np.eye(2, dtype=complex), Z])


def plus_state():
    return fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()


def partial_dephasing():
    # rho -> 3/4 rho + 1/4 Z rho Z
    return fr.KrausChannel([math.sqrt(0.75) * np.eye(2), 0.5 * Z])


def amplitude_damping(gamma=0.4):
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return fr.KrausChannel([k0, k1])


def test_kraus_completeness_is_enforced():
    with pytest.raises(fr.FramenessError):
        fr.KrausChannel([np.eye(2) * 0.5])


def test_apply_examples():
    rho = fr.random_density_operator(3, np.random.default_rng(0))
    assert_allclose(fr.identity_channel(3).apply(rho).matrix, rho.matrix, atol=1e-15)

    deph = fr.dephasing_channel(np.eye(2))
    assert_allclose(deph.apply(plus_state()).matrix, np.eye(2) / 2, atol=1e-12)

    # direct 2x2 arithmetic oracle for the Z2 twirl of |+><+|
    plus = plus_state().matrix
    oracle = 0.5 * plus + 0.5 * Z @ plus @ Z
    assert_allclose(z2_twirl_channel().apply(plus_state()).matrix, oracle, atol=1e-12)
    assert_allclose(oracle, np.eye(2) / 2, atol=1e-12)


def test_adjoint_examples():
    ch = z2_twirl_channel()
    assert_allclose(ch.adjoint_apply(np.eye(2)), np.eye(2), atol=1e-12)

    deph = fr.dephasing_channel(np.eye(2))
    a = fr.random_hermitian(2, np.random.default_rng(1))
    assert_allclose(deph.adjoint_apply(a), deph.apply_matrix(a), atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_adjoint_duality(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    ch = fr.random_unital_idempotent_channel(dim, rng)
    a = fr.random_hermitian(dim, rng)
    b = fr.random_hermitian(dim, rng)
    lhs = np.trace(a @ ch.apply_matrix(b))
    rhs = np.trace(ch.adjoint_apply(a) @ b)
    assert abs(lhs - rhs) < 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_fixed_point_powers(seed):
    # tau in Fix(E) for a unital channel stays fixed under the adjoint, power by power
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    ch = fr.random_unital_idempotent_channel(dim, rng)
    tau = ch.apply_matrix(fr.random_density_operator(dim, rng).matrix)
    power = np.eye(dim, dtype=complex)
    for _ in range(3):
        power = power @ tau
        assert np.abs(ch.adjoint_apply(power) - power).max() < 1e-8


def test_superoperator_matches_kraus_action():
    rng = np.random.default_rng(2)
    ch = fr.random_unital_idempotent_channel(4, rng)
    rho = fr.random_density_operator(4, rng)
    m = ch.kraus_channel().superoperator()
    direct = ch.apply_matrix(rho.matrix).ravel()
    assert np.abs(m @ rho.matrix.ravel() - direct).max() < 1e-9


def test_unitality_and_idempotence_verdicts():
    assert z2_twirl_channel().is_unital()
    assert z2_twirl_channel().is_idempotent()
    assert not amplitude_damping().is_unital()

    half = partial_dephasing()
    assert half.is_unital()
    assert not half.is_idempotent()
    # independent 4x4 superoperator oracle: M = 3/4 I + 1/4 Z (x) Z
    m = 0.75 * np.eye(4) + 0.25 * np.kron(Z, Z.conj())
    assert np.abs(m @ m - m).max() > 1e-3
    assert_allclose(half.superoperator(), m, atol=1e-12)


def test_idempotence_is_decided_once_per_channel(monkeypatch):
    builds, deviations = [], []
    superoperator = fr.KrausChannel.superoperator
    deviation = fr.KrausChannel._idempotence_deviation
    monkeypatch.setattr(fr.KrausChannel, "superoperator",
                        lambda self: builds.append(self) or superoperator(self))
    monkeypatch.setattr(fr.KrausChannel, "_idempotence_deviation",
                        lambda self: deviations.append(self) or deviation(self))
    ch = z2_twirl_channel()
    fr.relative_entropy_to_image(ch, plus_state())
    assert fr.image_fix_equivalence_check(ch, samples=2).idempotent
    assert builds == [ch]
    half = partial_dephasing()
    assert not half.is_idempotent() and not half.is_idempotent()
    assert builds == [ch, half]
    # four Kraus operators on d = 8 (n^2 + n < d^2): decided on the Choi side, once
    pinch = random_pinching(8, 4, np.random.default_rng(9))
    fr.relative_entropy_to_image(pinch, fr.random_density_operator(8, np.random.default_rng(10)))
    assert fr.image_fix_equivalence_check(pinch, samples=2).idempotent
    assert deviations == [ch, half, pinch]
    assert builds == [ch, half]


def random_pinching(dim, parts, rng):
    u = fr.haar_unitary(dim, rng)
    edges = np.linspace(0, dim, parts + 1).astype(int)
    return fr.pinching_channel([u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(edges, edges[1:])])


def phase_twirl(dim, order, rng):
    u = fr.haar_unitary(dim, rng)
    charges = rng.integers(0, order, size=dim)
    return fr.twirl_channel([(u * np.exp(2j * np.pi * k * charges / order)) @ u.conj().T
                             for k in range(order)])


def mixed_with_identity(ch, dev):
    """dev id + (1 - dev) E: not idempotent for 0 < dev < 1 unless E is the identity."""
    return fr.KrausChannel([math.sqrt(1.0 - dev) * k for k in ch.kraus]
                           + [math.sqrt(dev) * np.eye(ch.dim)])


def deviation_cases(rng):
    """Channels on both sides of the n (n + 1) < d^2 split, idempotent or not."""
    d = int(rng.integers(8, 25))
    yield random_pinching(d, int(rng.integers(2, 6)), rng)
    yield phase_twirl(d, int(rng.integers(2, 9)), rng)
    small = int(rng.integers(2, 11))
    m = int(rng.integers(1, small))  # sectors (m, 1) and (1, small - m): m^2 + 1 Kraus operators
    yield fr.conditional_expectation_channel([(m, 1), (1, small - m)],
                                             fr.haar_unitary(small, rng)).kraus_channel()
    yield fr.dephasing_channel(fr.haar_unitary(small, rng)).kraus_channel()
    yield fr.random_unital_idempotent_channel(2, rng).kraus_channel()
    yield phase_twirl(2, int(rng.integers(2, 5)), rng)
    yield mixed_with_identity(random_pinching(int(rng.integers(3, 9)), 2, rng), rng.uniform(0, 1))
    yield mixed_with_identity(random_pinching(2, 2, rng), rng.uniform(0, 1))
    yield amplitude_damping(rng.uniform(0, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_idempotence_deviation_matches_the_superoperator(seed):
    sides = set()
    for ch in deviation_cases(np.random.default_rng(seed)):
        m = ch.superoperator()
        oracle = float(np.abs(m @ m - m).max())
        assert abs(ch._idempotence_deviation() - oracle) <= 1e-13
        assert ch.is_idempotent() is (oracle <= 1e-8)
        n = len(ch.kraus)
        sides.add(n * (n + 1) < ch.dim**2)
    assert sides == {True, False}


def test_commutant_fixed_point_check():
    deph = fr.dephasing_channel(np.eye(2))
    assert fr.commutant_fixed_point_check(deph, np.eye(2))
    assert fr.commutant_fixed_point_check(deph, np.diag([1.0, 2.0]))
    assert not fr.commutant_fixed_point_check(deph, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(fr.ChannelPreconditionError):
        fr.commutant_fixed_point_check(amplitude_damping(), np.eye(2))


def test_image_fix_equivalence():
    report = fr.image_fix_equivalence_check(z2_twirl_channel(), samples=50, seed=0)
    assert report.idempotent and report.all_image_states_fixed and report.consistent

    report = fr.image_fix_equivalence_check(partial_dephasing(), samples=50, seed=0)
    assert not report.idempotent and not report.all_image_states_fixed
    assert report.consistent

    report = fr.image_fix_equivalence_check(fr.identity_channel(3), samples=10, seed=0)
    assert report.consistent


def test_relative_entropy_to_image_examples():
    ch = z2_twirl_channel()
    fixed = fr.DensityOperator(np.diag([0.3, 0.7]))
    assert fr.relative_entropy_to_image(ch, fixed) == pytest.approx(0.0, abs=1e-10)
    assert fr.relative_entropy_to_image(ch, plus_state()) == pytest.approx(1.0, abs=1e-10)

    # qutrit full dephasing of the uniform superposition
    qutrit = fr.dephasing_channel(np.eye(3))
    uniform = fr.PureState(np.full(3, 1 / math.sqrt(3))).projector()
    assert fr.relative_entropy_to_image(qutrit, uniform) == pytest.approx(math.log2(3), abs=1e-10)

    with pytest.raises(fr.ChannelPreconditionError):
        fr.relative_entropy_to_image(amplitude_damping(), plus_state())
    with pytest.raises(fr.ChannelPreconditionError):
        fr.relative_entropy_to_image(partial_dephasing(), plus_state())


def test_entropy_gap_is_nonnegative_and_zero_iff_fixed():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = fr.random_unital_idempotent_channel(5, rng)
        rho = fr.random_density_operator(5, rng)
        gap = fr.relative_entropy_to_image(ch, rho)
        assert gap >= -1e-9
        fixed_gap = fr.relative_entropy_to_image(ch, ch.apply(rho))
        assert abs(fixed_gap) <= 1e-8


def test_generated_channels_are_unital_idempotent():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 4, 5, 6, 7, 8):
        for _ in range(3):
            ch = fr.random_unital_idempotent_channel(dim, rng)
            assert ch.is_unital()
            assert ch.is_idempotent()
            assert fr.image_fix_equivalence_check(ch, samples=10, seed=1).consistent


def test_channel_json_round_trip():
    import json

    ch = fr.random_unital_idempotent_channel(3, np.random.default_rng(6))
    back = fr.kraus_channel_from_json(json.loads(json.dumps(fr.kraus_channel_to_json(ch))))
    rho = fr.random_density_operator(3, np.random.default_rng(7))
    assert_allclose(back.apply(rho).matrix, ch.apply(rho).matrix, atol=1e-12)
    tampered = fr.kraus_channel_to_json(fr.identity_channel(3))
    tampered["dim"] = 5
    with pytest.raises(fr.ShapeMismatchError):
        fr.kraus_channel_from_json(tampered)
    with pytest.raises(fr.FramenessError):
        fr.kraus_channel_from_json({"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [0.5, 0.0]]]]})  # incomplete


def test_minimum_distance_oracle_against_image_samples():
    rng = np.random.default_rng(5)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        ch = fr.random_unital_idempotent_channel(dim, rng)
        rho = fr.random_density_operator(dim, rng)
        gap = fr.relative_entropy_to_image(ch, rho)
        assert abs(fr.relative_entropy(rho, ch.apply(rho)) - gap) < 1e-8
        for _ in range(40):
            sigma = ch.apply(fr.random_density_operator(dim, rng))
            assert fr.relative_entropy(rho, sigma) >= gap - 1e-8
