import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frameness as fr
from frameness.entanglement import _dephased_entropy, _reduced_angles


def partial_transpose_b(matrix):
    r = matrix.reshape(2, 2, 2, 2)
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def random_two_qubit_state(rng):
    return fr.BipartiteState(2, 2, fr.random_density_operator(4, rng))


def test_bell_diagonal_state():
    bip = fr.bell_diagonal_state(0.75)
    assert bip.state.dim == 4
    assert fr.von_neumann_entropy(bip.state) == pytest.approx(fr.binary_entropy(0.75), abs=1e-10)
    with pytest.raises(ValueError):
        fr.bell_diagonal_state(1.5)


def test_dephasing_channel_structure():
    ch = fr.dephasing_channel(np.eye(2))
    kraus = ch.kraus_channel().kraus
    assert_allclose(kraus[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert_allclose(kraus[1], np.diag([0.0, 1.0]), atol=1e-15)
    with pytest.raises(ValueError):
        fr.dephasing_channel(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_lifted_dephasing_is_unital_and_idempotent():
    rng = np.random.default_rng(0)
    bip = random_two_qubit_state(rng)
    u = fr.haar_unitary(2, rng)
    lifted = fr.lifted_dephasing_channel(bip, u)
    assert lifted.is_unital()
    assert lifted.is_idempotent()
    # applying twice equals applying once, state by state
    once = lifted.apply(bip.state)
    twice = lifted.apply(once)
    assert np.abs(once.matrix - twice.matrix).max() < 1e-9


def test_dephased_output_is_ppt():
    # dephasing one side breaks entanglement; for two qubits PPT certifies it
    rng = np.random.default_rng(1)
    for _ in range(10):
        bip = random_two_qubit_state(rng)
        u = fr.haar_unitary(2, rng)
        out = fr.lifted_dephasing_channel(bip, u).apply(bip.state)
        assert np.linalg.eigvalsh(partial_transpose_b(out.matrix))[0] >= -1e-10


def test_dephasing_upper_bound_examples():
    diag = fr.BipartiteState(2, 2, fr.DensityOperator(np.diag([0.4, 0.1, 0.3, 0.2])))
    assert fr.dephasing_upper_bound(diag, np.eye(2)) == pytest.approx(0.0, abs=1e-9)

    plus = np.zeros(4, dtype=complex)
    plus[[0, 3]] = 1 / math.sqrt(2)
    bell = fr.BipartiteState(2, 2, fr.PureState(plus).projector())
    assert fr.dephasing_upper_bound(bell, np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    for p in (0.6, 0.75, 0.9):
        bip = fr.bell_diagonal_state(p)
        u = fr.two_qubit_parameterized_unitary(math.pi / 2, 0.0)
        assert fr.dephasing_upper_bound(bip, u) == pytest.approx(
            1.0 - fr.binary_entropy(p), abs=1e-10
        )


def test_upper_bound_nonnegative_and_zero_iff_fixed():
    rng = np.random.default_rng(2)
    for _ in range(10):
        bip = random_two_qubit_state(rng)
        u = fr.haar_unitary(2, rng)
        val = fr.dephasing_upper_bound(bip, u)
        assert val >= -1e-9
        ch = fr.lifted_dephasing_channel(bip, u)
        fixed_dev = np.abs(ch.apply(bip.state).matrix - bip.state.matrix).max()
        if val <= 1e-10:
            assert fixed_dev <= 1e-8
        if fixed_dev <= 1e-10:
            assert val <= 1e-8


def test_two_qubit_parameterized_unitary():
    assert_allclose(fr.two_qubit_parameterized_unitary(0.0, 0.0), np.diag([1.0, -1.0]), atol=1e-15)
    assert_allclose(fr.two_qubit_parameterized_unitary(math.pi / 2, 0.0),
                    np.array([[0, 1], [1, 0]]), atol=1e-15)
    u = fr.two_qubit_parameterized_unitary(0.3, 1.1)
    assert_allclose(u @ u, np.eye(2), atol=1e-14)  # Hermitian square root of identity
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = fr.two_qubit_parameterized_unitary(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)


def test_bound_is_invariant_under_theta_shift_by_pi():
    rng = np.random.default_rng(4)
    bip = random_two_qubit_state(rng)
    theta, gamma = 0.7, 2.1
    a = fr.dephasing_upper_bound(bip, fr.two_qubit_parameterized_unitary(theta, gamma))
    b = fr.dephasing_upper_bound(bip, fr.two_qubit_parameterized_unitary(theta + math.pi, gamma))
    assert a == pytest.approx(b, abs=1e-10)


def test_twin_angles_reduce_to_one_pair_with_the_same_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        bip = random_two_qubit_state(rng)
        theta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        twins = [(theta, gamma), (theta + math.pi / 2, gamma),
                 (math.pi - theta, gamma + math.pi), (math.pi / 2 - theta, gamma + math.pi)]
        reduced = [_reduced_angles(t, g) for t, g in twins]
        for t, g in reduced:
            assert 0.0 <= t <= math.pi / 4 and 0.0 <= g < 2 * math.pi
            assert_allclose((t, g), reduced[0], atol=1e-12)
        bounds = [fr.dephasing_upper_bound(bip, fr.two_qubit_parameterized_unitary(t, g))
                  for t, g in twins + reduced]
        assert_allclose(bounds, bounds[0], atol=1e-12)
    report = fr.optimize_two_qubit_bound(random_two_qubit_state(rng), grid=16)
    assert (report.theta, report.gamma) == _reduced_angles(report.theta, report.gamma)


def test_bound_equals_relative_entropy_to_image():
    rng = np.random.default_rng(5)
    for _ in range(5):
        bip = random_two_qubit_state(rng)
        u = fr.haar_unitary(2, rng)
        ch = fr.lifted_dephasing_channel(bip, u)
        assert fr.dephasing_upper_bound(bip, u) == pytest.approx(
            fr.relative_entropy_to_image(ch, bip.state), abs=1e-9
        )


def test_hashing_lower_bound():
    product = fr.BipartiteState(2, 2, fr.PureState([1, 0, 0, 0]).projector())
    assert fr.hashing_lower_bound(product) == 0.0

    for p in (0.6, 0.75, 1.0):
        assert fr.hashing_lower_bound(fr.bell_diagonal_state(p)) == pytest.approx(
            1.0 - fr.binary_entropy(p), abs=1e-10
        )

    mixed = fr.BipartiteState(2, 2, fr.DensityOperator(np.eye(4) / 4))
    assert fr.hashing_lower_bound(mixed) == 0.0  # clamped


def test_optimize_two_qubit_bound_on_the_bell_diagonal_family():
    report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.75))
    target = 1.0 - fr.binary_entropy(0.75)
    assert report.upper == pytest.approx(target, abs=1e-9)
    assert report.lower == pytest.approx(target, abs=1e-10)
    assert report.tight
    # the canonical optimum achieves the same value
    u_star = fr.two_qubit_parameterized_unitary(math.pi / 2, 0.0)
    assert fr.dephasing_upper_bound(fr.bell_diagonal_state(0.75), u_star) == pytest.approx(
        report.upper, abs=1e-9
    )

    separable = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.5))
    assert separable.upper == pytest.approx(0.0, abs=1e-9)

    pure = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(1.0))
    assert pure.upper == pytest.approx(1.0, abs=1e-9)
    assert pure.tight

    with pytest.raises(fr.ShapeMismatchError):
        fr.optimize_two_qubit_bound(
            fr.BipartiteState(2, 3, fr.DensityOperator(np.eye(6) / 6)))


def test_lower_bound_never_exceeds_optimized_upper():
    rng = np.random.default_rng(6)
    for _ in range(6):
        bip = random_two_qubit_state(rng)
        report = fr.optimize_two_qubit_bound(bip, grid=32)
        assert report.lower <= report.upper + 1e-6
        assert report.upper >= -1e-9


def test_dephasing_either_side():
    bip = fr.bell_diagonal_state(0.75)
    b_side = fr.optimize_two_qubit_bound(bip, grid=32, side="B")
    a_side = fr.optimize_two_qubit_bound(bip, grid=32, side="A")
    # the family is symmetric under swapping the qubits
    assert a_side.upper == pytest.approx(b_side.upper, abs=1e-8)


def test_general_basis_search_mode():
    # qubit x qutrit product state: identity basis already attains zero
    rho = fr.DensityOperator(np.diag([0.5, 0.0, 0.0, 0.0, 0.3, 0.2]))
    bip = fr.BipartiteState(2, 3, rho)
    report = fr.optimize_dephasing_bound(bip, random_trials=5, seed=0)
    assert report.upper == pytest.approx(0.0, abs=1e-9)
    assert report.theta is None
    assert report.unitary is not None
    assert report.lower <= report.upper + 1e-6


def test_bound_report_json_dict():
    report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.9), grid=32)
    payload = report.to_json_dict()
    assert set(payload) == {"upper", "lower", "tight", "theta", "gamma"}
    assert payload["tight"] is True


@pytest.mark.parametrize("side", ["A", "B"])
def test_grid_blocks_match_the_pointwise_bound(side):
    bip = random_two_qubit_state(np.random.default_rng(6))
    thetas, gammas = np.arange(6) * math.pi / 6, np.arange(6) * 2 * math.pi / 6
    values = (_dephased_entropy(bip.state.matrix.reshape(2, 2, 2, 2), thetas[:, None],
                                gammas[None, :], side) - fr.von_neumann_entropy(bip.state))
    assert values.shape == (6, 6)
    for i, theta in enumerate(thetas):
        for j, gamma in enumerate(gammas):
            u = fr.two_qubit_parameterized_unitary(theta, gamma)
            assert values[i, j] == pytest.approx(fr.dephasing_upper_bound(bip, u, side), abs=1e-12)


@pytest.mark.parametrize("side", ["A", "B"])
def test_kernel_at_single_angles_matches_the_lifted_bound(side):
    rng = np.random.default_rng(10)
    for _ in range(50):
        bip = random_two_qubit_state(rng)
        theta, gamma = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        value = _dephased_entropy(bip.state.matrix.reshape(2, 2, 2, 2), theta, gamma, side)
        assert isinstance(value, float)
        u = fr.two_qubit_parameterized_unitary(theta, gamma)
        assert value - fr.von_neumann_entropy(bip.state) == pytest.approx(
            fr.dephasing_upper_bound(bip, u, side), abs=1e-12)


@pytest.mark.parametrize("side", ["A", "B"])
def test_reported_upper_is_the_bound_at_the_reported_angles(side):
    rng = np.random.default_rng(11)
    for bip in [random_two_qubit_state(rng) for _ in range(4)] + [fr.bell_diagonal_state(0.8)]:
        report = fr.optimize_two_qubit_bound(bip, grid=16, side=side)
        u = fr.two_qubit_parameterized_unitary(report.theta, report.gamma)
        assert_allclose(report.unitary, u, atol=0)
        assert report.upper == pytest.approx(fr.dephasing_upper_bound(bip, u, side), abs=1e-12)


def test_two_qubit_optimizer_builds_no_block_projection(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a BlockProjection was built")

    monkeypatch.setattr(fr.BlockProjection, "__init__", forbidden)
    report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.75), grid=16)
    assert report.upper == pytest.approx(1.0 - fr.binary_entropy(0.75), abs=1e-9)


@pytest.mark.parametrize("grid", [0, -3])
def test_optimizer_grid_must_be_positive(grid):
    with pytest.raises(ValueError, match=f"grid .*got {grid}"):
        fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.8), grid=grid)
