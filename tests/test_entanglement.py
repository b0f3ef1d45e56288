import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from channel_oracle import kraus_channel
from stack_oracle import per_candidate_dephasing_search

import frameness as fr
import frameness.entanglement
from frameness.entanglement import (
    _bloch_coefficients,
    _compass_search,
    _dephased_entropy,
    _dephasing_gaps,
    _grid_starts,
    _reduced_angles,
)
from frameness.sampling import _haar_stack


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
    kraus = kraus_channel(ch).kraus
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
    report = fr.optimize_two_qubit_bound(random_two_qubit_state(rng))
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
        report = fr.optimize_two_qubit_bound(bip)
        assert report.lower <= report.upper + 1e-6
        assert report.upper >= -1e-9


def test_dephasing_either_side():
    bip = fr.bell_diagonal_state(0.75)
    b_side = fr.optimize_two_qubit_bound(bip, side="B")
    a_side = fr.optimize_two_qubit_bound(bip, side="A")
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
    report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.9))
    payload = report.to_json_dict()
    assert set(payload) == {"upper", "lower", "tight", "theta", "gamma"}
    assert payload["tight"] is True


@pytest.mark.parametrize("side", ["A", "B"])
def test_grid_blocks_match_the_pointwise_bound(side):
    bip = random_two_qubit_state(np.random.default_rng(6))
    thetas, gammas = np.arange(6) * math.pi / 6, np.arange(6) * 2 * math.pi / 6
    values = (_dephased_entropy(_bloch_coefficients(bip.state.matrix, side), thetas[:, None],
                                gammas[None, :]) - fr.von_neumann_entropy(bip.state))
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
        value = _dephased_entropy(_bloch_coefficients(bip.state.matrix, side), theta, gamma)
        assert isinstance(value, float)
        u = fr.two_qubit_parameterized_unitary(theta, gamma)
        assert value - fr.von_neumann_entropy(bip.state) == pytest.approx(
            fr.dephasing_upper_bound(bip, u, side), abs=1e-12)


@pytest.mark.parametrize("side", ["A", "B"])
def test_reported_upper_is_the_bound_at_the_reported_angles(side):
    rng = np.random.default_rng(11)
    for bip in [random_two_qubit_state(rng) for _ in range(4)] + [fr.bell_diagonal_state(0.8)]:
        report = fr.optimize_two_qubit_bound(bip, side=side)
        u = fr.two_qubit_parameterized_unitary(report.theta, report.gamma)
        assert_allclose(report.unitary, u, atol=0)
        assert report.upper == pytest.approx(fr.dephasing_upper_bound(bip, u, side), abs=1e-12)


def test_two_qubit_optimizer_builds_no_block_projection(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a BlockProjection was built")

    monkeypatch.setattr(fr.BlockProjection, "__init__", forbidden)
    report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.75))
    assert report.upper == pytest.approx(1.0 - fr.binary_entropy(0.75), abs=1e-9)


def _scipy_nelder_mead_min(fun, x0):
    import scipy.optimize  # the oracle; scipy is a test dependency only

    return scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
                                   options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 200}).fun


def seeded_two_qubit_states(rng, count):
    """Full-rank, rank 1 to 3, Bell-diagonal and near-product two-qubit states, in turn."""
    states = []
    for k in range(count):
        kind = k % 6
        if kind == 0:
            m = fr.random_density_operator(4, rng).matrix
        elif kind <= 3:
            x = rng.normal(size=(4, kind)) + 1j * rng.normal(size=(4, kind))
            m = x @ x.conj().T
        elif kind == 4:
            m = fr.bell_diagonal_state(rng.uniform(0, 1)).state.matrix
        else:
            a, b = fr.random_density_operator(2, rng).matrix, fr.random_density_operator(2, rng).matrix
            m = np.kron(a, b) + 1e-3 * fr.random_density_operator(4, rng).matrix
        states.append(fr.BipartiteState(2, 2, fr.DensityOperator(m / np.trace(m).real)))
    return states


@pytest.mark.parametrize("side, seed", [("A", 16), ("B", 17)])
def test_compass_search_is_no_worse_than_scipys_nelder_mead(side, seed):
    states = seeded_two_qubit_states(np.random.default_rng(seed), 150)
    reports = fr.optimize_two_qubit_bounds(states, side=side)
    for bip, report in zip(states, reports):
        coef, s_rho = _bloch_coefficients(bip.state.matrix, side), fr.von_neumann_entropy(bip.state)
        starts, values = _grid_starts(coef, s_rho)
        assert report.upper <= values[0]  # never above the best grid value
        scipy_best = min(_scipy_nelder_mead_min(lambda x: _dephased_entropy(coef, x[0], x[1]) - s_rho, x0)
                         for x0 in starts)
        assert report.upper <= scipy_best + 1e-12


def test_grid_starts_are_three_distinct_bases():
    rng = np.random.default_rng(18)
    # a product state and a Bell-diagonal one tie on many grid points
    states = seeded_two_qubit_states(rng, 30) + [
        fr.bell_diagonal_state(0.8), fr.BipartiteState(2, 2, fr.DensityOperator(np.diag([0.4, 0.1, 0.3, 0.2])))]
    for bip in states:
        starts, _ = _grid_starts(_bloch_coefficients(bip.state.matrix, "B"),
                                 fr.von_neumann_entropy(bip.state))
        theta, gamma = starts[:, 0], starts[:, 1]
        # the basis of (theta, gamma) is fixed by the Bloch axis +-n of its first column
        n = np.stack([np.sin(2 * theta) * np.cos(gamma), -np.sin(2 * theta) * np.sin(gamma),
                      np.cos(2 * theta)], axis=1)
        overlap = np.abs(n @ n.T)
        assert len(starts) == 3
        assert overlap[np.triu_indices(3, 1)].max() < 1 - 1e-9
        assert (theta >= 0).all() and (theta <= math.pi / 4 + 1e-15).all()


def test_compass_search_stops_rows_at_the_step_tolerance_or_the_iteration_cap():
    def objective(rows, points):
        # row 0: a bowl at (0.3, -0.2); row 1: a slope with no minimum; row 2: a flat plane
        x, y = points[..., 0], points[..., 1]
        bowl = (x - 0.3) ** 2 + 2.0 * (y + 0.2) ** 2
        return np.where(rows[:, None] == 0, bowl, np.where(rows[:, None] == 1, -x, 0.0))

    x0 = np.zeros((3, 2))
    f0 = objective(np.arange(3), x0[:, None])[:, 0]
    evaluated = []

    def counting(rows, points):
        evaluated.append(rows.tolist())
        return objective(rows, points)

    xs, funs = _compass_search(counting, x0, f0, (0.1, 0.1))
    assert_allclose(xs[0], [0.3, -0.2], atol=2e-7)
    assert funs[0] == objective(np.array([0]), xs[:1, None])[0, 0]
    assert xs[1, 0] == pytest.approx(0.1 * 200) and funs[1] == -xs[1, 0]  # moved every iteration
    assert xs[2].tolist() == [0.0, 0.0] and funs[2] == 0.0  # ties never move a row
    flat_calls = sum(2 in rows for rows in evaluated)
    assert 0.1 * 0.5 ** flat_calls <= 1e-7 < 0.1 * 0.5 ** (flat_calls - 1)  # halved to the tolerance
    assert len(evaluated) == 200 and all(1 in rows for rows in evaluated)


@pytest.mark.parametrize("side", ["A", "B"])
def test_kernel_value_is_the_same_in_any_batch(side):
    rng = np.random.default_rng(13)
    coef = _bloch_coefficients(fr.random_density_operator(4, rng).matrix, side)
    thetas, gammas = rng.uniform(0, math.pi, 37), rng.uniform(0, 2 * math.pi, 37)
    batch = _dephased_entropy(coef, thetas, gammas)
    one_by_one = [_dephased_entropy(coef, t, g) for t, g in zip(thetas, gammas)]
    stacked = _dephased_entropy(np.broadcast_to(coef, (37, 4, 4)), thetas, gammas)
    grid = _dephased_entropy(coef, thetas[:, None], gammas[None, :])
    assert np.array_equal(batch, one_by_one)
    assert np.array_equal(batch, stacked)
    assert np.array_equal(batch, np.diagonal(grid))
    for n in (1, 2, 5, 9):
        assert np.array_equal(_dephased_entropy(coef, thetas[-n:], gammas[-n:]), batch[-n:])


@pytest.mark.parametrize("side", ["A", "B"])
def test_batched_optimizer_equals_the_one_state_calls(side):
    rng = np.random.default_rng(14)
    states = seeded_two_qubit_states(rng, 24)
    batch = fr.optimize_two_qubit_bounds(states, side=side)
    for bip, report in zip(states, batch):
        single = fr.optimize_two_qubit_bound(bip, side=side)
        assert (report.upper, report.lower, report.theta, report.gamma) == \
            (single.upper, single.lower, single.theta, single.gamma)
        assert np.array_equal(report.unitary, single.unitary)
    assert fr.optimize_two_qubit_bounds([]) == []


def test_grid_scan_keeps_the_full_scans_starts():
    rng = np.random.default_rng(15)
    thetas = np.arange(17) * math.pi / 64
    gammas = np.arange(64) * 2.0 * math.pi / 64
    # a product state and a Bell-diagonal one tie on many grid points
    states = [random_two_qubit_state(rng), fr.bell_diagonal_state(0.8),
              fr.BipartiteState(2, 2, fr.DensityOperator(np.diag([0.4, 0.1, 0.3, 0.2])))]
    for bip in states:
        coef, s_rho = _bloch_coefficients(bip.state.matrix, "B"), fr.von_neumann_entropy(bip.state)
        full = _dephased_entropy(coef, thetas[:, None], gammas[None, :]) - s_rho
        full[0, 1:] = full[-1, 32:] = np.inf  # the twins at theta = 0 and theta = pi / 4
        full = full.ravel()
        order = np.argsort(full, kind="stable")[:3]
        starts, values = _grid_starts(coef, s_rho)
        assert np.array_equal(values, full[order])
        assert np.array_equal(starts[:, 0], thetas[order // 64])
        assert np.array_equal(starts[:, 1], gammas[order % 64])


def test_angles_at_a_gamma_free_basis_are_reported_as_zero():
    # sin 2 theta = 0 makes the basis independent of gamma; both twins of theta = 0 reduce to (0, 0)
    for theta, gamma in [(0.0, 2.5), (1e-9, 5.7), (math.pi / 2, 1.0), (math.pi - 1e-9, 0.3)]:
        assert _reduced_angles(theta, gamma) == (0.0, 0.0)
    assert _reduced_angles(0.3, 2.0 * math.pi + 0.5) == (0.3, pytest.approx(0.5))
    for p in (0.75, 0.95):
        report = fr.optimize_two_qubit_bound(fr.bell_diagonal_state(p))
        assert (report.theta, report.gamma) == (0.0, 0.0)
        assert report.upper == pytest.approx(1.0 - fr.binary_entropy(p), abs=1e-9)


def random_bipartite(dim_a, dim_b, rng, pure=False):
    if pure:
        return fr.BipartiteState(dim_a, dim_b, fr.random_pure_state(dim_a * dim_b, rng).projector())
    return fr.BipartiteState(dim_a, dim_b, fr.random_density_operator(dim_a * dim_b, rng))


@given(st.integers(2, 4), st.integers(2, 4), st.sampled_from("AB"), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_stacked_dephasing_kernel_matches_the_lifted_channel(dim_a, dim_b, side, pure, seed):
    rng = np.random.default_rng(seed)
    bip = random_bipartite(dim_a, dim_b, rng, pure)
    d = dim_b if side == "B" else dim_a
    us = np.concatenate([np.eye(d)[None], _haar_stack(d, rng, 4)])
    gaps = _dephasing_gaps(bip, us, side)
    for u, gap in zip(us, gaps):
        dense = fr.relative_entropy_to_image(fr.lifted_dephasing_channel(bip, u, side), bip.state)
        assert abs(gap - dense) <= 1e-12
        assert fr.dephasing_upper_bound(bip, u, side) == pytest.approx(gap, abs=1e-15)


@pytest.mark.parametrize("dim, count", [(2, 1), (3, 7), (4, 40)])
def test_drawn_candidates_equal_repeated_haar_calls(dim, count):
    stacked_rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    stack = _haar_stack(dim, stacked_rng, count)
    for u in stack:
        np.testing.assert_array_equal(u, fr.haar_unitary(dim, loop_rng))
    assert stacked_rng.random() == loop_rng.random()  # the same draws were consumed


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("stack_entries", [None, 50])
def test_basis_search_picks_the_per_candidate_oracles_basis(monkeypatch, side, stack_entries):
    if stack_entries is not None:  # a few candidates per stack: the search spans many stacks
        monkeypatch.setattr(frameness.entanglement, "_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(4)
    for dims, pure in [((2, 3), False), ((3, 2), True), ((3, 4), False)]:
        bip = random_bipartite(*dims, rng, pure)
        d = dims[1] if side == "B" else dims[0]
        given_bases = [fr.haar_unitary(d, rng) for _ in range(2)]
        for unitaries, trials in [(None, 0), (None, 25), (given_bases, 9)]:
            report = fr.optimize_dephasing_bound(bip, unitaries, trials, seed=7, side=side)
            best_val, best_u = per_candidate_dephasing_search(bip, unitaries, trials, 7, side)
            assert abs(report.upper - best_val) <= 1e-12
            np.testing.assert_array_equal(report.unitary, best_u)
            assert report.lower == fr.hashing_lower_bound(bip)


def test_basis_search_rejects_bad_requests_before_drawing(monkeypatch):
    bip = random_bipartite(2, 3, np.random.default_rng(5))

    def no_draws(*args):
        raise AssertionError("drew candidates for a rejected request")

    monkeypatch.setattr(frameness.entanglement, "_haar_stack", no_draws)
    with pytest.raises(ValueError, match="random_trials must be a nonnegative count, got -1"):
        fr.optimize_dephasing_bound(bip, random_trials=-1)
    with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
        fr.optimize_dephasing_bound(bip, random_trials=3, side="C")
    with pytest.raises(fr.ShapeMismatchError):
        fr.optimize_dephasing_bound(bip, unitaries=[np.eye(2)], random_trials=3)


def test_basis_search_rejects_a_non_unitary_candidate():
    bip = random_bipartite(2, 3, np.random.default_rng(6))
    skew = np.eye(3) + 1e-6 * np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"basis matrix is not unitary \(deviation 2\.000e-06\)"):
        fr.optimize_dephasing_bound(bip, unitaries=[np.eye(3), skew], random_trials=4)
    with pytest.raises(ValueError, match="basis matrix is not unitary"):
        fr.dephasing_upper_bound(bip, skew)
    with pytest.raises(fr.ShapeMismatchError):
        fr.dephasing_upper_bound(bip, np.eye(2))
