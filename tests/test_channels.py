import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr
import frameness.channels
from frameness.states import COMPOSED_TOL
from channel_oracle import (commutant_fixed_point_check, identity_channel, kraus_channel, kraus_channel_from_json,
                            kraus_channel_to_json, kraus_pinching, kraus_twirl, per_sample_image_fix_check)

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


def with_entry(a, value):
    """``a`` as a complex array with ``value`` written into entry (0, 1)."""
    a = np.array(a, dtype=complex)
    a[0, 1] = value
    return a


NON_FINITE_CONSTRUCTORS = {
    "kraus": (fr.FramenessError, lambda v: fr.KrausChannel([with_entry(np.eye(2), v)])),
    "block_projection": (ValueError, lambda v: fr.BlockProjection(
        [(np.arange(2), np.arange(2), with_entry(np.eye(2), v))], [(1, 1), (1, 1)])),
    "dephasing": (ValueError, lambda v: fr.dephasing_channel(with_entry(np.eye(2), v))),
    "conditional_expectation": (ValueError, lambda v: fr.conditional_expectation_channel(
        [(1, 1), (1, 1)], with_entry(np.eye(2), v))),
    "lifted_dephasing": (ValueError, lambda v: fr.lifted_dephasing_channel(
        fr.BipartiteState(2, 2, fr.DensityOperator(np.eye(4) / 4)), with_entry(np.eye(2), v))),
    "povm": (fr.FramenessError, lambda v: fr.DiscretePOVM(
        [with_entry(np.eye(2) / 2, v), np.eye(2) / 2])),
    "pinching": (ValueError, lambda v: fr.pinching_channel(
        [np.diag([1.0, 0.0]), with_entry(np.diag([0.0, 1.0]), v)])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", NON_FINITE_CONSTRUCTORS)
def test_constructors_refuse_a_non_finite_entry(name, value):
    error, build = NON_FINITE_CONSTRUCTORS[name]
    with pytest.raises(error, match="non-finite"):
        build(value)


@pytest.mark.parametrize("build", [fr.KrausChannel, fr.pinching_channel, fr.DiscretePOVM])
def test_a_zero_dimensional_operator_is_a_shape_error(build):
    with pytest.raises(fr.ShapeMismatchError):
        build([1.0])


def test_apply_examples():
    rho = fr.random_density_operator(3, np.random.default_rng(0))
    assert_allclose(identity_channel(3).apply(rho).matrix, rho.matrix, atol=1e-15)

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
    m = kraus_channel(ch).superoperator()
    direct = ch.apply_matrix(rho.matrix).ravel()
    assert np.abs(m @ rho.matrix.ravel() - direct).max() < 1e-9


def test_unitality_and_idempotence_verdicts():
    assert z2_twirl_channel().is_unital()
    assert z2_twirl_channel().is_idempotent()
    assert not amplitude_damping().is_unital()
    reset = fr.KrausChannel([np.outer([1.0, 0.0], e) for e in np.eye(2)])  # rho -> Tr(rho) |0><0|
    assert reset.is_idempotent() and not reset.is_unital()

    half = partial_dephasing()
    assert half.is_unital()
    assert not half.is_idempotent()
    # independent 4x4 superoperator oracle: M = 3/4 I + 1/4 Z (x) Z
    m = 0.75 * np.eye(4) + 0.25 * np.kron(Z, Z.conj())
    assert np.abs(m @ m - m).max() > 1e-3
    assert_allclose(half.superoperator(), m, atol=1e-12)


def test_idempotence_is_decided_without_the_superoperator(monkeypatch):
    def forbidden(self):
        raise AssertionError("the superoperator was built")

    monkeypatch.setattr(fr.KrausChannel, "superoperator", forbidden)
    twirl = kraus_twirl([np.eye(2), Z])
    pinch = kraus_channel(random_pinching(8, 4, np.random.default_rng(9)))  # four projectors on d = 8
    for ch, rho in ((twirl, plus_state()), (pinch, fr.random_density_operator(8, np.random.default_rng(10)))):
        assert ch.is_idempotent()
        fr.relative_entropy_to_image(ch, rho)
        assert fr.image_fix_equivalence_check(ch, samples=2).idempotent
    half = partial_dephasing()
    assert not half.is_idempotent()
    with pytest.raises(fr.ChannelPreconditionError, match="idempotent"):
        fr.relative_entropy_to_image(half, plus_state())
    assert not fr.image_fix_equivalence_check(half, samples=2).idempotent


def random_pinching(dim, parts, rng):
    u = fr.haar_unitary(dim, rng)
    edges = np.linspace(0, dim, parts + 1).astype(int)
    return fr.pinching_channel([u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(edges, edges[1:])])


def phase_twirl(dim, order, rng):
    """A rotated cyclic phase twirl as its Kraus oracle: a Kraus channel for the Kraus calculus."""
    u = fr.haar_unitary(dim, rng)
    charges = rng.integers(0, order, size=dim)
    return kraus_twirl([(u * np.exp(2j * np.pi * k * charges / order)) @ u.conj().T for k in range(order)])


def mixed_with_identity(ch, dev):
    """dev id + (1 - dev) E: not idempotent for 0 < dev < 1 unless E is the identity."""
    return fr.KrausChannel([math.sqrt(1.0 - dev) * k for k in kraus_channel(ch).kraus]
                           + [math.sqrt(dev) * np.eye(ch.dim)])


def deviation_cases(rng):
    """Channels with n (n + 1) < d^2 Kraus operators and with more, idempotent or not."""
    d = int(rng.integers(8, 25))
    yield kraus_channel(random_pinching(d, int(rng.integers(2, 6)), rng))
    yield phase_twirl(d, int(rng.integers(2, 9)), rng)
    small = int(rng.integers(2, 11))
    m = int(rng.integers(1, small))  # sectors (m, 1) and (1, small - m): m^2 + 1 Kraus operators
    yield kraus_channel(fr.conditional_expectation_channel([(m, 1), (1, small - m)],
                                                           fr.haar_unitary(small, rng)))
    yield kraus_channel(fr.dephasing_channel(fr.haar_unitary(small, rng)))
    yield kraus_channel(fr.random_unital_idempotent_channel(2, rng))
    yield phase_twirl(2, int(rng.integers(2, 5)), rng)
    yield mixed_with_identity(random_pinching(int(rng.integers(3, 9)), 2, rng), rng.uniform(0, 1))
    yield mixed_with_identity(random_pinching(2, 2, rng), rng.uniform(0, 1))
    yield amplitude_damping(rng.uniform(0, 1))


def superoperator_deviation(ch):
    """max |S @ S - S| on the superoperator S: the entrywise idempotence oracle."""
    m = ch.superoperator()
    return float(np.abs(m @ m - m).max())


@given(st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_idempotence_deviation_matches_the_superoperator(seed):
    sides = set()
    for ch in deviation_cases(np.random.default_rng(seed)):
        assert ch.is_idempotent() is (superoperator_deviation(ch) <= 1e-8)
        n = len(ch.kraus)
        sides.add(n * (n + 1) < ch.dim**2)
    assert sides == {True, False}


def test_idempotence_verdict_near_the_tolerance_matches_the_superoperator():
    # t id + (1 - t) P has E o E - E = (t^2 - t)(id - P): a log grid through the tolerance,
    # where the probe and the entrywise superoperator rule may disagree only near COMPOSED_TOL
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pinch = random_pinching(int(rng.integers(2, 9)), 2, rng)
        for t in np.geomspace(1e-12, 1e-5, 29):
            ch = mixed_with_identity(pinch, t)
            oracle = superoperator_deviation(ch)
            if ch.is_idempotent() is not (oracle <= COMPOSED_TOL):
                assert COMPOSED_TOL / 8 <= oracle <= 8 * COMPOSED_TOL, (seed, t, oracle)


def test_commutant_fixed_point_check():
    deph = fr.dephasing_channel(np.eye(2))
    assert commutant_fixed_point_check(deph, np.eye(2))
    assert commutant_fixed_point_check(deph, np.diag([1.0, 2.0]))
    assert not commutant_fixed_point_check(deph, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(fr.ChannelPreconditionError):
        commutant_fixed_point_check(amplitude_damping(), np.eye(2))


def test_image_fix_equivalence():
    report = fr.image_fix_equivalence_check(z2_twirl_channel(), samples=50, seed=0)
    assert report.idempotent and report.all_image_states_fixed and report.consistent

    report = fr.image_fix_equivalence_check(partial_dephasing(), samples=50, seed=0)
    assert not report.idempotent and not report.all_image_states_fixed
    assert report.consistent

    report = fr.image_fix_equivalence_check(identity_channel(3), samples=10, seed=0)
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
    back = kraus_channel_from_json(json.loads(json.dumps(kraus_channel_to_json(ch))))
    rho = fr.random_density_operator(3, np.random.default_rng(7))
    assert_allclose(back.apply(rho).matrix, ch.apply(rho).matrix, atol=1e-12)
    tampered = kraus_channel_to_json(identity_channel(3))
    tampered["dim"] = 5
    with pytest.raises(fr.ShapeMismatchError):
        kraus_channel_from_json(tampered)
    with pytest.raises(fr.FramenessError):
        kraus_channel_from_json({"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]],
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


def stack_cases():
    """(label, channel): Kraus and block projections, idempotent or not, dense and blocked bases."""
    rng = np.random.default_rng(21)
    yield "z2-twirl", z2_twirl_channel()
    yield "partial-dephasing", partial_dephasing()
    yield "amplitude-damping", amplitude_damping()
    yield "phase-twirl", phase_twirl(6, 3, rng)
    yield "mixed-pinching", mixed_with_identity(random_pinching(5, 2, rng), 0.3)
    yield "pinching", random_pinching(7, 3, rng)
    yield "block", fr.conditional_expectation_channel([(2, 2), (1, 3)], fr.haar_unitary(7, rng))
    yield "identity-blocks", fr.conditional_expectation_channel([(2, 1), (1, 2), (3, 1)])
    yield "u1", fr.TwirlOperation.u1(fr.hamming_weight_grading(4))
    yield "su2-weight-blocks", fr.TwirlOperation.su2(fr.build_collective_spin_rep(4))


STACK_CASES = list(stack_cases())


@pytest.mark.parametrize("label, ch", STACK_CASES, ids=[c[0] for c in STACK_CASES])
def test_stacked_apply_matrix_equals_the_2d_calls(label, ch):
    rng = np.random.default_rng(22)
    d = ch.dim
    x = rng.standard_normal((3, 2, d, d)) + 1j * rng.standard_normal((3, 2, d, d))
    stacked = ch.apply_matrix(x)
    assert stacked.shape == x.shape
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(stacked[i, j], ch.apply_matrix(x[i, j]))
    if isinstance(ch, fr.KrausChannel):
        adjoint = ch.adjoint_apply(x)
        np.testing.assert_array_equal(adjoint[1, 0], ch.adjoint_apply(x[1, 0]))
    with pytest.raises(fr.ShapeMismatchError):
        ch.apply_matrix(x[..., :-1])


@pytest.mark.parametrize("label, ch", STACK_CASES, ids=[c[0] for c in STACK_CASES])
@pytest.mark.parametrize("entries", [None, 3], ids=["one-stack", "stacks-of-3"])
def test_stacked_image_fix_check_equals_the_per_sample_loop(label, ch, entries, monkeypatch):
    if entries is not None:  # stacks of 3 states, so 10 samples end in a stack of 1
        monkeypatch.setattr(frameness.channels, "_STACK_ENTRIES", entries * ch.dim**2)
    report = fr.image_fix_equivalence_check(ch, samples=10, seed=5)
    assert report == per_sample_image_fix_check(ch, 10, 5)
    assert report.consistent


def test_image_fix_check_validates_the_sampled_stack(monkeypatch):
    # the stacked check applies the DensityOperator checks: a non-PSD sample raises
    monkeypatch.setattr(frameness.channels, "_density_stack",
                        lambda d, rng, count: np.broadcast_to(np.diag([1.5, -0.5]), (count, 2, 2)))
    with pytest.raises(fr.InvalidStateError, match="not PSD"):
        fr.image_fix_equivalence_check(z2_twirl_channel(), samples=3)


def test_pinching_matches_its_kraus_oracle():
    rng = np.random.default_rng(23)
    for dim, parts in [(2, 2), (5, 2), (8, 4), (9, 9), (12, 3)]:
        u = fr.haar_unitary(dim, rng)
        edges = np.sort(rng.choice(np.arange(1, dim), parts - 1, replace=False)).tolist()
        projectors = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip([0] + edges, edges + [dim])]
        pinch, oracle = fr.pinching_channel(projectors), kraus_pinching(projectors)
        assert isinstance(pinch, fr.BlockProjection)
        assert pinch.blocks == tuple((1, b - a) for a, b in zip([0] + edges, edges + [dim]))
        x = fr.random_hermitian(dim, rng)
        assert np.abs(pinch.apply_matrix(x) - oracle.apply_matrix(x)).max() <= 1e-12
        rho = fr.random_density_operator(dim, rng)
        assert abs(pinch.image_entropy(rho) - oracle.image_entropy(rho)) <= 1e-12
        assert abs(fr.relative_entropy_to_image(pinch, rho)
                   - fr.relative_entropy(rho, oracle.apply(rho))) <= 1e-12
        kraus = kraus_channel(pinch).kraus
        assert max(np.abs(k - p).max() for k, p in zip(kraus, projectors)) <= 1e-12


def test_pinching_rejects_families_that_are_not_complete_orthogonal_projectors():
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="eigenvalue"):
        fr.pinching_channel([np.eye(2) / 2, np.eye(2) / 2])  # complete, not projectors
    with pytest.raises(ValueError, match="Hermitian"):
        fr.pinching_channel([np.array([[1.0, 1.0], [0.0, 0.0]]), z1])
    with pytest.raises(ValueError, match="not unitary"):
        fr.pinching_channel([z0, plus])  # projectors of total rank 2 that overlap
    with pytest.raises(ValueError, match="total rank 1"):
        fr.pinching_channel([z0])  # incomplete
    with pytest.raises(ValueError, match="total rank 3"):
        fr.pinching_channel([z0, z1, plus])
    with pytest.raises(fr.ShapeMismatchError):
        fr.pinching_channel([z0, np.eye(3)])
    with pytest.raises(ValueError, match="at least one"):
        fr.pinching_channel([])


def test_twirl_idempotence_probe_workspace_is_a_few_operators():
    ch = phase_twirl(32, 5, np.random.default_rng(24))
    tracemalloc.start()
    try:
        idempotent = ch.is_idempotent()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idempotent
    # the probe holds a few 32 x 32 operators; the 1024 x 1024 superoperator alone is 16 MiB
    assert peak < 4 * 2**20


def test_image_fix_check_workspace_does_not_grow_with_the_sample_count():
    ch = fr.dephasing_channel(fr.haar_unitary(64, np.random.default_rng(25)))
    fr.image_fix_equivalence_check(ch, samples=2)
    peaks = []
    for samples in (16, 160):
        tracemalloc.start()
        try:
            assert fr.image_fix_equivalence_check(ch, samples=samples).consistent
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # stacks of 2^16 / 64^2 = 16 states (1 MiB each); 160 states at once would be 10 MiB per array
    assert peaks[1] < 1.25 * peaks[0] < 12 * 2**20
