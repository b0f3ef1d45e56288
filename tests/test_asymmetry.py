import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frameness as fr
from frameness.groups import CollectiveSpinRep
from channel_oracle import invariant_state_oracle, kraus_channel
from su2_oracle import collective_rotation, dense_schur_basis


def plus_state():
    return fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()


def z2_twirl():
    return fr.TwirlOperation.finite(fr.z2_phase_flip_rep())


def two_qubit_extremal_state():
    """sqrt(3)/2 |triplet> + 1/2 |singlet> on two qubits."""
    v = np.zeros(4)
    v[0] = math.sqrt(3) / 2  # |00> is a highest-weight triplet state
    v[1] += 0.5 / math.sqrt(2)
    v[2] -= 0.5 / math.sqrt(2)
    return fr.PureState(v)


def schur_sector_data(n_qubits, psi):
    """(p, q) sector weights and Schmidt distributions of a pure state, in the dense Schur basis."""
    basis, _, sectors = dense_schur_basis(n_qubits)
    j_max = n_qubits // 2
    coords = basis.T @ psi.amplitudes
    p = np.zeros(j_max + 1)
    q = [None] * j_max
    for sec in sectors:
        block = coords[sec.start:sec.stop].reshape(2 * sec.j + 1, sec.multiplicity)
        weight = float(np.linalg.norm(block) ** 2)
        p[sec.j] = weight
        if sec.j < j_max and weight > 1e-14:
            svals = np.linalg.svd(block, compute_uv=False)
            q[sec.j] = svals**2 / weight
    return fr.ProbabilityDistribution(p), q


def test_twirl_examples():
    assert_allclose(z2_twirl().apply(plus_state()).matrix, np.eye(2) / 2, atol=1e-12)

    grading = fr.ChargeGrading([0, 1, 2])
    number_state = fr.DensityOperator(np.diag([0.0, 1.0, 0.0]))
    tw = fr.TwirlOperation.u1(grading)
    assert_allclose(tw.apply(number_state).matrix, number_state.matrix, atol=1e-15)

    rep = fr.build_collective_spin_rep(2)
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    rho = fr.PureState(singlet).projector()
    assert_allclose(fr.TwirlOperation.su2(rep).apply(rho).matrix, rho.matrix, atol=1e-10)


def test_u1_twirl_keeps_intra_sector_coherence():
    grading = fr.ChargeGrading([0, 1, 1])
    v = np.array([0.0, 1.0, 1.0]) / math.sqrt(2)
    rho = fr.PureState(v).projector()
    out = fr.TwirlOperation.u1(grading).apply(rho)
    assert abs(out.matrix[1, 2]) == pytest.approx(0.5, abs=1e-12)  # same-charge coherence kept
    assert out.matrix[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_g_asymmetry_examples():
    invariant = fr.DensityOperator(np.diag([0.2, 0.8]))
    res = fr.g_asymmetry(z2_twirl(), invariant)
    assert res.asymmetry == pytest.approx(0.0, abs=1e-9)
    assert fr.trace_distance(res.twirled_state, invariant) < 1e-8

    grading = fr.ChargeGrading([0, 1, 2, 3])
    uniform = fr.PureState(np.full(4, 0.5)).projector()
    assert fr.g_asymmetry(fr.TwirlOperation.u1(grading), uniform).asymmetry == pytest.approx(2.0)

    rep = fr.build_collective_spin_rep(2)
    res = fr.g_asymmetry(fr.TwirlOperation.su2(rep), two_qubit_extremal_state().projector())
    assert res.asymmetry == pytest.approx(2.0, abs=1e-8)
    assert res.asymmetry == pytest.approx(res.entropy_out - res.entropy_in, abs=1e-10)


def test_asymmetry_equals_relative_entropy_to_twirl():
    rng = np.random.default_rng(0)
    grading = fr.ChargeGrading([0, 1, 1, 2])
    twirls = [z2_twirl(), fr.TwirlOperation.u1(grading),
              fr.TwirlOperation.su2(fr.build_collective_spin_rep(2))]
    for tw in twirls:
        for _ in range(8):
            rho = fr.random_density_operator(tw.dim, rng)
            res = fr.g_asymmetry(tw, rho)
            assert res.asymmetry == pytest.approx(
                fr.relative_entropy(rho, res.twirled_state), abs=1e-8
            )


def test_invariant_state_oracle_sandwich():
    tw = z2_twirl()
    val = invariant_state_oracle(tw, plus_state(), trials=100, seed=0)
    assert val == pytest.approx(1.0, abs=1e-8)

    invariant = fr.DensityOperator(np.diag([0.2, 0.8]))
    assert invariant_state_oracle(tw, invariant, trials=20, seed=0) == pytest.approx(0.0, abs=1e-9)

    grading = fr.ChargeGrading([0, 1, 2])
    uniform = fr.PureState(np.full(3, 1 / math.sqrt(3))).projector()
    tw_u1 = fr.TwirlOperation.u1(grading)
    val = invariant_state_oracle(tw_u1, uniform, trials=60, seed=1)
    assert val == pytest.approx(math.log2(3), abs=1e-8)
    # never below the closed-form value
    assert val >= fr.g_asymmetry(tw_u1, uniform).asymmetry - 1e-8


def test_u1_closed_form():
    grading = fr.ChargeGrading([0, 1, 2])
    amps = np.sqrt([0.5, 0.3, 0.2])
    pure = fr.PureState(amps).projector()
    assert fr.u1_asymmetry_closed_form(grading, pure) == pytest.approx(
        fr.shannon_entropy([0.5, 0.3, 0.2]), abs=1e-10
    )
    number_state = fr.DensityOperator(np.diag([1.0, 0.0, 0.0]))
    assert fr.u1_asymmetry_closed_form(grading, number_state) == pytest.approx(0.0, abs=1e-10)
    diag_mixed = fr.DensityOperator(np.diag([0.5, 0.25, 0.25]))
    assert fr.u1_asymmetry_closed_form(grading, diag_mixed) == pytest.approx(0.0, abs=1e-10)

    with_multiplicity = fr.ChargeGrading([0, 1, 1])
    with pytest.raises(fr.ClosedFormInapplicableError):
        fr.u1_asymmetry_closed_form(with_multiplicity, fr.DensityOperator(np.eye(3) / 3))


def test_u1_closed_form_matches_twirl_route():
    rng = np.random.default_rng(1)
    grading = fr.ChargeGrading([0, 1, 2, 3])
    tw = fr.TwirlOperation.u1(grading)
    for _ in range(10):
        rho = fr.random_density_operator(4, rng)
        assert fr.u1_asymmetry_closed_form(grading, rho) == pytest.approx(
            fr.g_asymmetry(tw, rho).asymmetry, abs=1e-7
        )


def test_su2_closed_form_examples():
    assert fr.su2_pure_asymmetry_closed_form([1.0], [], 0) == pytest.approx(0.0)
    # two-qubit optimum: p1 = 3/4, p0 = 1/4
    val = fr.su2_pure_asymmetry_closed_form([0.25, 0.75], [[1.0]], 1)
    assert val == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fr.su2_pure_asymmetry_closed_form([0.25, 0.75], [[0.5, 0.5]], 1)  # too many terms


@pytest.mark.parametrize("n_qubits", [2, 4])
def test_su2_closed_form_agrees_with_twirl(n_qubits):
    rep = fr.build_collective_spin_rep(n_qubits)
    tw = fr.TwirlOperation.su2(rep)
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = fr.random_pure_state(rep.dim, rng)
        p, q = schur_sector_data(n_qubits, psi)
        closed = fr.su2_pure_asymmetry_closed_form(p, q, rep.j_max)
        measured = fr.g_asymmetry(tw, psi.projector()).asymmetry
        assert closed == pytest.approx(measured, abs=1e-7)


def test_maximal_asymmetry_states():
    state = fr.maximal_asymmetry_state("u1", n_max=3)
    grading = fr.ChargeGrading([0, 1, 2, 3])
    val = fr.g_asymmetry(fr.TwirlOperation.u1(grading), state.projector()).asymmetry
    assert val == pytest.approx(2.0, abs=1e-9)
    assert val == pytest.approx(fr.max_u1_asymmetry_value(3), abs=1e-9)

    rep = fr.build_collective_spin_rep(2)
    state = fr.maximal_asymmetry_state("su2", rep=rep)
    val = fr.g_asymmetry(fr.TwirlOperation.su2(rep), state.projector()).asymmetry
    assert val == pytest.approx(2.0, abs=1e-8)

    rep4 = fr.build_collective_spin_rep(4)
    state4 = fr.maximal_asymmetry_state("su2", rep=rep4)
    val4 = fr.g_asymmetry(fr.TwirlOperation.su2(rep4), state4.projector()).asymmetry
    assert val4 == pytest.approx(math.log2(15), abs=1e-8)

    with pytest.raises(ValueError):
        fr.maximal_asymmetry_state("u1", n_max=-1)
    with pytest.raises(ValueError):
        fr.maximal_asymmetry_state("su2")


def test_max_value_closed_forms():
    assert fr.max_su2_asymmetry_value(0) == 0.0
    assert fr.max_su2_asymmetry_value(1) == pytest.approx(2.0)
    assert fr.max_su2_asymmetry_value(2) == pytest.approx(math.log2(15))
    assert fr.max_u1_asymmetry_value(0) == 0.0


def test_any_schmidt_pairing_gives_the_same_asymmetry():
    # pair the k-th m level with a permuted multiplicity label instead
    rep = fr.build_collective_spin_rep(4)
    tw = fr.TwirlOperation.su2(rep)
    reference = fr.g_asymmetry(tw, fr.maximal_asymmetry_state("su2", rep=rep).projector()).asymmetry
    basis, _, sectors = dense_schur_basis(4)
    amps = np.zeros(rep.dim)
    weights = {s.j: (2 * s.j + 1) * min(2 * s.j + 1, s.multiplicity) for s in sectors}
    d_star = sum(weights.values())
    for sec in sectors:
        d_j = min(2 * sec.j + 1, sec.multiplicity)
        coeff = math.sqrt(weights[sec.j] / (d_star * d_j))
        for k in range(d_j):
            alpha = (k + 1) % d_j  # shifted pairing
            amps += coeff * basis[:, sec.start + k * sec.multiplicity + alpha]
    permuted = fr.PureState(amps / np.linalg.norm(amps))
    assert fr.g_asymmetry(tw, permuted.projector()).asymmetry == pytest.approx(reference, abs=1e-8)


def q8_x_i3():
    return fr.finite_group_from_unitaries([np.kron(u, np.eye(3)) for u in fr.quaternion_rep().unitaries])


TWIRLS = {
    "q8": lambda: fr.TwirlOperation.finite(fr.quaternion_rep()),
    "q8-x-i3": lambda: fr.TwirlOperation.finite(q8_x_i3()),
    "u1": lambda: fr.TwirlOperation.u1(fr.hamming_weight_grading(4)),
    "su2": lambda: fr.TwirlOperation.su2(fr.build_collective_spin_rep(4)),
}


@pytest.mark.parametrize("name", TWIRLS)
def test_a_twirl_is_a_block_projection_and_its_asymmetry_the_entropy_gap(name):
    tw = TWIRLS[name]()
    assert isinstance(tw, fr.BlockProjection) and not hasattr(tw, "__dict__")
    rng = np.random.default_rng(12)
    for _ in range(3):
        rho = fr.random_density_operator(tw.dim, rng)
        res = fr.g_asymmetry(tw, rho)
        assert res.asymmetry == fr.relative_entropy_to_image(tw, rho)
        assert res.twirled_state.matrix.tobytes() == tw.apply(rho).matrix.tobytes()


def test_twirls_are_unital_idempotent_channels():
    grading = fr.ChargeGrading([0, 1, 1, 2])
    twirls = [z2_twirl(), fr.TwirlOperation.finite(fr.quaternion_rep()),
              fr.TwirlOperation.u1(grading),
              fr.TwirlOperation.su2(fr.build_collective_spin_rep(2))]
    for tw in twirls:
        ch = kraus_channel(tw)
        assert ch.is_unital()
        assert ch.is_idempotent()
        assert fr.image_fix_equivalence_check(ch, samples=20, seed=0).consistent
        # the Kraus form realizes the same map
        rho = fr.random_density_operator(tw.dim, np.random.default_rng(3))
        assert_allclose(ch.apply(rho).matrix, tw.apply(rho).matrix, atol=1e-10)


def test_twirl_covariance():
    rng = np.random.default_rng(4)

    rep = fr.z2_phase_flip_rep()
    tw = fr.TwirlOperation.finite(rep)
    rho = fr.random_density_operator(2, rng)
    for u in rep.unitaries:
        rotated = fr.DensityOperator(u @ rho.matrix @ u.conj().T)
        assert fr.trace_distance(tw.apply(rotated), tw.apply(rho)) < 1e-8

    grading = fr.ChargeGrading([0, 1, 2])
    tw_u1 = fr.TwirlOperation.u1(grading)
    rho = fr.random_density_operator(3, rng)
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi) * grading.charges)
        rotated = fr.DensityOperator((phase[:, None] * rho.matrix) * phase.conj()[None, :])
        assert fr.trace_distance(tw_u1.apply(rotated), tw_u1.apply(rho)) < 1e-8

    rep4 = fr.build_collective_spin_rep(4)
    tw_su2 = fr.TwirlOperation.su2(rep4)
    rho = fr.random_density_operator(16, rng)
    for _ in range(3):
        u = collective_rotation(4, rng.uniform(-2, 2, size=3))
        rotated = fr.DensityOperator(u @ rho.matrix @ u.conj().T)
        assert fr.trace_distance(tw_su2.apply(rotated), tw_su2.apply(rho)) < 1e-8


def test_multiplicity_basis_independence():
    # conjugating the Schur basis by a unitary on the alpha indices alone
    # leaves the twirl output unchanged
    rep = fr.build_collective_spin_rep(4)
    rng = np.random.default_rng(5)
    ws = {sec.j: fr.haar_unitary(sec.multiplicity, rng) for sec in rep.sectors}
    new_blocks = []
    for rows, cols, u in rep.weight_blocks:
        u = u.astype(complex)
        js = np.array([rep.labels[c][0] for c in cols])
        for j in np.unique(js):
            slab = np.flatnonzero(js == j)  # the multiplicity labels of (j, m)
            u[:, slab] = u[:, slab] @ ws[j]
        new_blocks.append((rows, cols, u))
    alt = CollectiveSpinRep(rep.n_qubits, new_blocks, rep.labels, rep.sectors)
    tw, tw_alt = fr.TwirlOperation.su2(rep), fr.TwirlOperation.su2(alt)
    for _ in range(5):
        rho = fr.random_density_operator(16, rng)
        assert fr.trace_distance(tw.apply(rho), tw_alt.apply(rho)) < 1e-8


def test_monotonicity_under_invariant_operations():
    rng = np.random.default_rng(6)

    # mixtures of group conjugations for Z2
    rep = fr.z2_phase_flip_rep()
    tw = fr.TwirlOperation.finite(rep)
    w = float(rng.uniform(0.1, 0.9))
    mix = fr.KrausChannel([math.sqrt(w) * rep.unitaries[0], math.sqrt(1 - w) * rep.unitaries[1]])
    for _ in range(10):
        rho = fr.random_density_operator(2, rng)
        assert fr.g_asymmetry(tw, mix.apply(rho)).asymmetry <= \
            fr.g_asymmetry(tw, rho).asymmetry + 1e-8

    # invariant-Kraus channel for u1: mixture of diagonal unitaries
    grading = fr.ChargeGrading([0, 1, 2])
    tw_u1 = fr.TwirlOperation.u1(grading)
    phases = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3))) for _ in range(3)]
    ws = rng.dirichlet(np.ones(3))
    diag_mix = fr.KrausChannel([math.sqrt(wi) * ui for wi, ui in zip(ws, phases)])
    for _ in range(10):
        rho = fr.random_density_operator(3, rng)
        assert fr.g_asymmetry(tw_u1, diag_mix.apply(rho)).asymmetry <= \
            fr.g_asymmetry(tw_u1, rho).asymmetry + 1e-8

    # mixtures of collective rotations for su2
    rep2 = fr.build_collective_spin_rep(2)
    tw_su2 = fr.TwirlOperation.su2(rep2)
    us = [collective_rotation(2, rng.uniform(-2, 2, size=3)) for _ in range(2)]
    rot_mix = fr.KrausChannel([math.sqrt(0.5) * u for u in us])
    for _ in range(5):
        rho = fr.random_density_operator(4, rng)
        assert fr.g_asymmetry(tw_su2, rot_mix.apply(rho)).asymmetry <= \
            fr.g_asymmetry(tw_su2, rho).asymmetry + 1e-8


def test_zero_asymmetry_certified_by_fixed_point_distance():
    tw = z2_twirl()
    invariant = fr.DensityOperator(np.diag([0.35, 0.65]))
    res = fr.g_asymmetry(tw, invariant)
    assert abs(res.asymmetry) <= 1e-9
    assert fr.trace_distance(res.twirled_state, invariant) <= 1e-8
