import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from stack_oracle import per_element_mutual_information, per_outcome_random_povm_effects

import frameness as fr


def plus_state():
    return fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()


def pm_povm():
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    return fr.DiscretePOVM([plus, minus])


def test_orbit_ensemble_examples():
    ens = fr.orbit_ensemble(fr.z2_phase_flip_rep(), plus_state())
    assert ens.size == 2
    assert_allclose(ens.states[0].matrix, np.full((2, 2), 0.5), atol=1e-15)
    assert_allclose(ens.states[1].matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)

    invariant = fr.DensityOperator(np.diag([0.3, 0.7]))
    ens = fr.orbit_ensemble(fr.z2_phase_flip_rep(), invariant)
    assert fr.trace_distance(ens.states[0], ens.states[1]) < 1e-12

    # Z4 phase orbit of the uniform 4-charge state: mutually orthogonal states
    rep = fr.cyclic_phase_rep([0, 1, 2, 3], 4)
    ens = fr.orbit_ensemble(rep, fr.PureState(np.full(4, 0.5)).projector())
    for i in range(4):
        for j in range(i + 1, 4):
            overlap = float(np.real(np.trace(ens.states[i].matrix @ ens.states[j].matrix)))
            assert overlap == pytest.approx(0.0, abs=1e-12)


def test_orbit_average_equals_twirl():
    rng = np.random.default_rng(0)
    rep = fr.quaternion_rep()
    rho = fr.random_density_operator(2, rng)
    avg = fr.orbit_ensemble(rep, rho).average()
    twirled = fr.TwirlOperation.finite(rep)(rho)
    assert fr.trace_distance(avg, twirled) < 1e-9


def test_orbit_states_share_the_checked_spectrum(monkeypatch):
    rep = fr.quaternion_rep()
    rho = fr.random_density_operator(2, np.random.default_rng(8))
    solves = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, **k: solves.append(1) or _f(*a, **k))
    ens = fr.orbit_ensemble(rep, rho)
    assert solves == []
    monkeypatch.undo()
    for u, state in zip(rep.unitaries, ens.states):
        checked = fr.DensityOperator(u @ rho.matrix @ u.conj().T)
        np.testing.assert_array_equal(state.matrix, checked.matrix)
        assert not state.matrix.flags.writeable
        assert state.eigenvalues() is rho.eigenvalues()
        assert_allclose(checked.eigenvalues(), rho.eigenvalues(), rtol=0, atol=1e-14)


def test_holevo_bound_check_forms_the_orbit_average_once(monkeypatch):
    rep = fr.quaternion_rep()
    rho = fr.random_density_operator(2, np.random.default_rng(9))
    expected = fr.g_asymmetry(fr.TwirlOperation.finite(rep), rho).asymmetry
    kraus, states = [], []
    kraus_init, state_init = fr.KrausChannel.__init__, fr.DensityOperator.__init__
    monkeypatch.setattr(fr.KrausChannel, "__init__", lambda self, *a: kraus.append(1) or kraus_init(self, *a))
    monkeypatch.setattr(fr.DensityOperator, "__init__",
                        lambda self, *a: states.append(1) or state_init(self, *a))
    report = fr.holevo_bound_check(rep, rho)
    # G(rho) is the orbit average, validated once and reused by the square-root measurement
    assert kraus == [] and states == [1]
    assert report.asymmetry == pytest.approx(expected, abs=1e-12)


def test_povm_validation():
    with pytest.raises(fr.FramenessError):
        fr.DiscretePOVM([np.eye(2) * 0.4])  # incomplete
    with pytest.raises(fr.FramenessError):
        fr.DiscretePOVM([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # not PSD


def test_povm_checks_its_effects_as_one_stack():
    skew = np.array([[0.2, 0.1], [0.0, 0.2]])  # not Hermitian
    negative = np.diag([-0.1, 0.3])  # not PSD
    with pytest.raises(fr.FramenessError, match="effect 1 is not PSD \\(herm 1.00e-01"):
        fr.DiscretePOVM([np.eye(2) / 2, skew, negative])
    with pytest.raises(fr.ShapeMismatchError):
        fr.DiscretePOVM([np.eye(2), np.eye(3)])
    povm = pm_povm()
    assert povm.effects.shape == (2, 2, 2) and not povm.effects.flags.writeable
    assert len(povm) == 2


@pytest.mark.parametrize("dim, outcomes", [(2, 2), (2, 8), (3, 5)])
def test_random_povm_effects_equal_the_per_outcome_draws(dim, outcomes):
    stacked_rng, loop_rng = np.random.default_rng(8), np.random.default_rng(8)
    povm = fr.random_povm(dim, outcomes, stacked_rng)
    oracle = per_outcome_random_povm_effects(dim, outcomes, loop_rng)
    np.testing.assert_array_equal(povm.effects, np.array(oracle))
    assert stacked_rng.random() == loop_rng.random()


def test_mutual_information_matches_the_per_element_loop():
    rng = np.random.default_rng(12)
    reps = [fr.z2_phase_flip_rep(), fr.quaternion_rep(), fr.cyclic_phase_rep([0, 1, 2], 4)]
    for rep in reps:
        for _ in range(4):
            ens = fr.orbit_ensemble(rep, fr.random_density_operator(rep.dim, rng))
            for povm in [fr.square_root_measurement(ens), fr.random_povm(rep.dim, rep.order, rng),
                         fr.random_povm(rep.dim, 3, rng)]:
                assert fr.mutual_information(ens, povm) == pytest.approx(
                    per_element_mutual_information(ens, povm), abs=1e-14)


def test_mutual_information_examples():
    ens = fr.orbit_ensemble(fr.z2_phase_flip_rep(), plus_state())
    trivial = fr.DiscretePOVM([np.eye(2)])
    assert fr.mutual_information(ens, trivial) == pytest.approx(0.0, abs=1e-12)
    assert fr.mutual_information(ens, pm_povm()) == pytest.approx(1.0, abs=1e-10)

    invariant = fr.DensityOperator(np.diag([0.3, 0.7]))
    ens_inv = fr.orbit_ensemble(fr.z2_phase_flip_rep(), invariant)
    rng = np.random.default_rng(1)
    assert fr.mutual_information(ens_inv, fr.random_povm(2, 3, rng)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_mutual_information_never_exceeds_log_group_order():
    rng = np.random.default_rng(2)
    rep = fr.quaternion_rep()
    for _ in range(5):
        ens = fr.orbit_ensemble(rep, fr.random_density_operator(2, rng))
        povm = fr.random_povm(2, 8, rng)
        assert fr.mutual_information(ens, povm) <= math.log2(rep.order) + 1e-9


def test_square_root_measurement():
    ens = fr.orbit_ensemble(fr.z2_phase_flip_rep(), plus_state())
    srm = fr.square_root_measurement(ens)
    assert_allclose(srm.effects[0], np.full((2, 2), 0.5), atol=1e-10)
    assert_allclose(srm.effects[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-10)

    # orthogonal orbit: SRM becomes the projective measurement onto the orbit
    rep = fr.cyclic_phase_rep([0, 1, 2, 3], 4)
    ens4 = fr.orbit_ensemble(rep, fr.PureState(np.full(4, 0.5)).projector())
    srm4 = fr.square_root_measurement(ens4)
    for effect, state in zip(srm4.effects, ens4.states):
        assert np.abs(effect - state.matrix).max() < 1e-9

    invariant = fr.DensityOperator(np.diag([0.3, 0.7]))
    srm_inv = fr.square_root_measurement(fr.orbit_ensemble(fr.z2_phase_flip_rep(), invariant))
    for effect in srm_inv.effects:
        assert_allclose(effect, np.eye(2) / 2, atol=1e-10)


def test_srm_handles_rank_deficient_average():
    # orbit supported on a 2-dim subspace of a qutrit: null space must be completed
    rep = fr.cyclic_phase_rep([0, 1, 5], 2)  # charges mod 2: {0, 1, 1}
    psi = fr.PureState(np.array([1, 1, 0]) / math.sqrt(2)).projector()
    srm = fr.square_root_measurement(fr.orbit_ensemble(rep, psi))
    assert_allclose(sum(srm.effects), np.eye(3), atol=1e-10)


def test_holevo_bound_check_examples():
    report = fr.holevo_bound_check(fr.z2_phase_flip_rep(), plus_state())
    assert report.ok
    assert report.asymmetry == pytest.approx(1.0, abs=1e-10)
    assert report.best_info == pytest.approx(1.0, abs=1e-10)  # SRM saturates
    assert report.ratio == pytest.approx(1.0, abs=1e-9)

    rep4 = fr.cyclic_phase_rep([0, 1, 2, 3], 4)
    uniform = fr.PureState(np.full(4, 0.5)).projector()
    report4 = fr.holevo_bound_check(rep4, uniform)
    assert report4.asymmetry == pytest.approx(2.0, abs=1e-10)
    assert report4.best_info <= report4.asymmetry + 1e-8

    invariant = fr.DensityOperator(np.diag([0.3, 0.7]))
    rng = np.random.default_rng(3)
    report_inv = fr.holevo_bound_check(fr.z2_phase_flip_rep(), invariant,
                                       povms=[fr.random_povm(2, 2, rng)])
    assert report_inv.best_info == pytest.approx(0.0, abs=1e-10)
    assert report_inv.ratio is None


def test_holevo_bound_over_random_orbits():
    rng = np.random.default_rng(4)
    reps = [fr.z2_phase_flip_rep(), fr.quaternion_rep(), fr.cyclic_phase_rep([0, 1], 4)]
    for rep in reps:
        for _ in range(4):
            rho = fr.random_density_operator(rep.dim, rng)
            povms = [fr.random_povm(rep.dim, rep.order, rng) for _ in range(3)]
            report = fr.holevo_bound_check(rep, rho, povms=povms)
            assert report.ok


def test_coarse_graining_never_increases_information():
    rep = fr.cyclic_phase_rep([0, 1, 2, 3], 4)
    ens = fr.orbit_ensemble(rep, fr.PureState(np.full(4, 0.5)).projector())
    srm = fr.square_root_measurement(ens)
    fine = fr.mutual_information(ens, srm)
    merged = fr.coarse_grain_povm(srm, [[0, 1], [2, 3]])
    assert fr.mutual_information(ens, merged) <= fine + 1e-9

    rng = np.random.default_rng(5)
    povm = fr.random_povm(4, 6, rng)
    coarse = fr.coarse_grain_povm(povm, [[0, 3], [1, 2], [4, 5]])
    assert fr.mutual_information(ens, coarse) <= fr.mutual_information(ens, povm) + 1e-9

    with pytest.raises(ValueError):
        fr.coarse_grain_povm(povm, [[0, 1], [2, 3]])  # not a partition


def test_holevo_chi_equals_asymmetry_for_orbits():
    rng = np.random.default_rng(6)
    for rep in (fr.z2_phase_flip_rep(), fr.quaternion_rep()):
        for _ in range(5):
            rho = fr.random_density_operator(2, rng)
            ens = fr.orbit_ensemble(rep, rho)
            chi = fr.von_neumann_entropy(ens.average()) - np.mean(
                [fr.von_neumann_entropy(s) for s in ens.states]
            )
            asym = fr.g_asymmetry(fr.TwirlOperation.finite(rep), rho).asymmetry
            assert chi == pytest.approx(asym, abs=1e-9)
