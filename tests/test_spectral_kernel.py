"""states._eigh, the one eigenvector kernel: SVD inside its band, numpy's eigh outside it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameness as fr
from frameness import states
from frameness.states import INPUT_TOL, _eigh

EPS = np.finfo(float).eps
KERNEL_DIMS = (1, 2, 25, 26, 32, 63, 64)  # both sides of each band edge
ERROR_MULTIPLE = 16  # the worst of 1400 seeded draws read 4 d eps (||a|| + shift)


def _hermitian_with_spectrum(lams, rng):
    u = fr.haar_unitary(lams.shape[-1], rng)
    a = (u * lams[..., None, :]) @ u.conj().T
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from(KERNEL_DIMS), stack=st.sampled_from([(), (3,)]),
       shift=st.sampled_from([0.0, INPUT_TOL]))
def test_the_kernel_is_an_eigendecomposition_on_both_sides_of_its_band(seed, d, stack, shift):
    rng = np.random.default_rng(seed)
    # degenerate spectra, and with a shift eigenvalues down to -shift: a + shift I stays PSD
    lams = rng.choice([0.0, 0.25, 1.0], stack + (d,)) * rng.choice([1e-3, 1.0, 1e3])
    lams[rng.random(lams.shape) < 0.25] = -shift
    a = _hermitian_with_spectrum(lams, rng)
    w, v = _eigh(a, shift)
    assert w.shape == stack + (d,) and v.shape == stack + (d, d)
    assert (np.diff(w, axis=-1) >= 0).all()  # ascending
    tol = ERROR_MULTIPLE * d * EPS * (np.abs(lams).max() + shift)
    assert np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(d)).max() <= ERROR_MULTIPLE * d * EPS
    assert np.abs((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - a).max() <= tol
    assert np.abs(w - np.linalg.eigh(a)[0]).max() <= tol


def _band_sites(rng):
    """The values of every site that solves through _eigh, at d = 32, from one seeded draw."""
    d = 32
    u = fr.haar_unitary(d, rng)
    rho = fr.random_density_operator(d, rng)
    pinch = fr.pinching_channel([u[:, k:k + 8] @ u[:, k:k + 8].conj().T for k in range(0, d, 8)])
    charges = rng.integers(0, 5, d)
    twirl = fr.twirl_channel([(u * np.exp(2j * np.pi * k * charges / 5)) @ u.conj().T for k in range(5)])
    psi = fr.PureState(u[:, 0]).projector()  # S has rank 4: the null completion is exercised
    povm_seed = int(rng.integers(0, 2**32))
    return {
        "pinching": pinch.apply(rho).matrix,
        "relative_entropy": fr.relative_entropy(rho, pinch.apply(rho)),
        "square_root_measurement": fr.square_root_measurement(
            fr.orbit_ensemble(fr.cyclic_phase_rep(np.arange(d) % 4, 4), psi)).effects,
        "random_povm": fr.random_povm(d, 3, np.random.default_rng(povm_seed)).effects,
        # a twirl build is certified to COMPOSED_TOL: its two bases agree to 2e-13 on states,
        # 2.5e-12 on a Hermitian X with entries near 3
        "twirl_channel": twirl.apply(rho).matrix,
    }


def test_no_site_calls_eigh_inside_the_band(monkeypatch):
    eigh_values = []
    for seed in range(3):
        with monkeypatch.context() as m:
            m.setattr(states, "_EIGH_DC_DIM", 10**9)  # the kernel takes numpy's eigh at every d
            eigh_values.append(_band_sites(np.random.default_rng(seed)))
    original = np.linalg.eigh

    def guarded(a, *args, **kwargs):
        if 26 <= np.shape(a)[-1] < 64:
            raise AssertionError(f"numpy.linalg.eigh called at d = {np.shape(a)[-1]}")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", guarded)
    for seed, expected in enumerate(eigh_values):
        for site, value in _band_sites(np.random.default_rng(seed)).items():
            assert np.abs(np.asarray(value) - expected[site]).max() <= 1e-12, site


def test_a_projector_with_eigenvalue_minus_one_is_refused_inside_the_band():
    # as singular values, P reads as a rank-8 projector and [P, Q] as a complete family
    d = 32
    u = fr.haar_unitary(d, np.random.default_rng(5))
    p = (u[:, :8] * np.array([-1.0] + [1.0] * 7)) @ u[:, :8].conj().T
    q = u[:, 8:] @ u[:, 8:].conj().T
    with pytest.raises(ValueError, match=r"^projector 0 has an eigenvalue 1\.000e\+00 away from 0 and 1$"):
        fr.pinching_channel([p, q])
