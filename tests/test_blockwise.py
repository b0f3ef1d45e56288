"""The blockwise u1/su2 asymmetry against the dense twirl it replaces.

The dense references below twirl straight from the definitions (a charge
mask; the change to the dense Schur basis of ``su2_oracle``, a partial trace
over the irrep factor and the way back) and stay here as oracles for
``TwirlOperation.apply_matrix`` and ``g_asymmetry``.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import frameness as fr
from su2_oracle import dense_schur_basis


@functools.lru_cache(maxsize=None)
def spin_rep(n_qubits):
    return fr.build_collective_spin_rep(n_qubits)


def dense_u1_twirl(charges, x):
    c = np.asarray(charges)
    return x * (c[:, None] == c[None, :])


def dense_su2_twirl(n_qubits, x):
    b, _, sectors = dense_schur_basis(n_qubits)
    xs = b.conj().T @ x @ b
    out = np.zeros_like(xs)
    for sec in sectors:
        width, mult = 2 * sec.j + 1, sec.multiplicity
        block = xs[sec.start:sec.stop, sec.start:sec.stop].reshape(width, mult, width, mult)
        sigma = np.einsum("mamb->ab", block)
        filled = np.einsum("mn,ab->manb", np.eye(width) / width, sigma)
        out[sec.start:sec.stop, sec.start:sec.stop] = filled.reshape(width * mult, width * mult)
    return b @ out @ b.conj().T


def random_state(dim, seed, pure, rank):
    """A pure state, or a mixed state of rank min(rank, dim) (low rank exercises the cutoff)."""
    rng = np.random.default_rng(seed)
    if pure:
        return fr.random_pure_state(dim, rng)
    rank = min(rank, dim)
    vecs = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    vecs /= np.linalg.norm(vecs, axis=0)
    weights = rng.dirichlet(np.ones(rank))
    return fr.DensityOperator((vecs * weights) @ vecs.conj().T)


def check_against_dense(tw, reference_twirl, state):
    rho = state.projector() if isinstance(state, fr.PureState) else state
    dense = tw.apply_matrix(rho.matrix)
    assert_allclose(dense, reference_twirl(rho.matrix), atol=1e-12)
    s_in = fr.von_neumann_entropy(rho)
    s_out = fr.von_neumann_entropy(fr.DensityOperator(dense))
    res = fr.g_asymmetry(tw, state)
    assert res.entropy_in == pytest.approx(s_in, abs=1e-10)
    assert res.entropy_out == pytest.approx(s_out, abs=1e-10)
    assert res.asymmetry == pytest.approx(s_out - s_in, abs=1e-10)
    assert_allclose(res.twirled_state.matrix, dense, atol=1e-12)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.integers(0, 10**6),
       st.booleans(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_u1_blockwise_matches_dense(charges, seed, pure, rank):
    tw = fr.TwirlOperation.u1(fr.ChargeGrading(charges))
    state = random_state(len(charges), seed, pure, rank)
    check_against_dense(tw, functools.partial(dense_u1_twirl, charges), state)


@given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 10**6), st.booleans(), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_su2_blockwise_matches_dense(n_qubits, seed, pure, rank):
    rep = spin_rep(n_qubits)
    state = random_state(rep.dim, seed, pure, rank)
    check_against_dense(fr.TwirlOperation.su2(rep), functools.partial(dense_su2_twirl, n_qubits), state)


@pytest.mark.parametrize("kind", ["u1", "su2"])
@pytest.mark.parametrize("pure", [False, True])
def test_no_dense_twirl_until_twirled_state_is_read(monkeypatch, kind, pure):
    if kind == "u1":
        tw = fr.TwirlOperation.u1(fr.hamming_weight_grading(6))
    else:
        tw = fr.TwirlOperation.su2(spin_rep(6))
    state = random_state(tw.dim, 7, pure, 3)

    twirl_calls, built_dims = [], []
    apply_matrix = fr.TwirlOperation.apply_matrix
    density_init = fr.DensityOperator.__init__
    projector = fr.PureState.projector

    def counting_apply(self, x):
        twirl_calls.append(1)
        return apply_matrix(self, x)

    def recording_init(self, matrix):
        built_dims.append(np.shape(matrix)[0])
        density_init(self, matrix)

    def recording_projector(self):
        built_dims.append(self.dim)
        return projector(self)

    monkeypatch.setattr(fr.TwirlOperation, "apply_matrix", counting_apply)
    monkeypatch.setattr(fr.DensityOperator, "__init__", recording_init)
    monkeypatch.setattr(fr.PureState, "projector", recording_projector)

    res = fr.g_asymmetry(tw, state)
    assert twirl_calls == []
    assert tw.dim not in built_dims
    twirled = res.twirled_state
    assert twirl_calls == [1] and twirled.dim == tw.dim
    assert res.twirled_state is twirled


@pytest.mark.parametrize("kind", ["u1", "su2"])
def test_pure_state_path_allocates_no_dense_matrix(kind):
    if kind == "u1":
        tw = fr.TwirlOperation.u1(fr.hamming_weight_grading(8))
    else:
        tw = fr.TwirlOperation.su2(spin_rep(8))
    psi = random_state(tw.dim, 11, True, 1)
    tracemalloc.start()
    try:
        fr.g_asymmetry(tw, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * tw.dim**2  # one real d x d array would already be this large


def test_finite_twirl_accepts_a_pure_state():
    plus = fr.PureState(np.array([1, 1]) / np.sqrt(2))
    tw = fr.TwirlOperation.finite(fr.z2_phase_flip_rep())
    res = fr.g_asymmetry(tw, plus)
    assert res.asymmetry == pytest.approx(1.0, abs=1e-10)
    assert abs(res.asymmetry - fr.g_asymmetry(tw, plus.projector()).asymmetry) <= 1e-13


def test_g_asymmetry_rejects_mismatched_input():
    tw = fr.TwirlOperation.su2(spin_rep(2))
    with pytest.raises(fr.ShapeMismatchError):
        fr.g_asymmetry(tw, fr.PureState(np.ones(2) / np.sqrt(2)))
    with pytest.raises(TypeError):
        fr.g_asymmetry(tw, np.eye(4) / 4)
