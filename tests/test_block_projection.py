"""BlockProjection against its Kraus oracle, and its input checks.

The oracle is the explicit Kraus form {U_{q,r} U_{q,s}^dag / sqrt(m_q)};
every blockwise result (dense image, adjoint, image entropy) must agree with
what the Kraus sum gives, for a dense basis and for direct sums of blocks alike.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from channel_oracle import kraus_channel
from numpy.testing import assert_allclose

import frameness as fr


def random_blocks(dim, rng):
    blocks, left = [], dim
    while left > 0:
        m = int(rng.integers(1, left + 1))
        n = int(rng.integers(1, left // m + 1))
        blocks.append((m, n))
        left -= m * n
    return blocks


def random_basis(kind, blocks, rng):
    """A dense unitary, or a direct sum: random groups of slabs on random rows (u None: the identity)."""
    dim = sum(m * n for m, n in blocks)
    if kind == "haar":
        return fr.haar_unitary(dim, rng)
    if kind == "real":
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return q
    starts = np.cumsum([0] + [m * n for m, n in blocks])
    slabs = [np.arange(s + r * n, s + (r + 1) * n) for (m, n), s in zip(blocks, starts) for r in range(m)]
    cuts = np.sort(rng.choice(np.arange(1, len(slabs)), int(rng.integers(0, len(slabs))), replace=False))
    rows, used, basis = rng.permutation(dim), 0, []
    for group in np.split(rng.permutation(len(slabs)), cuts):
        cols = np.concatenate([slabs[i] for i in group])
        u = {"direct-sum": fr.haar_unitary(cols.size, rng), "identity-blocks": np.eye(cols.size),
             "permutation": None}[kind]
        basis.append((rows[used:used + cols.size], cols, u))
        used += cols.size
    return basis


@given(st.integers(1, 8), st.sampled_from(["haar", "real", "direct-sum", "identity-blocks", "permutation"]),
       st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_blockwise_results_match_the_kraus_oracle(dim, kind, seed, pure):
    rng = np.random.default_rng(seed)
    blocks = random_blocks(dim, rng)
    basis = random_basis(kind, blocks, rng)
    proj = fr.BlockProjection(basis, blocks)
    given_blocks = [(None, None, basis)] if isinstance(basis, np.ndarray) else basis
    assert all(p[2] is g[2] for p, g in zip(proj.basis, given_blocks))  # blocks kept uncopied, dtype and all
    oracle = kraus_channel(proj)

    state = fr.random_pure_state(dim, rng) if pure else fr.random_density_operator(dim, rng)
    rho = state.projector() if pure else state
    assert_allclose(proj.apply_matrix(rho.matrix), oracle.apply_matrix(rho.matrix), atol=1e-10)
    assert proj.image_entropy(state) == pytest.approx(oracle.image_entropy(rho), abs=1e-10)

    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert_allclose(proj.adjoint_apply(a), oracle.adjoint_apply(a), atol=1e-10)
    assert_allclose(proj.apply_matrix(a), oracle.apply_matrix(a), atol=1e-10)

    assert proj.is_unital() and proj.is_idempotent()
    m = oracle.superoperator()
    assert np.abs(m @ m - m).max() <= 1e-10
    assert fr.relative_entropy_to_image(proj, rho) == pytest.approx(
        fr.relative_entropy(rho, oracle.apply(rho)), abs=1e-9)


def test_rejects_a_non_unitary_basis():
    skew = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        fr.BlockProjection(skew, [(1, 2)])
    with pytest.raises(ValueError):
        fr.conditional_expectation_channel([(1, 1), (1, 1)], skew)
    with pytest.raises(ValueError):
        fr.dephasing_channel(skew)
    bip = fr.BipartiteState(2, 2, fr.random_density_operator(4, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        fr.lifted_dephasing_channel(bip, skew)
    with pytest.raises(ValueError):
        fr.BlockProjection([(np.arange(2), np.arange(2), skew)], [(1, 2)])  # one block of a direct sum


def test_rejects_a_direct_sum_that_is_not_one():
    eye = np.eye(1)
    with pytest.raises(ValueError):  # row 0 twice, row 1 never
        fr.BlockProjection([(np.array([0]), np.array([0]), eye), (np.array([0]), np.array([1]), eye)],
                           [(1, 1), (1, 1)])
    with pytest.raises(ValueError):  # column 1 twice
        fr.BlockProjection([(np.array([0]), np.array([1]), eye), (np.array([1]), np.array([1]), eye)],
                           [(1, 1), (1, 1)])
    with pytest.raises(ValueError):  # the slab of columns 0, 1 spans two blocks
        fr.BlockProjection([(np.array([0]), np.array([0]), eye), (np.array([1]), np.array([1]), eye)],
                           [(1, 2)])
    with pytest.raises(ValueError):  # the slab of columns 0, 1 is local columns 0 and 2
        fr.BlockProjection([(np.arange(3), np.array([0, 2, 1]), np.eye(3))], [(1, 2), (1, 1)])
    with pytest.raises(fr.ShapeMismatchError):  # two rows for a 1 x 1 block
        fr.BlockProjection([(np.arange(2), np.array([0]), eye)], [(1, 1)])


def test_rejects_blocks_that_do_not_cover_the_dimension():
    with pytest.raises(fr.ShapeMismatchError):
        fr.BlockProjection(np.eye(4), [(2, 1), (1, 1)])
    with pytest.raises(fr.ShapeMismatchError):
        fr.BlockProjection([(np.arange(3), np.arange(3), np.eye(3))], [(2, 2)])
    with pytest.raises(fr.ShapeMismatchError):
        fr.conditional_expectation_channel([(1, 2)], np.eye(3))
    with pytest.raises(ValueError):
        fr.BlockProjection(np.eye(2), [(0, 1), (1, 2)])
    qutrit = fr.random_density_operator(3, np.random.default_rng(0))
    proj = fr.conditional_expectation_channel([(1, 2)])
    with pytest.raises(fr.ShapeMismatchError):
        proj.image_entropy(qutrit)


@pytest.mark.parametrize("side", ["A", "B"])
def test_lifted_dephasing_matches_the_kron_kraus_sum(side):
    rng = np.random.default_rng(4)
    bip = fr.BipartiteState(2, 3, fr.random_density_operator(6, rng))
    d_measured = 3 if side == "B" else 2
    u = fr.haar_unitary(d_measured, rng)
    eye = np.eye(6 // d_measured)
    projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(d_measured)]
    kraus = [np.kron(eye, p) if side == "B" else np.kron(p, eye) for p in projectors]
    reference = sum(k @ bip.state.matrix @ k.conj().T for k in kraus)
    lifted = fr.lifted_dephasing_channel(bip, u, side)
    assert_allclose(lifted.apply(bip.state).matrix, reference, atol=1e-12)
    assert fr.dephasing_upper_bound(bip, u, side) == pytest.approx(
        fr.von_neumann_entropy(fr.DensityOperator(reference))
        - fr.von_neumann_entropy(bip.state), abs=1e-10)


def test_entropy_gaps_build_no_kraus_channel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Kraus channel or superoperator was built")

    rng = np.random.default_rng(5)
    bip = fr.BipartiteState(2, 2, fr.random_density_operator(4, rng))
    proj = fr.conditional_expectation_channel([(2, 1), (1, 2)], fr.haar_unitary(4, rng))
    monkeypatch.setattr(fr.KrausChannel, "__init__", forbidden)
    monkeypatch.setattr(fr.KrausChannel, "superoperator", forbidden)
    monkeypatch.setattr(fr.KrausChannel, "is_idempotent", forbidden)
    assert fr.dephasing_upper_bound(bip, fr.haar_unitary(2, rng)) >= -1e-12
    assert fr.relative_entropy_to_image(proj, bip.state) >= -1e-12
    assert fr.optimize_two_qubit_bound(fr.bell_diagonal_state(0.75), grid=8).upper == pytest.approx(
        1.0 - fr.binary_entropy(0.75), abs=1e-8)


def test_twirls_hold_their_bases_uncopied():
    rep = fr.build_collective_spin_rep(4)
    su2 = fr.TwirlOperation.su2(rep)
    assert len(su2.basis) == rep.n_qubits + 1  # one block per Hamming weight
    for (rows, cols, u), (_, _, block) in zip(su2.basis, rep.weight_blocks):
        assert u is block and not np.iscomplexobj(u) and u.shape == (rows.size, cols.size)
    assert su2.blocks == tuple((2 * s.j + 1, s.multiplicity) for s in rep.sectors)
    u1 = fr.TwirlOperation.u1(fr.ChargeGrading([2, 0, 1, 0]))
    assert [rows.tolist() for rows, _, _ in u1.basis] == [[1, 3], [2], [0]]  # one block per charge
    assert all(u is None for _, _, u in u1.basis)  # permutation-only: no identity matrices
    assert u1.blocks == ((1, 2), (1, 1), (1, 1))


@pytest.mark.parametrize("build", ["u1", "conditional-expectation"])
def test_permutation_only_projection_makes_no_product(monkeypatch, build):
    from frameness import channels

    rng = np.random.default_rng(9)
    if build == "u1":
        proj = fr.TwirlOperation.u1(fr.hamming_weight_grading(4))
    else:
        proj = fr.conditional_expectation_channel([(2, 3), (1, 4), (3, 1)])
    rho, psi = fr.random_density_operator(proj.dim, rng), fr.random_pure_state(proj.dim, rng)
    oracle = kraus_channel(proj)  # the Kraus oracle multiplies; the projection does not

    def forbidden(*args):
        raise AssertionError("a permutation-only projection multiplied by a basis block")

    monkeypatch.setattr(channels, "_matmul", forbidden)
    monkeypatch.setattr(channels, "_checked_unitary", forbidden)
    image = proj.apply_matrix(rho.matrix)
    entropies = proj.image_entropy(rho), proj.image_entropy(psi)
    rebuilt = fr.BlockProjection(proj.basis, proj.blocks)
    monkeypatch.undo()
    assert_allclose(image, oracle.apply_matrix(rho.matrix), atol=1e-12)
    assert entropies[0] == pytest.approx(oracle.image_entropy(rho), abs=1e-12)
    assert entropies[1] == pytest.approx(oracle.image_entropy(psi.projector()), abs=1e-12)
    assert_allclose(rebuilt.apply_matrix(rho.matrix), image, atol=0)
    assert oracle.is_unital() and oracle.is_idempotent()


def test_dephasing_of_the_uniform_superposition():
    deph = fr.dephasing_channel(np.eye(3))
    uniform = fr.PureState(np.full(3, 1 / math.sqrt(3)))
    assert deph.image_entropy(uniform) == pytest.approx(math.log2(3), abs=1e-12)
    assert deph.image_entropy(uniform.projector()) == pytest.approx(math.log2(3), abs=1e-12)
