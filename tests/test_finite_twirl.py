"""The finite-group twirl as a certified block projection, against its Kraus oracle.

``twirl_channel`` builds the projection onto the commutant of the group's
action from one seeded draw and certifies it against the orbit average; the
|G|-term Kraus sum ``kraus_twirl`` in ``channel_oracle`` is the reference.
"""

import itertools

import numpy as np
import pytest

import frameness as fr
from channel_oracle import kraus_twirl
from frameness import cli


def kron_power(us, n):
    out = us
    for _ in range(n - 1):
        out = [np.kron(a, b) for a, b in zip(out, us)]
    return out


def qubit_permutations(n):
    """S_n permuting n qubits: one permutation matrix per element."""
    mats = []
    for perm in itertools.permutations(range(n)):
        m = np.zeros((2**n, 2**n))
        for i in range(2**n):
            bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
            m[sum(bits[perm[k]] << (n - 1 - k) for k in range(n)), i] = 1.0
        mats.append(m)
    return mats


def phase_twirl_unitaries(d, order, seed):
    rng = np.random.default_rng(seed)
    u = fr.haar_unitary(d, rng)
    charges = rng.integers(0, order, d)
    return [(u * np.exp(2j * np.pi * k * charges / order)) @ u.conj().T for k in range(order)]


Q8 = list(fr.quaternion_rep().unitaries)
REPRESENTATIONS = {
    "q8-x-i3": [np.kron(u, np.eye(3)) for u in Q8],
    "q8-pow3": kron_power(Q8, 3),
    "q8-pow4": kron_power(Q8, 4),
    "s3-on-3-qubits": qubit_permutations(3),
    "cyclic-phase": list(fr.cyclic_phase_rep([0, 1, 1, 2, 5], 4).unitaries),
    **{f"phase5-d{d}": phase_twirl_unitaries(d, 5, d) for d in (8, 16, 24, 32)},
}


@pytest.mark.parametrize("name", REPRESENTATIONS)
def test_twirl_matches_the_kraus_oracle(name):
    us = REPRESENTATIONS[name]
    ch, oracle = fr.twirl_channel(us), kraus_twirl(us)
    assert isinstance(ch, fr.BlockProjection)
    assert sum(m * n for m, n in ch.blocks) == ch.dim == oracle.dim
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = fr.random_density_operator(ch.dim, rng)
        assert np.abs(ch.apply_matrix(rho.matrix) - oracle.apply_matrix(rho.matrix)).max() <= 1e-12
        assert abs(ch.image_entropy(rho) - oracle.image_entropy(rho)) <= 1e-12


@pytest.mark.parametrize("name", ["q8-x-i3", "s3-on-3-qubits", "phase5-d32"])
def test_pure_state_and_its_projector_give_one_asymmetry(name):
    us = REPRESENTATIONS[name]
    tw = fr.TwirlOperation.finite(fr.finite_group_from_unitaries(us))
    assert isinstance(tw, fr.BlockProjection)
    oracle, rng = kraus_twirl(us), np.random.default_rng(8)
    for _ in range(5):
        psi = fr.random_pure_state(tw.dim, rng)
        pure = fr.g_asymmetry(tw, psi).asymmetry
        assert abs(pure - fr.g_asymmetry(tw, psi.projector()).asymmetry) <= 1e-13
        assert abs(pure - oracle.image_entropy(psi.projector())) <= 1e-12


def test_builds_are_deterministic():
    us = REPRESENTATIONS["s3-on-3-qubits"]
    a, b = fr.twirl_channel(us), fr.twirl_channel(us)
    assert a.blocks == b.blocks == ((1, 4), (2, 2))
    assert a.basis[0][2].tobytes() == b.basis[0][2].tobytes()


@pytest.mark.parametrize("unitaries", [
    [np.eye(2), np.eye(2), np.diag([1.0, -1.0])],  # not a uniform multiset of {I, Z}
    [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])],  # {I, X, Z} is not closed
], ids=["I-I-Z", "I-X-Z"])
def test_a_list_that_is_not_a_group_is_rejected_at_construction(unitaries):
    with pytest.raises(fr.FramenessError, match="deviates from the orbit average by .*not a group"):
        fr.twirl_channel(unitaries)
    assert not kraus_twirl(unitaries).is_idempotent()  # the Kraus sum it would have been


def test_a_uniform_multiset_of_a_group_is_its_twirl():
    z = np.diag([1.0, -1.0])
    ch = fr.twirl_channel([np.eye(2), z, np.eye(2), z])
    x = fr.random_hermitian(2, np.random.default_rng(9))
    assert np.abs(ch.apply_matrix(x) - np.diag(np.diag(x))).max() <= 1e-15


def test_twirl_rejects_a_ragged_stack():
    with pytest.raises(fr.ShapeMismatchError):
        fr.twirl_channel([np.eye(2)[:, :1]])
    with pytest.raises(fr.ShapeMismatchError):
        fr.twirl_channel([])


def test_random_channel_twirl_branch_is_a_block_projection():
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(0, 3) == 1)
    ch = fr.random_unital_idempotent_channel(5, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)  # replay the twirl branch's draws
    rng.integers(0, 3)
    u = fr.haar_unitary(5, rng)
    order = int(rng.integers(2, 9))
    charges = rng.integers(0, order, size=5)
    gens = [u @ np.diag(np.exp(2j * np.pi * k * charges / order)) @ u.conj().T for k in range(order)]
    assert isinstance(ch, fr.BlockProjection)
    x = fr.random_hermitian(5, rng)
    assert np.abs(ch.apply_matrix(x) - kraus_twirl(gens).apply_matrix(x)).max() <= 1e-12


def _verify_twirl_check(seed):
    return dict(cli._verify_checks(seed))["twirl_channels_unital_idempotent"]


def test_verify_twirl_check_tests_the_structure_not_a_kraus_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the twirl check built a Kraus form")

    monkeypatch.setattr(fr.KrausChannel, "__init__", forbidden)
    ok, detail = _verify_twirl_check(0)()
    assert ok and "max |E(E(X)) - E(X)|" in detail


def test_verify_twirl_check_fails_a_twirl_that_is_not_idempotent(monkeypatch):
    apply = fr.TwirlOperation.apply_matrix
    # unital, but E(E(X)) - E(X) = (E(X) - X) / 4
    monkeypatch.setattr(fr.TwirlOperation, "apply_matrix", lambda self, x: 0.5 * (x + apply(self, x)))
    ok, detail = _verify_twirl_check(0)()
    assert not ok and "max |E(I) - I| " in detail
