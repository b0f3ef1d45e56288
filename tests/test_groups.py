import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import frameness as fr
import frameness.groups
from stack_oracle import per_product_group_table, per_product_homomorphism_deviation
from su2_oracle import collective_rotation, dense_collective_ops, dense_schur_basis, scattered_basis


def test_z2_rep_is_valid():
    report = fr.validate_finite_rep(fr.z2_phase_flip_rep())
    assert report.ok


def test_broken_associativity_is_reported_with_a_triple():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 2]]  # tampered Z3 table
    rep = fr.FiniteGroupRep(table, [np.eye(2, dtype=complex)] * 3)
    report = fr.validate_finite_rep(rep)
    assoc = [i for i in report.issues if i.kind == "associativity"]
    assert assoc and "g" in assoc[0].detail


def test_non_unitary_element_is_flagged():
    rep = fr.FiniteGroupRep([[0, 1], [1, 0]], [np.eye(2), np.diag([1.0, 2.0])])
    report = fr.validate_finite_rep(rep)
    assert any(i.kind == "unitarity" for i in report.issues)


def test_homomorphism_violation_is_flagged():
    rep = fr.FiniteGroupRep([[0, 1], [1, 0]], [np.eye(2), np.diag([1.0, 1j])])
    report = fr.validate_finite_rep(rep)
    assert any(i.kind == "homomorphism" for i in report.issues)


def test_group_order_cap():
    with pytest.raises(fr.ResourceLimitError):
        fr.FiniteGroupRep(np.zeros((65, 65), dtype=int), [np.eye(2)] * 65)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_unitary_entries_are_rejected(bad):
    # a NaN deviation fails every "> INPUT_TOL" test, so validation alone would call it valid
    with pytest.raises(fr.RepresentationError, match=r"T\(g1\) has a non-finite entry"):
        fr.FiniteGroupRep([[0, 1], [1, 0]], [np.eye(2), np.diag([bad, 1.0])])


def test_unitaries_are_one_read_only_stack():
    rep = fr.quaternion_rep()
    assert isinstance(rep.unitaries, np.ndarray) and rep.unitaries.shape == (8, 2, 2)
    assert rep.unitaries.dtype == complex and not rep.unitaries.flags.writeable
    given = [np.eye(2), np.diag([1.0, -1.0])]
    rep = fr.FiniteGroupRep([[0, 1], [1, 0]], given)
    given[1][0, 0] = 5.0  # the stack is a copy
    assert_allclose(rep.unitaries, [np.eye(2), np.diag([1.0, -1.0])], rtol=0, atol=0)
    assert fr.FiniteGroupRep(rep.table, rep.unitaries).unitaries.shape == (2, 2, 2)


@pytest.mark.parametrize("unitaries, message", [
    ([np.eye(2), np.eye(3)], r"unitaries must share one square shape, got \{\(2, 2\), \(3, 3\)\}|"
                             r"unitaries must share one square shape, got \{\(3, 3\), \(2, 2\)\}"),
    ([np.ones((2, 3)), np.ones((2, 3))], r"unitaries must share one square shape, got \{\(2, 3\)\}"),
    ([np.eye(2)], r"1 unitaries for a table of order 2"),
])
def test_malformed_unitaries_keep_their_messages(unitaries, message):
    with pytest.raises(fr.RepresentationError, match=message):
        fr.FiniteGroupRep([[0, 1], [1, 0]], unitaries)


def test_from_unitaries_requires_closure():
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    with pytest.raises(fr.RepresentationError):
        fr.finite_group_from_unitaries([np.eye(2), rot])


GROUP_REPS = [fr.z2_phase_flip_rep, fr.quaternion_rep] + [
    (lambda m=m: fr.cyclic_phase_rep([0, 1, 3], m)) for m in range(2, 7)]


@pytest.mark.parametrize("stack_entries", [None, 40])
@pytest.mark.parametrize("make_rep", GROUP_REPS)
def test_stacked_table_equals_the_per_product_loop(monkeypatch, make_rep, stack_entries):
    if stack_entries is not None:  # a few pairs per block
        monkeypatch.setattr(frameness.groups, "_STACK_ENTRIES", stack_entries)
    rep = make_rep()
    table = fr.finite_group_from_unitaries(rep.unitaries).table
    np.testing.assert_array_equal(table, per_product_group_table(rep.unitaries))
    np.testing.assert_array_equal(table, rep.table)


@pytest.mark.parametrize("stack_entries", [None, 40])
def test_a_set_that_is_not_closed_names_the_loops_first_product(monkeypatch, stack_entries):
    if stack_entries is not None:
        monkeypatch.setattr(frameness.groups, "_STACK_ENTRIES", stack_entries)
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    for us in ([np.eye(2), z, x], [np.eye(2), np.eye(2)], [np.eye(2), z, -np.eye(2), 1j * x]):
        with pytest.raises(fr.RepresentationError) as oracle:
            per_product_group_table(us)
        with pytest.raises(fr.RepresentationError, match=str(oracle.value).replace("(", "\\(")
                           .replace(")", "\\)")):
            fr.finite_group_from_unitaries(us)


@pytest.mark.parametrize("stack_entries", [None, 40])
def test_homomorphism_report_names_the_loops_first_worst_pair(monkeypatch, stack_entries):
    if stack_entries is not None:  # the tied worst pairs fall in different blocks
        monkeypatch.setattr(frameness.groups, "_STACK_ENTRIES", stack_entries)
    rep = fr.quaternion_rep()
    us = list(rep.unitaries)
    us[3] = -us[3]  # still unitary: the homomorphism law breaks by exactly 2 at 12 pairs
    us[6] = us[6] * np.exp(-0.01j)
    broken = fr.FiniteGroupRep(rep.table, us)
    worst, (i, j) = per_product_homomorphism_deviation(broken)
    issues = fr.validate_finite_rep(broken).issues
    assert [issue.kind for issue in issues] == ["homomorphism"]
    assert issues[0].detail == f"T(g{i})T(g{j}) != T(g{i} g{j})"
    assert issues[0].deviation == worst


def test_quaternion_rep_is_a_nonabelian_order_8_group():
    rep = fr.quaternion_rep()
    assert rep.order == 8
    assert fr.validate_finite_rep(rep).ok
    assert any(rep.table[i, j] != rep.table[j, i] for i in range(8) for j in range(8))


def test_cyclic_phase_rep_is_valid():
    rep = fr.cyclic_phase_rep([0, 1, 2, 3], 4)
    assert fr.validate_finite_rep(rep).ok


@pytest.mark.parametrize("charges", [[0, 1.5], [0, True], [0.5, 1]])
def test_cyclic_phase_rep_rejects_non_integer_charges(charges):
    with pytest.raises(fr.RepresentationError, match="charges must be integers"):
        fr.cyclic_phase_rep(charges, 2)


def test_cyclic_phase_rep_accepts_integer_valued_floats():
    for u, v in zip(fr.cyclic_phase_rep([0.0, 3.0], 4).unitaries, fr.cyclic_phase_rep([0, 3], 4).unitaries):
        np.testing.assert_array_equal(u, v)


def test_charge_sector_projectors():
    qubit = fr.ChargeGrading([0, 1])
    p0, p1 = qubit.sector_projectors()
    assert_allclose(p0, np.diag([1.0, 0.0]))
    assert_allclose(p1, np.diag([0.0, 1.0]))

    rank2 = fr.ChargeGrading([0, 1, 1])
    projs = rank2.sector_projectors()
    assert np.trace(projs[1]) == pytest.approx(2.0)

    for projs, grading in ((projs, rank2),):
        total = sum(projs)
        assert_allclose(total, np.eye(grading.dim))
        for p in projs:
            assert_allclose(p @ p, p, atol=1e-15)


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_hamming_grading_ranks_match_counting(n_qubits):
    grading = fr.hamming_weight_grading(n_qubits)
    projs = grading.sector_projectors()
    # counting oracle over basis strings
    counts = [sum(1 for b in range(2**n_qubits) if bin(b).count("1") == w)
              for w in range(n_qubits + 1)]
    assert [int(round(np.trace(p).real)) for p in projs] == counts
    assert counts == [math.comb(n_qubits, w) for w in range(n_qubits + 1)]


def test_hamming_weights_match_bit_counts():
    for n_qubits in (1, 5, 12):
        charges = fr.hamming_weight_grading(n_qubits).charges
        assert charges.tolist() == [bin(b).count("1") for b in range(2**n_qubits)]


def test_multiplicity_dimension_closed_form():
    # independent evaluation of the closed form
    def oracle(n, j):
        return math.comb(n, n // 2 - j) * (2 * j + 1) // (n // 2 + j + 1)

    assert fr.multiplicity_dimension(4, 1) == oracle(4, 1) == 3
    assert fr.multiplicity_dimension(2, 1) == oracle(2, 1) == 1
    for n in (2, 4, 6, 8):
        assert fr.multiplicity_dimension(n, n // 2) == 1
    with pytest.raises(ValueError):
        fr.multiplicity_dimension(4, 3)
    with pytest.raises(ValueError):
        fr.multiplicity_dimension(3, 1)


def test_symmetric_subspace_dimension():
    assert fr.symmetric_subspace_dimension(4, 2) == 5
    assert fr.symmetric_subspace_dimension(1, 7) == 7
    assert fr.symmetric_subspace_dimension(2, 3) == 6


def test_collective_rep_caps():
    with pytest.raises(ValueError):
        fr.build_collective_spin_rep(3)
    with pytest.raises(fr.ResourceLimitError):
        fr.build_collective_spin_rep(14)


def test_two_qubit_schur_sectors():
    rep = fr.build_collective_spin_rep(2)
    assert [(s.j, s.multiplicity) for s in rep.sectors] == [(1, 1), (0, 1)]
    # j = 0 sector is spanned by the singlet
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    col = scattered_basis(rep)[:, rep.sector(0).start]
    assert abs(np.dot(col, singlet)) == pytest.approx(1.0, abs=1e-10)


def test_four_qubit_multiplicities_match_numeric_eigenspaces():
    rep = fr.build_collective_spin_rep(4)
    assert {s.j: s.multiplicity for s in rep.sectors} == {0: 2, 1: 3, 2: 1}
    # independent oracle: count dense J^2 eigenvalues j(j+1)
    ops = dense_collective_ops(4)
    j2 = ops["x"] @ ops["x"] + ops["y"] @ ops["y"] + ops["z"] @ ops["z"]
    evals = np.round(np.linalg.eigvalsh(j2), 6)
    for j in (0, 1, 2):
        count = int((evals == j * (j + 1)).sum())
        assert count == (2 * j + 1) * fr.multiplicity_dimension(4, j)


@pytest.mark.parametrize("n_qubits", [2, 4, 6])
def test_schur_basis_is_orthonormal_and_complete(n_qubits):
    basis, _, sectors = dense_schur_basis(n_qubits)
    dim = 2**n_qubits
    assert sum((2 * s.j + 1) * s.multiplicity for s in sectors) == dim
    gram = basis.T @ basis
    assert np.abs(gram - np.eye(dim)).max() < 1e-8
    rep = fr.build_collective_spin_rep(n_qubits)
    for rows, _, u in rep.weight_blocks:
        assert u.shape == (rows.size, rows.size)
        assert np.abs(u.T @ u - np.eye(rows.size)).max() < 1e-8


@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
def test_weight_blocks_match_the_dense_schur_basis(n_qubits):
    basis, labels, sectors = dense_schur_basis(n_qubits)
    rep = fr.build_collective_spin_rep(n_qubits)
    assert rep.labels == labels and rep.sectors == sectors
    weights = np.array([bin(b).count("1") for b in range(rep.dim)])
    built = scattered_basis(rep)
    for k, (rows, cols, u) in enumerate(rep.weight_blocks):
        assert u.dtype == np.float64
        assert rows.tolist() == np.flatnonzero(weights == k).tolist()
        # columns by j descending, then alpha, all at m = N/2 - k
        assert [labels[c] for c in cols] == sorted((labels[c] for c in cols), key=lambda l: (-l[0], l[2]))
        assert {labels[c][1] for c in cols} == {n_qubits // 2 - k}
    # the bases differ by one orthogonal change of the multiplicity label per sector, the same at every m
    for s in sectors:
        top = slice(s.start, s.start + s.multiplicity)  # m = j
        rotation = basis[:, top].T @ built[:, top]
        assert np.abs(rotation.T @ rotation - np.eye(s.multiplicity)).max() < 1e-13
        for start in range(s.start, s.stop, s.multiplicity):
            cols = slice(start, start + s.multiplicity)
            assert np.abs(basis[:, cols] @ rotation - built[:, cols]).max() < 1e-13


def _raising_block(rows_from, rows_to, n_qubits):
    """J+ from the strings ``rows_from`` of weight k to ``rows_to`` of weight k - 1 (|0> = spin up)."""
    position = {b: i for i, b in enumerate(rows_to.tolist())}
    block = np.zeros((rows_to.size, rows_from.size))
    for c, b in enumerate(rows_from.tolist()):
        for q in range(n_qubits):
            if b >> q & 1:  # J+ flips a down spin up
                block[position[b ^ 1 << q], c] = 1.0
    return block


@pytest.mark.parametrize("n_qubits", [10, 12])
def test_weight_blocks_are_orthogonal_spin_ladders_without_a_dense_basis(n_qubits):
    rep = fr.build_collective_spin_rep(n_qubits)
    blocks = rep.weight_blocks
    index = {label: k for k, label in enumerate(rep.labels)}
    for k, (rows, cols, u) in enumerate(blocks):
        assert np.abs(u.T @ u - np.eye(rows.size)).max() < 1e-13
        labels = [rep.labels[c] for c in cols]
        if 0 < k <= n_qubits // 2:  # J+ kills the highest weights m = j
            top = [i for i, (j, m, _) in enumerate(labels) if m == j]
            raised = _raising_block(rows, blocks[k - 1][0], n_qubits) @ u[:, top]
            assert np.abs(raised).max() < 1e-13
        if k < n_qubits:  # J- = J+^T lowers (j, m, alpha) to (j, m - 1, alpha)
            rows_next, cols_next, u_next = blocks[k + 1]
            below = {c: i for i, c in enumerate(cols_next.tolist())}
            lowered = _raising_block(rows_next, rows, n_qubits).T @ u
            for i, (j, m, alpha) in enumerate(labels):
                target = np.zeros(rows_next.size)
                if m > -j:
                    target = math.sqrt(j * (j + 1) - m * (m - 1)) * u_next[:, below[index[(j, m - 1, alpha)]]]
                assert np.abs(lowered[:, i] - target).max() < 1e-13


def test_building_the_rep_calls_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="numpy.linalg called"):
        np.linalg.eigh(np.eye(2))
    for n_qubits in range(2, 13, 2):
        fr.build_collective_spin_rep(n_qubits)


def test_building_the_rep_allocates_no_dense_basis():
    n_qubits = 10
    fr.build_collective_spin_rep(n_qubits)  # warm any lazy imports
    tracemalloc.start()
    try:
        fr.build_collective_spin_rep(n_qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**n_qubits  # one real d x d array would already be this large


@pytest.mark.parametrize("n_qubits", [2, 4])
def test_schur_vectors_are_joint_eigenvectors(n_qubits):
    basis, labels, _ = dense_schur_basis(n_qubits)
    ops = dense_collective_ops(n_qubits)
    j2 = ops["x"] @ ops["x"] + ops["y"] @ ops["y"] + ops["z"] @ ops["z"]
    jz = ops["z"]
    for k, (j, m, _alpha) in enumerate(labels):
        v = basis[:, k]
        assert np.abs(j2 @ v - j * (j + 1) * v).max() < 1e-8
        assert np.abs(jz @ v - m * v).max() < 1e-8


def test_lowering_operator_ladder_consistency():
    for n_qubits in (2, 4, 6):
        ops = dense_collective_ops(n_qubits)
        jp = (ops["x"] + 1j * ops["y"]).real  # exact 0/1 entries
        rep = fr.build_collective_spin_rep(n_qubits)
        basis = scattered_basis(rep)
        index = {label: k for k, label in enumerate(rep.labels)}
        for (j, m, alpha), k in index.items():
            raised = jp @ basis[:, k]
            if m == j:
                assert np.abs(raised).max() < 1e-13
            else:
                target = math.sqrt(j * (j + 1) - m * (m + 1)) * basis[:, index[(j, m + 1, alpha)]]
                assert np.abs(raised - target).max() < 1e-13
            if m == -j:
                continue
            lowered = jp.T @ basis[:, k]
            target = math.sqrt(j * (j + 1) - m * (m - 1)) * basis[:, index[(j, m - 1, alpha)]]
            assert np.abs(lowered - target).max() < 1e-13


def test_collective_rotations_preserve_sectors():
    basis, _, sectors = dense_schur_basis(4)
    rng = np.random.default_rng(11)
    u = collective_rotation(4, rng.uniform(-2, 2, size=3))
    for s in sectors:
        cols = basis[:, s.start:s.stop]
        proj = cols @ cols.T
        rotated = u @ cols.astype(complex)
        assert np.abs(proj @ rotated - rotated).max() < 1e-8


def test_rep_json_round_trips():
    rep = fr.z2_phase_flip_rep()
    back = fr.finite_rep_from_json(json.loads(json.dumps(fr.finite_rep_to_json(rep))))
    assert back.order == 2
    assert fr.validate_finite_rep(back).ok

    grading = fr.ChargeGrading([0, 1, 1, 2])
    back_g = fr.charge_grading_from_json(json.loads(json.dumps(fr.charge_grading_to_json(grading))))
    assert list(back_g.charges) == [0, 1, 1, 2]

    with pytest.raises(fr.RepresentationError):
        fr.charge_grading_from_json({"dim": 5, "charges": [0, 1]})
    with pytest.raises(fr.RepresentationError):
        fr.ChargeGrading([0, -1])
