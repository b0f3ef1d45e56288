"""States of maximal asymmetry.

For U(1) the best token of a phase reference spreads uniformly over the
available charges: A = log2(n_max + 1).  For the collective SU(2) action on
N qubits the Hilbert space splits into total-spin sectors

    H = sum over j of  M_j (x) N_j,

with irrep blocks M_j of size 2j+1 and multiplicity blocks N_j whose size
follows a binomial closed form.  The best token balances the sectors with
weight (2j+1) d_j, d_j = min(2j+1, dim N_j), and its asymmetry hits

    log2( (4/3) j_max^3 + (5/3) j_max + 1 ).

This demo builds the Schur bases (one real orthogonal block per Hamming
weight), constructs the extremal states, and checks the measured asymmetries
against the closed forms.
"""

import math

import numpy as np

import frameness as fr

print("U(1): uniform superpositions over charges 0..n_max")
for n_max in (1, 3, 7, 15):
    grading = fr.ChargeGrading(list(range(n_max + 1)))
    state = fr.maximal_asymmetry_state("u1", n_max=n_max)
    measured = fr.g_asymmetry(fr.TwirlOperation.u1(grading), state.projector()).asymmetry
    print(f"  n_max = {n_max:2d}: A = {measured:.9f}   "
          f"log2(n_max + 1) = {math.log2(n_max + 1):.9f}")

print("\ncollective SU(2): sector structure and the extremal state")
for n_qubits in (2, 4, 6):
    rep = fr.build_collective_spin_rep(n_qubits)
    mults = {s.j: s.multiplicity for s in sorted(rep.sectors, key=lambda s: s.j)}
    print(f"  N = {n_qubits}: multiplicities by j: {mults} "
          f"(total dim {sum((2 * j + 1) * m for j, m in mults.items())})")

for n_qubits in (2, 4):
    rep = fr.build_collective_spin_rep(n_qubits)
    state = fr.maximal_asymmetry_state("su2", rep=rep)
    measured = fr.g_asymmetry(fr.TwirlOperation.su2(rep), state.projector()).asymmetry
    closed = fr.max_su2_asymmetry_value(n_qubits // 2)
    print(f"  N = {n_qubits}: measured A = {measured:.9f}   closed form = {closed:.9f}")

print("\nthe pure-state sector formula, on a random four-qubit state")
rep = fr.build_collective_spin_rep(4)
rng = np.random.default_rng(3)
psi = fr.random_pure_state(16, rng)

# Schur coordinates, one Hamming-weight block at a time: coords[cols] = u^T psi[rows]
coords = np.zeros(rep.dim, dtype=complex)
for rows, cols, u in rep.weight_blocks:
    coords[cols] = u.T @ psi.amplitudes[rows]
p = np.zeros(rep.j_max + 1)
q = [None] * rep.j_max
for sec in rep.sectors:
    block = coords[sec.start:sec.stop].reshape(2 * sec.j + 1, sec.multiplicity)
    p[sec.j] = np.linalg.norm(block) ** 2
    if sec.j < rep.j_max:
        svals = np.linalg.svd(block, compute_uv=False)
        q[sec.j] = svals**2 / p[sec.j]

formula = fr.su2_pure_asymmetry_closed_form(p, q, rep.j_max)
measured = fr.g_asymmetry(fr.TwirlOperation.su2(rep), psi.projector()).asymmetry
print(f"  sector weights p_j = {np.round(p, 4)}")
print(f"  formula: {formula:.9f}   twirl route: {measured:.9f}")
