"""Many copies: the log-N law and why the regularized asymmetry vanishes.

N copies of a pure state with gapless charge spectrum concentrate their total
charge like a Gaussian, so the asymmetry grows only logarithmically:

    A(N)  ~  (1/2) log2(2 pi N V) + (1/2) log2(e),

with V the per-copy charge variance.  Dividing by N kills it; the asymmetry
is not extensive, so it cannot set asymptotic conversion rates the way an
extensive resource measure would.  Three observations fill in the picture:
a group-size ceiling for finite groups (Q8's rows on a mixed qubit climb
toward 2 bits up to N = 100 while A/N falls), a design-cardinality ceiling for
compact groups, and a re-linearization 2^(2A) whose per-copy limit recovers
the variance (the quantity that does govern conversion).
"""

import math

import numpy as np

import frameness as fr

print("exact N-copy asymmetry vs the Gaussian model (per-copy Bernoulli(1/2), V = 1/4)")
report = fr.regularized_asymmetry_table([0.5, 0.5], [5, 10, 25, 50, 100, 200])
print(f"  {'N':>4} {'A_bits':>10} {'model':>10} {'gap':>10} {'A/N':>9}")
for r in report.rows:
    print(f"  {r.copies:>4} {r.asymmetry:>10.5f} {r.model_value:>10.5f} "
          f"{r.gap:>10.2e} {r.a_over_n:>9.5f}")

print("\nfinite groups: A(rho^N) never exceeds log2 |G|")
plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()
for rep, name in ((fr.z2_phase_flip_rep(), "Z2"), (fr.quaternion_rep(), "Q8")):
    table = fr.finite_group_bound_check(rep, plus, 3)
    rows = ", ".join(f"N={r.copies}: {r.asymmetry:.4f}" for r in table.rows)
    print(f"  {name} (bound {math.log2(rep.order):.0f} bits): {rows}")

mixed = fr.DensityOperator(np.array([[0.7, 0.2], [0.2, 0.3]]))
table = fr.finite_group_bound_check(fr.quaternion_rep(), mixed, 100)
print(f"  Q8 on a mixed qubit, from Schur-Weyl blocks: A stays below "
      f"{table.conjugation_bits:.0f} bits (4 distinct conjugations), so A/N -> 0")
print(f"  {'N':>4} {'A_bits':>10} {'A/N':>9}")
for r in table.rows:
    if r.copies in (1, 2, 5, 10, 20, 50, 100):
        print(f"  {r.copies:>4} {r.asymmetry:>10.5f} {r.asymmetry / r.copies:>9.5f}")

print("\ncompact groups: the symmetric-subspace design bound")
rep4 = fr.build_collective_spin_rep(4)
state = fr.maximal_asymmetry_state("su2", rep=rep4).projector()
check = fr.su2_bound_check(rep4, [state])
print(f"  4 qubits: measured A = {check.measured[0]:.4f} <= "
      f"2 log2 C(5,1) = {check.bound.exact_bits:.4f} "
      f"(asymptotic form {check.bound.asymptotic_bits:.4f})")

print("\nthe variance is NOT asymptotically continuous (witness pair)")
witness = fr.variance_discontinuity_witness([8, 16, 64, 256])
print(f"  {'n':>4} {'V(psi)':>9} {'V(phi)':>9} {'trace dist':>11} {'gap/log2(n)':>12}")
for r in witness.rows:
    print(f"  {r.n:>4} {r.variance_psi:>9.0f} {r.variance_phi:>9.0f} "
          f"{r.trace_dist:>11.5f} {r.gap_over_log:>12.2f}")
print("  the states merge while the normalized variance gap diverges")

print("\nre-linearization: L(A)/N with L(x) = 2^(2x) plateaus at 2 pi e V")
relin = fr.relinearized_monotone([0.5, 0.5], [25, 50, 100, 200])
for r in relin.rows:
    print(f"  N = {r.copies:>3}: L(A)/N = {r.per_copy:.6f}")
print(f"  target 2 pi e V = {relin.plateau_target:.6f}")
