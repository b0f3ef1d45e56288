"""Twirling and the asymmetry it measures.

A state that is not invariant under a group action can stand in for a missing
reference frame.  How good a token is it?  The natural geometric answer is
the relative-entropy distance to the nearest invariant state, and the punch
line of this demo is that the distance needs no optimization at all: it
equals the entropy the twirl adds,

    A_G(rho) = S(G(rho)) - S(rho),

and the nearest invariant state is the twirled state itself.  We check that
identity three times (a finite group, a phase reference, a Cartesian frame)
and then let a brute-force minimizer try to beat it.
"""

import math

import numpy as np

import frameness as fr

np.set_printoptions(precision=4, suppress=True)

# --- a finite group: Z2 acting on a qubit as {I, Z} -----------------------

rep = fr.z2_phase_flip_rep()
twirl = fr.TwirlOperation.finite(rep)
plus = fr.PureState(np.array([1, 1]) / math.sqrt(2)).projector()

res = fr.g_asymmetry(twirl, plus)
print("Z2 phase flip on |+><+|")
print("  twirled state:\n", res.twirled_state.matrix.real)
print(f"  entropy in/out: {res.entropy_in:.6f} / {res.entropy_out:.6f}")
print(f"  asymmetry A = {res.asymmetry:.6f} bits")
print(f"  S(rho || G(rho)) = {fr.relative_entropy(plus, res.twirled_state):.6f} bits")

# the minimization over invariant states cannot do better: try twirls of
# random states, and their mixtures with G(rho)
rng = np.random.default_rng(1)
best = fr.relative_entropy(plus, res.twirled_state)
for _ in range(200):
    sigma = twirl.apply(fr.random_density_operator(2, rng)).matrix
    lam = rng.uniform(0.05, 0.95)
    for tau in (sigma, lam * sigma + (1 - lam) * res.twirled_state.matrix):
        best = min(best, fr.relative_entropy(plus, fr.DensityOperator(tau)))
print(f"  brute-force min over invariant states: {best:.6f}\n")

# --- a phase reference: U(1) acting through charge sectors ----------------

grading = fr.ChargeGrading([0, 1, 2, 3])
twirl_u1 = fr.TwirlOperation.u1(grading)
uniform = fr.PureState(np.full(4, 0.5)).projector()

res = fr.g_asymmetry(twirl_u1, uniform)
print("U(1) pinching of the uniform superposition over charges 0..3")
print(f"  asymmetry A = {res.asymmetry:.6f} bits (the ceiling log2(4) = 2)")
print(f"  closed form H(p) - S(rho) = "
      f"{fr.u1_asymmetry_closed_form(grading, uniform):.6f}\n")

# a number eigenstate carries no phase information at all
eigenstate = fr.DensityOperator(np.diag([0.0, 1.0, 0.0, 0.0]))
print(f"  number eigenstate: A = "
      f"{fr.g_asymmetry(twirl_u1, eigenstate).asymmetry:.2e}\n")

# --- a Cartesian frame: collective SU(2) on two qubits --------------------

rep2 = fr.build_collective_spin_rep(2)
twirl_su2 = fr.TwirlOperation.su2(rep2)

singlet = np.zeros(4)
singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)

best = np.zeros(4)
best[0] = math.sqrt(3) / 2          # a triplet component ...
best += 0.5 * singlet               # ... plus a singlet component
optimal = fr.PureState(best).projector()

print("collective SU(2) on two qubits")
print(f"  singlet (rotationally invariant): A = "
      f"{fr.g_asymmetry(twirl_su2, fr.PureState(singlet).projector()).asymmetry:.2e}")
print(f"  sqrt(3)/2 |triplet> + 1/2 |singlet>: A = "
      f"{fr.g_asymmetry(twirl_su2, optimal).asymmetry:.6f} bits (the two-qubit maximum)")

# every twirl is a block projection: unital, idempotent, image = fixed points
for name, tw in (("Z2", twirl), ("U(1)", twirl_u1), ("SU(2)", twirl_su2)):
    report = fr.image_fix_equivalence_check(tw, samples=25, seed=0)
    print(f"  {name}: unital={tw.is_unital()}, idempotent={tw.is_idempotent()}, "
          f"image=fix consistent={report.consistent}")
