"""Why the asymmetry formula works: unital idempotent channels.

The identity A_G = min-distance-to-invariant-states is a special case of a
channel fact: whenever a trace-preserving map E is unital and idempotent,

    min over sigma in Image(E) of S(rho || sigma) = S(E(rho)) - S(rho),

attained at sigma = E(rho).  Twirls are one family of such channels, but not
the only one; this demo generates pinchings, finite twirls and conditional
expectations onto random block algebras, and hammers the identity with
random states.
"""

import numpy as np

import frameness as fr

rng = np.random.default_rng(42)

print("channel kind checks")
half_strength = fr.KrausChannel([np.sqrt(0.75) * np.eye(2), 0.5 * np.diag([1.0, -1.0])])
print(f"  1/2-strength dephasing: unital={half_strength.is_unital()}, "
      f"idempotent={half_strength.is_idempotent()}  (image != fixed points)")
report = fr.image_fix_equivalence_check(half_strength, samples=30, seed=0)
print(f"  re-applying moves image states by up to {report.max_refix_deviation:.3e}\n")

print("entropy-gap identity on generated unital idempotent channels")
worst_eq, worst_gap = 0.0, 0.0
for trial in range(12):
    dim = int(rng.integers(2, 9))
    ch = fr.random_unital_idempotent_channel(dim, rng)
    assert ch.is_unital() and ch.is_idempotent()
    for _ in range(20):
        rho = fr.random_density_operator(dim, rng)
        gap = fr.relative_entropy_to_image(ch, rho)
        worst_eq = max(worst_eq, abs(gap - fr.relative_entropy(rho, ch.apply(rho))))
        # no image state beats the formula
        sigma = ch.apply(fr.random_density_operator(dim, rng))
        worst_gap = max(worst_gap, gap - fr.relative_entropy(rho, sigma))
print(f"  max |gap - S(rho||E(rho))| over 240 states: {worst_eq:.3e}")
print(f"  max violation by a random image state:      {worst_gap:.3e}\n")

print("fixed points = commutant of the Kraus set (unital channels)")
deph = fr.dephasing_channel(np.eye(3))
kraus = [np.diag(e) for e in np.eye(3)]  # the dephasing's Kraus operators |k><k|


def commutes(tau):
    return all(np.allclose(tau @ k, k @ tau) for k in kraus)


diag = np.diag([0.2, 0.5, 0.3])
off = np.zeros((3, 3))
off[0, 1] = off[1, 0] = 1.0
for label, tau in (("diagonal operator commutes:", diag), ("off-diagonal operator:     ", off)):
    print(f"  {label} {commutes(tau)}, fixed: {np.allclose(deph.apply_matrix(tau), tau)}")

# the adjoint fixes every power of a fixed point
tau = deph.apply_matrix(fr.random_density_operator(3, rng).matrix)
devs = [np.abs(deph.adjoint_apply(np.linalg.matrix_power(tau, n))
               - np.linalg.matrix_power(tau, n)).max() for n in (1, 2, 3)]
print(f"  adjoint fixes tau, tau^2, tau^3 up to {max(devs):.3e}")
