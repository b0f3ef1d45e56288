"""Dense N-copy references: Kronecker-built tensor powers and N-copy twirls.

``tensor_power`` forms psi^(x)N as one d^N vector.  ``kronecker_bound_asymmetries``
twirls rho^(x)N with the Kronecker-built N-copy representation T(g)^(x)N as a
finite Kraus channel, one new representation and channel per N.  The package
takes the finite-group N-copy check from the single-copy orbit instead; these
are its oracles for small N.
"""

import numpy as np

import frameness as fr


def tensor_power(psi, n):
    """n-fold tensor power of a pure state, capped by the dense dimension budget."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    total = psi.dim**n
    if total > fr.max_dim():
        raise fr.ResourceLimitError(f"dim {psi.dim}**{n} = {total} exceeds cap {fr.max_dim()}")
    out = psi.amplitudes
    for _ in range(n - 1):
        out = np.kron(out, psi.amplitudes)
    return fr.PureState(out)


def kronecker_bound_asymmetries(rep, rho, n_max):
    """A_G(rho^(x)N) for N = 1..n_max by the dense twirl of the N-copy representation."""
    state, unitaries, out = rho.matrix, list(rep.unitaries), []
    for n in range(1, n_max + 1):
        if n > 1:
            state = np.kron(state, rho.matrix)
            unitaries = [np.kron(u, base) for u, base in zip(unitaries, rep.unitaries)]
        twirl = fr.TwirlOperation.finite(fr.FiniteGroupRep(rep.table, unitaries))
        out.append(fr.g_asymmetry(twirl, fr.DensityOperator(state)).asymmetry)
    return out
