"""Dense N-copy references: Kronecker-built tensor powers and N-copy twirls.

``tensor_power`` forms psi^(x)N as one d^N vector.  ``kronecker_bound_asymmetries``
twirls rho^(x)N with the Kronecker-built N-copy representation T(g)^(x)N as the
|G|-term Kraus sum, one new channel per N.  The package takes the finite-group
N-copy check from the single-copy orbit instead; these are its oracles for
small N.  For a qubit at N in the tens,
``mp_bound_asymmetries`` takes the Schur-Weyl blocks at 50 digits, with
Sym^n built by the monomial recursion rather than the package's Euler form.
"""

import math

import numpy as np

import frameness as fr
from channel_oracle import kraus_twirl


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
        rho_n = fr.DensityOperator(state)
        out.append(kraus_twirl(unitaries).image_entropy(rho_n) - fr.von_neumann_entropy(rho_n))
    return out


def mp_symmetric_powers(a, ns):
    """{n: Sym^n(a)} for each n in ``ns``, for any 2 x 2 mpmath matrix a, by the monomial recursion.

    In the Dicke basis, column l of the unnormalized M_n holds the coefficients
    of x^(n-k) y^k in (a00 x + a10 y)^(n-l) (a01 x + a11 y)^l.  Each column of
    M_n is a column of M_(n-1) times one linear factor, so every n up to
    max(ns) costs O(max(ns)^3) in all.  Entry (k, l) of Sym^n(a) is
    M_n[k, l] sqrt(C(n, l) / C(n, k)).
    """
    from mpmath import mp

    def times(poly, c0, c1):  # poly (coefficients of y^0, y^1, ...) times (c0 x + c1 y)
        return ([c0 * poly[0]] + [c0 * poly[k] + c1 * poly[k - 1] for k in range(1, len(poly))]
                + [c1 * poly[-1]])

    cols, out = [[mp.mpf(1)]], {}
    for n in range(max(ns) + 1):
        if n:
            cols = [times(c, a[0, 0], a[1, 0]) for c in cols] + [times(cols[-1], a[0, 1], a[1, 1])]
        if n in ns:
            scale = [mp.sqrt(math.comb(n, k)) for k in range(n + 1)]
            out[n] = mp.matrix([[cols[l][k] * scale[l] / scale[k] for l in range(n + 1)]
                                for k in range(n + 1)])
    return out


def _real_if_exact(m):
    """m with real entries when every imaginary part is exactly zero: real arithmetic is faster."""
    from mpmath import mp

    return m.apply(mp.re) if all(mp.im(x) == 0 for x in m) else m


def mp_bound_asymmetries(rep, rho, copies, dps=50):
    """A_G(rho^(x)N) of a qubit at each N in ``copies``, from Schur-Weyl blocks at ``dps`` digits.

    S(G(rho^(x)N)) = -sum_k m_k sum_nu e log2 e over the eigenvalues
    e = det(rho)^k nu, nu in spec mean_g Sym^(N-2k)(U_g rho U_g^dag), with
    m_k = C(N, k) - C(N, k-1); no eigenvalue is dropped.
    """
    from mpmath import mp

    with mp.workdps(dps):
        r = mp.matrix(rho.matrix.tolist())
        orbit = [_real_if_exact(u * r * u.H) for u in (mp.matrix(u.tolist()) for u in rep.unitaries)]
        needed = {n - 2 * k for n in copies for k in range(n // 2 + 1)}
        powers = [mp_symmetric_powers(sigma, needed) for sigma in orbit]
        det = mp.re(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0])
        s_rho = -sum(e * mp.log(e, 2) for e in mp.eigh(r, eigvals_only=True) if e > 0)
        spectra, out = {}, []
        for n_copies in copies:
            s = mp.mpf(0)
            for k in range(n_copies // 2 + 1):
                n = n_copies - 2 * k
                if n not in spectra:
                    block = sum((p[n] for p in powers), mp.matrix(n + 1, n + 1)) / len(orbit)
                    spectra[n] = mp.eigh(_real_if_exact(block), eigvals_only=True)
                m = mp.binomial(n_copies, k) - (mp.binomial(n_copies, k - 1) if k else 0)
                s -= m * sum(e * mp.log(e, 2) for e in (det**k * nu for nu in spectra[n]) if e > 0)
            out.append(float(s - n_copies * s_rho))
        return out
