"""Output checks for the benchmark jobs, and the references they compare against.

No reference runs the frameness code path its job exercises: the SU(2) pure
state reference works with sparse collective-spin actions on the state vector
instead of the Schur basis and twirl, the U(1) reference pinches block by
block, the binomial rows use ``math.lgamma`` and the three-level rows an FFT.
The numpy eigensolvers are bound here at import time, so the benchmark's
tracer, which replaces ``numpy.linalg.eigh``/``eigvalsh`` later, never counts
the checks' own eigensolves.

Every checker takes the job's output and its ``ref`` and returns
``(ok, detail)``.  ``PERTURB`` gives, per checker, a copy of a good output
with one value moved by far less than any real defect would move it; the
worker feeds it back to the checker, which must reject it.
"""

from __future__ import annotations

import copy
import csv
import math

import numpy as np
from numpy.linalg import eigh as _eigh
from numpy.linalg import eigvalsh as _eigvalsh

EXACT_TOL = 1e-8   # values a closed form or an exact reference pins
IDENTITY_TOL = 1e-9
# Perturbation applied by the checker self-test: above every tolerance used
# below, and far below any defect a real change could introduce unnoticed.
PERTURBATION = 1e-6

PAULIS = tuple(np.array(p, dtype=complex) for p in
               ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))


def entropy_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def hamming_weights(n_qubits: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return np.array([int(b).bit_count() for b in idx])


def max_su2_value(j_max: int) -> float:
    """log2((4/3) j^3 + (5/3) j + 1), the SU(2) asymmetry of the best 2j-qubit state."""
    return math.log2((4 * j_max**3 + 5 * j_max + 3) // 3)


def pinched_entropy(m: np.ndarray, charges) -> float:
    """Entropy of the U(1) pinching of m: one eigensolve per charge sector."""
    charges = np.asarray(charges)
    return sum(entropy_bits(_eigvalsh(m[np.ix_(charges == c, charges == c)]))
               for c in np.unique(charges))


# ---------------------------------------------------------------------------
# SU(2) asymmetry of a pure state without the Schur basis


def _raise(v: np.ndarray, n: int) -> np.ndarray:
    """J+ on a state vector: flip one down spin (bit 1) up, summed over qubits."""
    idx = np.arange(v.size)
    out = np.zeros_like(v)
    for q in range(n):
        down = (idx >> q) & 1 == 1
        out[idx[down] & ~(1 << q)] += v[down]
    return out


def _lower(v: np.ndarray, n: int) -> np.ndarray:
    idx = np.arange(v.size)
    out = np.zeros_like(v)
    for q in range(n):
        up = (idx >> q) & 1 == 0
        out[idx[up] | (1 << q)] += v[up]
    return out


def su2_pure_asymmetry(psi: np.ndarray, n: int) -> float:
    """S(G(psi)) for the collective SU(2) twirl on n qubits.

    The spin-j component P_j psi comes from Lagrange interpolation in J^2.
    Its weight-m slice v_m, raised to the top weight by J+^(j-m) and divided
    by the ladder factors, gives u_m = sum_alpha c_(m,alpha) |j, j, alpha>,
    so the Gram matrix <u_m'|u_m> is the irrep-side reduced state of the
    sector.  The twirl leaves p_j/(2j+1)-scaled copies of its spectrum, whence
    S(G(psi)) = sum_j [p_j log2(2j+1) + H(spec Gram_j)].
    """
    weights = hamming_weights(n)
    mz = (n - 2 * weights) / 2.0
    psi = np.asarray(psi, dtype=complex)

    def j_squared(v):
        return _lower(_raise(v, n), n) + mz**2 * v + mz * v

    spins = range(n // 2 + 1)
    total = 0.0
    for j in spins:
        comp = psi
        for k in spins:
            if k != j:
                comp = (j_squared(comp) - k * (k + 1) * comp) / (j * (j + 1) - k * (k + 1))
        tops = []
        for m in range(j, -j - 1, -1):
            u = np.where(mz == m, comp, 0)
            scale = 1.0
            for step in range(m, j):
                u = _raise(u, n)
                scale *= math.sqrt(j * (j + 1) - step * (step + 1))
            tops.append(u / scale)
        tops = np.array(tops)
        gram = tops.conj() @ tops.T
        spectrum = _eigvalsh(0.5 * (gram + gram.conj().T))
        p_j = float(np.real(np.trace(gram)))
        if p_j > 0:
            total += p_j * math.log2(2 * j + 1) + entropy_bits(spectrum)
    return total


# ---------------------------------------------------------------------------
# Many-copy references


def binomial_entropy(n: int, p: float) -> float:
    """Entropy of Binomial(n, p) in bits, summed term by term in log space."""
    lp, lq = math.log(p), math.log1p(-p)
    lf = math.lgamma(n + 1)
    total = 0.0
    for k in range(n + 1):
        log_b = lf - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq
        total -= math.exp(log_b) * log_b
    return total / math.log(2)


def convolved_entropy(q, n: int) -> float:
    """Entropy of the n-fold self-convolution of q, via one real FFT."""
    q = np.asarray(q, dtype=float)
    support = n * (q.size - 1) + 1
    size = 1 << (support - 1).bit_length()
    dist = np.fft.irfft(np.fft.rfft(q, size) ** n, size)[:support]
    return entropy_bits(np.clip(dist, 0.0, None))


# ---------------------------------------------------------------------------
# small-ops references


def _reduced_a(m: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("ijkj->ik", m.reshape(da, db, da, db))


def dephasing_refs(m: np.ndarray, da: int, db: int, side: str) -> dict:
    """Hashing lower bound and the dephasing bound in the computational basis."""
    s = entropy_bits(_eigvalsh(m))
    lower = max(0.0, entropy_bits(_eigvalsh(_reduced_a(m, da, db))) - s)
    # dephasing one side in its computational basis keeps the blocks where
    # that side's index agrees
    a_idx, b_idx = np.divmod(np.arange(da * db), db)
    keep = b_idx[:, None] == b_idx[None, :] if side == "B" else a_idx[:, None] == a_idx[None, :]
    return {"lower": lower, "identity_upper": entropy_bits(_eigvalsh(m * keep)) - s}


def pauli_twirl_asymmetries(qubit: np.ndarray, n_max: int) -> dict:
    """A(rho^(x)N) under Q8 acting as U^(x)N: the phases cancel, leaving a Pauli twirl."""
    s1 = entropy_bits(_eigvalsh(qubit))
    out = {}
    state, powers = qubit.astype(complex), list(PAULIS)
    for n in range(1, n_max + 1):
        if n > 1:
            state = np.kron(state, qubit)
            powers = [np.kron(u, p) for u, p in zip(powers, PAULIS)]
        twirled = sum(u @ state @ u.conj().T for u in powers) / 4.0
        out[str(n)] = entropy_bits(_eigvalsh(twirled)) - n * s1
    return out


def numpy_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    s, vecs = _eigh(sigma)
    w = np.real(np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs))
    keep = s > 1e-12
    return -entropy_bits(_eigvalsh(rho)) - float((w[keep] * np.log2(s[keep])).sum())


def channel_image(params: dict, u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) for a benchmark channel, from its structure in the rotated basis u.

    A pinching keeps the diagonal blocks, a phase twirl keeps the entries
    whose charges agree mod the order, and a conditional expectation replaces
    each sector's m factor by I/m.  No Kraus operator is formed.
    """
    r = u.conj().T @ rho @ u
    image = np.zeros_like(r)
    if params["kind"] == "pinching":
        edges = np.cumsum([0] + params["blocks"])
        for a, b in zip(edges[:-1], edges[1:]):
            image[a:b, a:b] = r[a:b, a:b]
    elif params["kind"] == "twirl":
        c = np.asarray(params["charges"]) % params["order"]
        image = np.where(c[:, None] == c[None, :], r, 0)
    else:
        offset = 0
        for m, n in params["sectors"]:
            block = r[offset:offset + m * n, offset:offset + m * n].reshape(m, n, m, n)
            image[offset:offset + m * n, offset:offset + m * n] = \
                np.kron(np.eye(m) / m, np.einsum("rirj->ij", block))
            offset += m * n
    return u @ image @ u.conj().T


# ---------------------------------------------------------------------------
# Checkers


def _close(a, b, tol=EXACT_TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def _consistent(res) -> bool:
    return _close(res["asymmetry"], res["entropy_out"] - res["entropy_in"], IDENTITY_TOL)


def check_su2_mixed(out, ref):
    res = out["result"]
    a = res["asymmetry"]
    ok = (_consistent(res) and _close(res["entropy_in"], ref["entropy_in"])
          and ref["lower"] - EXACT_TOL <= a <= ref["upper"] + EXACT_TOL)
    if ref.get("pinned") is not None:
        ok = ok and _close(a, ref["pinned"], IDENTITY_TOL)
    return ok, f"A={a:.12f} in [{ref['lower']:.6f}, {ref['upper']:.6f}] pinned={ref.get('pinned')}"


def check_su2_pure(out, ref):
    res = out["result"]
    ok = _consistent(res) and _close(res["entropy_in"], 0.0) and _close(res["asymmetry"], ref["asymmetry"])
    return ok, f"A={res['asymmetry']:.12f} ref={ref['asymmetry']:.12f}"


def check_u1_mixed(out, ref):
    res = out["result"]
    ok = (_consistent(res) and _close(res["entropy_in"], ref["entropy_in"])
          and _close(res["asymmetry"], ref["asymmetry"]))
    return ok, f"A={res['asymmetry']:.12f} ref={ref['asymmetry']:.12f}"


def check_su2_extremal(out, ref):
    res = out["result"]
    amps = np.array(res["state"]["amplitudes"])
    ok = (_close(res["closed_form"], ref["closed_form"], 1e-12)
          and _close(res["asymmetry"], ref["closed_form"])
          and amps.shape == (ref["dim"], 2) and _close(float((amps**2).sum()), 1.0))
    return ok, f"A={res['asymmetry']:.12f} closed={ref['closed_form']:.12f}"


def check_su2_bounds(out, ref):
    """The report's numbers, and that its ok flag states measured <= exact.

    The flag itself is not required to hold: the maximal-asymmetry state is
    not an N-copy state, and from 8 qubits on its asymmetry exceeds the
    N-copy design bound 2 log2(N+1) (7.459 > 6.919 bits at 10 qubits).
    """
    res = out["result"]
    ok = (_close(res["exact_bits"], ref["exact_bits"], 1e-12)
          and _close(res["asymptotic_bits"], ref["asymptotic_bits"], 1e-12)
          and _close(res["measured_bits"], ref["closed_form"])
          and res["ok"] is (res["measured_bits"] <= res["exact_bits"] + EXACT_TOL))
    return ok, f"measured={res['measured_bits']:.12f} exact={res['exact_bits']:.6f} ok={res['ok']}"


def _scaling_rows(out):
    """(N, A, model) triples from the JSON artifact or its CSV projection."""
    if isinstance(out, str):
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        body = list(csv.reader(lines))[1:]
        return [(int(r[0]), float(r[1]), float(r[2])) for r in body]
    return [(r["N"], r["A_bits"], r["model_bits"]) for r in out["result"]["rows"]]


def check_scaling(out, ref):
    rows = _scaling_rows(out)
    worst = 0.0
    ok = sorted(str(n) for n, _, _ in rows) == sorted(ref["rows"])
    for n, a, model in rows:
        exact = ref["rows"].get(str(n))
        expect_model = 0.5 * math.log2(2 * math.pi * n * ref["variance"]) + 0.5 * math.log2(math.e)
        ok = ok and _close(a, exact) and _close(model, expect_model, IDENTITY_TOL)
        worst = max(worst, abs(a - exact) if exact is not None else math.inf)
    return ok, f"{len(rows)} rows, max |A - exact| = {worst:.2e}"


def check_ree_sweep(out, ref):
    rows = out["result"]
    ok = [r["p"] for r in rows] == ref["p"]
    for r in rows:
        p = r["p"]
        target = 1.0 - entropy_bits([p, 1.0 - p])
        ok = ok and r["tight"] is True and _close(r["lower"], target, IDENTITY_TOL) \
            and _close(r["upper"], target, IDENTITY_TOL)
    return ok, f"{len(rows)} Bell-diagonal rows tight at 1 - H2(p)"


def check_ree_state(out, ref):
    res = out["result"]
    ok = (_close(res["lower"], ref["lower"], IDENTITY_TOL)
          and res["lower"] - IDENTITY_TOL <= res["upper"] <= ref["identity_upper"] + IDENTITY_TOL)
    return ok, f"lower={res['lower']:.9f} upper={res['upper']:.9f} identity={ref['identity_upper']:.9f}"


def check_estimate(out, ref):
    res = out["result"]
    infos = [t["info"] for t in res["tried"]]
    ok = (res["ok"] is True and len(infos) == ref["tried"] and min(infos) >= 0.0
          and _close(res["A_G"], ref["asymmetry"], IDENTITY_TOL)
          and _close(res["best_info"], max(infos), 0.0)
          and res["best_info"] <= res["A_G"] + EXACT_TOL)
    return ok, f"A_G={res['A_G']:.9f} best={res['best_info']:.9f}"


def check_finite_bounds(out, ref):
    res = out["result"]
    rows = res["rows"]
    ok = (res["ok"] is True and res["group_order"] == ref["order"]
          and [str(r["N"]) for r in rows] == list(ref["rows"]))
    for r in rows:
        ok = ok and _close(r["A_bits"], ref["rows"].get(str(r["N"]))) \
            and r["A_bits"] <= math.log2(ref["order"]) + EXACT_TOL
    return ok, f"{len(rows)} rows under log2|G|"


def check_verify(out, ref):
    res = out["result"]
    ok = res["all_ok"] is True and len(res["checks"]) == ref["checks"] \
        and all(c["ok"] for c in res["checks"])
    return ok, f"{sum(c['ok'] for c in res['checks'])}/{len(res['checks'])} checks pass"


def check_channel(out, ref):
    ok = (out["consistent"] and out["idempotent"] and out["gap"] >= -IDENTITY_TOL
          and _close(out["gap"], ref["gap"]))
    return ok, f"gap={out['gap']:.12f} S(rho||E(rho))={ref['gap']:.12f}"


CHECKS = {
    "su2_mixed": check_su2_mixed,
    "su2_pure": check_su2_pure,
    "u1_mixed": check_u1_mixed,
    "su2_extremal": check_su2_extremal,
    "su2_bounds": check_su2_bounds,
    "scaling": check_scaling,
    "ree_sweep": check_ree_sweep,
    "ree_state": check_ree_state,
    "estimate": check_estimate,
    "finite_bounds": check_finite_bounds,
    "verify": check_verify,
    "channel": check_channel,
}


def _shift(path):
    """Perturbation that adds PERTURBATION to out[path[0]][path[1]]...; '*' means the first row."""
    def perturb(out):
        bad = copy.deepcopy(out)
        node = bad
        for key in path[:-1]:
            node = node[0] if key == "*" else node[key]
        node[path[-1]] += PERTURBATION
        return bad
    return perturb


def _perturb_csv(text: str) -> str:
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first].split(",")
    cells[1] = repr(float(cells[1]) + PERTURBATION)
    lines[first] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_scaling(out):
    if isinstance(out, str):
        return _perturb_csv(out)
    return _shift(("result", "rows", "*", "A_bits"))(out)


def _perturb_verify(out):
    bad = copy.deepcopy(out)
    bad["result"]["checks"][0]["ok"] = False
    return bad


def _perturb_channel(out):
    return dict(out, gap=out["gap"] + PERTURBATION)


PERTURB = {
    "su2_mixed": _shift(("result", "asymmetry")),
    "su2_pure": _shift(("result", "asymmetry")),
    "u1_mixed": _shift(("result", "asymmetry")),
    "su2_extremal": _shift(("result", "asymmetry")),
    "su2_bounds": _shift(("result", "measured_bits")),
    "scaling": _perturb_scaling,
    "ree_sweep": _shift(("result", "*", "upper")),
    "ree_state": _shift(("result", "lower")),
    "estimate": _shift(("result", "A_G")),
    "finite_bounds": _shift(("result", "rows", "*", "A_bits")),
    "verify": _perturb_verify,
    "channel": _perturb_channel,
}
