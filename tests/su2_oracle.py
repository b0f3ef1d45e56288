"""Dense references for the collective SU(2) tests.

``dense_schur_basis`` builds the d x d Schur basis column by column, from
dense Pauli sums: the highest-weight vectors of each spin j are the kernel of
J+ on the strings of weight N/2 - j (by SVD, then the projected computational
basis vectors Gram-Schmidt'ed in order), lowered by J-.  It is the oracle for
N <= 8.  The package builds the same sectors by Clebsch-Gordan coupling, one
block per Hamming weight; its multiplicity label differs from this one by one
orthogonal rotation per spin sector, the same at every m.
"""

import functools
import math

import numpy as np
import scipy.linalg

from frameness.groups import SpinSector, multiplicity_dimension


def dense_collective_ops(n_qubits):
    """Independent dense construction of Jx, Jy, Jz from Pauli kron products."""
    paulis = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex) / 2,
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex) / 2,
        "z": np.array([[1, 0], [0, -1]], dtype=complex) / 2,
    }
    out = {}
    dim = 2**n_qubits
    for axis, half in paulis.items():
        total = np.zeros((dim, dim), dtype=complex)
        for site in range(n_qubits):
            op = np.eye(1, dtype=complex)
            for k in range(n_qubits):
                op = np.kron(op, half if k == site else np.eye(2))
            total += op
        out[axis] = total
    return out


def collective_rotation(n_qubits, theta):
    """exp(i theta . J) as a dense unitary."""
    ops = dense_collective_ops(n_qubits)
    tx, ty, tz = (float(t) for t in theta)
    return scipy.linalg.expm(1j * (tx * ops["x"] + ty * ops["y"] + tz * ops["z"]))


@functools.lru_cache(maxsize=None)
def dense_schur_basis(n_qubits):
    """(U, labels, sectors): U's columns are |j, m, alpha> by j descending, then m, then alpha."""
    ops = dense_collective_ops(n_qubits)
    jp = (ops["x"] + 1j * ops["y"]).real  # exact 0/1 entries
    jm = jp.T
    dim = 2**n_qubits
    weights = np.array([bin(b).count("1") for b in range(dim)])
    columns, labels, sectors = [], [], []
    for j in range(n_qubits // 2, -1, -1):
        mult = multiplicity_dimension(n_qubits, j)
        k = n_qubits // 2 - j
        sector = np.flatnonzero(weights == k)
        level = np.zeros((dim, mult))
        if k == 0:
            level[sector[0], 0] = 1.0
        else:
            kernel = scipy.linalg.null_space(jp[np.ix_(np.flatnonzero(weights == k - 1), sector)])
            assert kernel.shape[1] == mult
            proj = kernel @ kernel.T
            chosen = []
            for i in range(sector.size):
                v = proj[:, i].copy()
                for u in chosen:
                    v -= (u @ v) * u
                if np.linalg.norm(v) > 1e-8:
                    chosen.append(v / np.linalg.norm(v))
                if len(chosen) == mult:
                    break
            level[sector] = np.column_stack(chosen)
        start = len(columns)
        for m in range(j, -j - 1, -1):
            for alpha in range(mult):
                columns.append(level[:, alpha])
                labels.append((j, m, alpha))
            if m > -j:
                level = (jm @ level) / math.sqrt(j * (j + 1) - m * (m - 1))
        sectors.append(SpinSector(j, mult, start, len(columns)))
    basis = np.column_stack(columns)
    basis.setflags(write=False)
    return basis, tuple(labels), tuple(sectors)


def scattered_basis(rep):
    """The representation's weight blocks scattered into one d x d matrix."""
    u = np.zeros((rep.dim, rep.dim), dtype=rep.weight_blocks[0][2].dtype)
    for rows, cols, block in rep.weight_blocks:
        u[np.ix_(rows, cols)] = block
    return u
