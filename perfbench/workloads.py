"""Seeded inputs, job lists and reference values for each benchmark workload.

Everything here runs in the benchmark's parent process, before the timed
worker starts: input files are written to the run's work directory and the
reference values the checks compare against are computed with plain numpy,
never through the frameness code path a job exercises.

A job is a dict: ``id``, ``kind`` (``"cli"`` or ``"channel"``), ``check``
(the name of a checker in ``checks.py``) and ``ref`` (what that checker
compares against).  CLI jobs carry ``argv`` for ``frameness.cli.run`` and the
``out`` path the job writes; channel jobs carry the channel's ``params``,
its ``unitary``, the state ``rho``, and ``samples`` and ``sample_seed`` for
``image_fix_equivalence_check``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks

# Stream tags for np.random.default_rng([seed, tag]): one independent stream per input.
_TAG_MIXED, _TAG_PURE, _TAG_LEVEL3, _TAG_SWEEP, _TAG_BIP, _TAG_QUBIT, _TAG_VERIFY, _TAG_CHANNEL = range(8)

SU2_QUBITS = 10
MANY_COPY_N = 20000
FINITE_COPIES = 8
SWEEP_POINTS = 8
CHANNEL_DIMS = (8, 16, 24, 32)
CHANNEL_SAMPLES = 20
CHANNEL_KINDS = ("pinching", "twirl", "block")
PINCHING_BLOCKS = 4
TWIRL_ORDER = 5
# A conditional expectation's superoperator is a sum of one d^2 x d^2
# Kronecker product per Kraus operator, and it has sum m_q^2 of them.  Its
# sectors are drawn until that count lies in [2.4d, 2.6d], so every seed does
# about the same superoperator work.
_BLOCK_KRAUS_BAND = (2.4, 2.6)
_BLOCK_ATTEMPTS = 10000
# Many-copy jobs, by tag; the tracer reports a subnormal share for each.
MANY_COPY_TAGS = ("p05", "p03", "level3")


def scaling_job_id(tag: str) -> str:
    return f"scaling-{tag}"


# asymmetry --group su2 --qubits 10 on the mixed state of seed 0, from the
# dense twirl path of the commit that introduced this benchmark.
PINNED_SEED = 0
PINNED_SU2_MIXED = 0.5722556598180049


def _write_json(path: str, obj) -> int:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return os.path.getsize(path)


def _complex_rows(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def from_complex_rows(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _mixed_state(dim: int, rng: np.random.Generator):
    """Full-rank density matrix with a Dirichlet spectrum; returns (matrix, spectrum)."""
    lams = rng.dirichlet(np.ones(dim))
    u = _haar(dim, rng)
    m = (u * lams) @ u.conj().T
    return 0.5 * (m + m.conj().T), lams


def _pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class Inputs:
    """Writes input files into one directory and records their dimension and size."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.records = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def density(self, name: str, m: np.ndarray) -> str:
        return self._add(name, m.shape[0], {"dim": m.shape[0], "matrix": _complex_rows(m)})

    def pure(self, name: str, v: np.ndarray) -> str:
        return self._add(name, v.size, {"dim": v.size, "amplitudes": _complex_rows(v)})

    def charges(self, name: str, charges) -> str:
        charges = [int(c) for c in charges]
        return self._add(name, len(charges), {"dim": len(charges), "charges": charges})

    def finite_rep(self, name: str, table, unitaries) -> str:
        obj = {"order": len(unitaries), "table": np.asarray(table).tolist(),
               "unitaries": [_complex_rows(u) for u in unitaries]}
        return self._add(name, unitaries[0].shape[0], obj)

    def _add(self, name: str, dim: int, obj) -> str:
        path = self.path(name)
        self.records.append({"name": name, "dim": int(dim), "bytes": _write_json(path, obj)})
        return path


def _cli_job(inputs: Inputs, job_id: str, argv, check: str, ref, fmt: str = "json") -> dict:
    out = inputs.path(f"out-{job_id}.{fmt}")
    return {"id": job_id, "kind": "cli", "argv": list(argv) + ["--out", out],
            "out": out, "format": fmt, "check": check, "ref": ref}


# ---------------------------------------------------------------------------
# su2-dense


def su2_dense(seed: int, inputs: Inputs) -> list[dict]:
    n, dim = SU2_QUBITS, 1 << SU2_QUBITS
    j_max = n // 2
    weights = checks.hamming_weights(n)
    charges = inputs.charges("hamming10.json", weights)

    m, lams = _mixed_state(dim, np.random.default_rng([seed, _TAG_MIXED]))
    mixed = inputs.density("mixed.json", m)
    s_in = checks.entropy_bits(lams)
    a_u1 = checks.pinched_entropy(m, weights) - s_in
    mixed_ref = {
        "entropy_in": s_in,
        "lower": a_u1,
        "upper": min(checks.max_su2_value(j_max), math.log2(dim) - s_in),
        "pinned": PINNED_SU2_MIXED if seed == PINNED_SEED else None,
    }
    jobs = [
        _cli_job(inputs, "asym-su2-mixed",
                 ["asymmetry", "--group", "su2", "--qubits", str(n), "--state", mixed],
                 "su2_mixed", mixed_ref),
    ]
    pure_rng = np.random.default_rng([seed, _TAG_PURE])
    for k in range(2):
        psi = _pure_state(dim, pure_rng)
        path = inputs.pure(f"pure{k}.json", psi)
        jobs.append(_cli_job(
            inputs, f"asym-su2-pure{k}",
            ["asymmetry", "--group", "su2", "--qubits", str(n), "--state", path],
            "su2_pure", {"asymmetry": checks.su2_pure_asymmetry(psi, n)}))
    jobs += [
        _cli_job(inputs, "asym-u1-mixed",
                 ["asymmetry", "--group", "u1", "--charges", charges, "--state", mixed],
                 "u1_mixed", {"asymmetry": a_u1, "entropy_in": s_in}),
        _cli_job(inputs, "extremal-su2", ["extremal", "--group", "su2", "--qubits", str(n)],
                 "su2_extremal", {"closed_form": checks.max_su2_value(j_max), "dim": dim}),
        _cli_job(inputs, "bounds-su2", ["bounds", "--group", "su2", "--qubits", str(n)],
                 "su2_bounds", {"closed_form": checks.max_su2_value(j_max),
                                "exact_bits": 2.0 * math.log2(n + 1),
                                "asymptotic_bits": 2.0 * math.log2(n)}),
    ]
    return jobs


# ---------------------------------------------------------------------------
# many-copy


def _copy_ladder(n_top: int) -> list[int]:
    ladder = [1, 2, 5, 10, 20, 50, 100, 150, 200, 500, 1000]
    return sorted({k for k in ladder if k <= n_top} | {n_top})


def many_copy(seed: int, inputs: Inputs) -> list[dict]:
    ns = _copy_ladder(MANY_COPY_N)
    jobs = []
    for tag, p in (("p05", 0.5), ("p03", 0.3)):
        ref = {"rows": {str(k): checks.binomial_entropy(k, p) for k in ns},
               "variance": p * (1 - p)}
        jobs.append(_cli_job(inputs, scaling_job_id(tag),
                             ["scaling", "--p", repr(p), "--copies", str(MANY_COPY_N)],
                             "scaling", ref))
    # Three charge levels with weights near uniform: the seed moves them a
    # little, which keeps the subnormal share and so the run time comparable.
    q = np.random.default_rng([seed, _TAG_LEVEL3]).dirichlet([30.0, 30.0, 30.0])
    state = inputs.pure("level3.json", np.sqrt(q).astype(complex))
    grading = inputs.charges("charges3.json", [0, 1, 2])
    ref = {"rows": {str(k): checks.convolved_entropy(q, k) for k in ns},
           "variance": float(q @ np.arange(3.0) ** 2 - (q @ np.arange(3.0)) ** 2)}
    jobs.append(_cli_job(inputs, scaling_job_id("level3"),
                         ["scaling", "--state", state, "--charges", grading,
                          "--copies", str(MANY_COPY_N), "--format", "csv"],
                         "scaling", ref, fmt="csv"))
    return jobs


# ---------------------------------------------------------------------------
# small-ops


def _q8():
    """Q8 = {+-I, +-iX, +-iY, +-iZ} and its multiplication table."""
    i2, x, y, z = checks.PAULIS
    elems = [i2, -i2, 1j * x, -1j * x, 1j * y, -1j * y, 1j * z, -1j * z]
    table = [[next(k for k, w in enumerate(elems) if np.abs(a @ b - w).max() < 1e-12)
              for b in elems] for a in elems]
    return table, elems


def _composition(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """A random split of ``total`` into ``parts`` positive integers."""
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total]))).tolist()


def _block_sectors(d: int, rng: np.random.Generator) -> list[list[int]]:
    """Sectors (m, n) with sum m n = d and a Kraus count sum m^2 inside the band."""
    lo, hi = (f * d for f in _BLOCK_KRAUS_BAND)
    for _ in range(_BLOCK_ATTEMPTS):
        sectors, left = [], d
        while left > 0:
            m = int(rng.integers(1, left + 1))
            n = int(rng.integers(1, left // m + 1))
            sectors.append([m, n])
            left -= m * n
        if lo <= sum(m * m for m, _ in sectors) <= hi:
            return sectors
    raise ValueError(f"no block sectors for d={d} with a Kraus count in [{lo}, {hi}]")


def _channel_jobs(seed: int) -> list[dict]:
    """One job per channel kind and dimension: the channel's parameters and a state.

    The benchmark draws the parameters itself, so the inputs do not depend on
    how the program's own channel sampler draws.  The reference gap is
    S(rho || E(rho)) with E(rho) built from these parameters in numpy.
    """
    rng = np.random.default_rng([seed, _TAG_CHANNEL])
    jobs = []
    for d in CHANNEL_DIMS:
        for kind in CHANNEL_KINDS:
            u = _haar(d, rng)
            params = {"kind": kind, "d": d}
            if kind == "pinching":
                params["blocks"] = _composition(d, PINCHING_BLOCKS, rng)
            elif kind == "twirl":
                params["order"] = TWIRL_ORDER
                params["charges"] = rng.integers(0, TWIRL_ORDER, d).tolist()
            else:
                params["sectors"] = _block_sectors(d, rng)
            rho, _ = _mixed_state(d, rng)
            image = checks.channel_image(params, u, rho)
            jobs.append({"id": f"channel-{kind}-d{d}", "kind": "channel", "params": params,
                         "unitary": _complex_rows(u), "rho": _complex_rows(rho),
                         "samples": CHANNEL_SAMPLES, "sample_seed": int(rng.integers(0, 10**6)),
                         "check": "channel",
                         "ref": {"gap": checks.numpy_relative_entropy(rho, image)}})
    return jobs


def channel_constructor(job: dict):
    """(name of the frameness constructor, its arguments, the state as a matrix) for a channel job."""
    params = job["params"]
    u, rho = from_complex_rows(job["unitary"]), from_complex_rows(job["rho"])
    if params["kind"] == "pinching":
        edges = np.cumsum([0] + params["blocks"])
        return "pinching_channel", ([u[:, a:b] @ u[:, a:b].conj().T
                                     for a, b in zip(edges[:-1], edges[1:])],), rho
    if params["kind"] == "twirl":
        charges, order = np.asarray(params["charges"]), params["order"]
        return "twirl_channel", ([(u * np.exp(2j * np.pi * k * charges / order)) @ u.conj().T
                                  for k in range(order)],), rho
    return "conditional_expectation_channel", ([tuple(s) for s in params["sectors"]], u), rho


def small_ops(seed: int, inputs: Inputs) -> list[dict]:
    # one weight in each eighth of [0.5, 1]: the optimizer's effort depends on p
    offsets = np.random.default_rng([seed, _TAG_SWEEP]).uniform(0.0, 1.0, SWEEP_POINTS)
    sweep = [round(0.5 + 0.5 * (k + float(u)) / SWEEP_POINTS, 4) for k, u in enumerate(offsets)]
    jobs = [_cli_job(inputs, "ree-sweep", ["ree", "--sweep", ",".join(repr(p) for p in sweep)],
                     "ree_sweep", {"p": sweep})]

    bip_rng = np.random.default_rng([seed, _TAG_BIP])
    for k, side in enumerate(("B", "A")):
        m, _ = _mixed_state(6, bip_rng)
        path = inputs.density(f"bip23-{k}.json", m)
        jobs.append(_cli_job(
            inputs, f"ree-state{k}",
            ["ree", "--state", path, "--dims", "2,3", "--side", side,
             "--random-trials", "40", "--seed", str(seed)],
            "ree_state", checks.dephasing_refs(m, 2, 3, side)))

    table, q8 = _q8()
    rep = inputs.finite_rep("q8.json", table, q8)
    qubit, _ = _mixed_state(2, np.random.default_rng([seed, _TAG_QUBIT]))
    qubit_path = inputs.density("qubit.json", qubit)
    s_qubit = checks.entropy_bits(np.linalg.eigvalsh(qubit))
    jobs += [
        _cli_job(inputs, "estimate-z2",
                 ["estimate", "--state", qubit_path, "--povms", "6", "--seed", str(seed)],
                 "estimate", {"asymmetry": checks.entropy_bits(np.real(np.diagonal(qubit))) - s_qubit,
                              "tried": 7}),
        _cli_job(inputs, "estimate-q8",
                 ["estimate", "--rep", rep, "--state", qubit_path, "--povms", "6",
                  "--seed", str(seed)],
                 "estimate", {"asymmetry": 1.0 - s_qubit, "tried": 7}),
        _cli_job(inputs, "bounds-q8",
                 ["bounds", "--group", "finite", "--rep", rep, "--state", qubit_path,
                  "--copies", str(FINITE_COPIES)],
                 "finite_bounds", {"rows": checks.pauli_twirl_asymmetries(qubit, FINITE_COPIES),
                                   "order": 8}),
    ]
    verify_seeds = np.random.default_rng([seed, _TAG_VERIFY]).integers(0, 10**6, 2)
    for k, vs in enumerate(verify_seeds):
        jobs.append(_cli_job(inputs, f"verify{k}", ["verify", "--seed", str(int(vs))],
                             "verify", {"checks": 10}))
    return jobs + _channel_jobs(seed)


WORKLOADS = {"su2-dense": su2_dense, "many-copy": many_copy, "small-ops": small_ops}
