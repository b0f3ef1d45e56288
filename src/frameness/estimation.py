"""Group-element estimation: orbit ensembles, measurements, the Holevo bound.

Encoding a group element g into T(g) rho T(g)^dag and measuring is a
classical channel; its mutual information is capped by the Holevo quantity
of the orbit ensemble, which for a uniform prior collapses to the asymmetry
S(G(rho)) - S(rho) because unitaries leave the entropy alone.  The square
root measurement supplies a strong parameter-free witness for how much of
that cap is achievable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymmetry import TwirlOperation, g_asymmetry
from .groups import FiniteGroupRep, RepresentationError
from .states import (
    EIG_CUTOFF,
    IDENTITY_TOL,
    INPUT_TOL,
    DensityOperator,
    FramenessError,
    ShapeMismatchError,
    _entropy_of_spectrum,
    within_bound,
)


@dataclass
class OrbitEnsemble:
    """States T(g) rho T(g)^dag for all g, with the uniform prior."""

    states: tuple[DensityOperator, ...]

    def __post_init__(self):
        if not self.states:
            raise FramenessError("empty ensemble")
        d = self.states[0].dim
        if any(s.dim != d for s in self.states):
            raise ShapeMismatchError("ensemble states differ in dimension")

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average(self) -> DensityOperator:
        acc = sum(s.matrix for s in self.states) / self.size
        return DensityOperator(acc)


def orbit_ensemble(rep: FiniteGroupRep, rho: DensityOperator) -> OrbitEnsemble:
    """The orbit of rho under a unitary rep; a non-unitary T(g) raises RepresentationError."""
    if rho.dim != rep.dim:
        raise ShapeMismatchError(f"state dim {rho.dim} does not match rep dim {rep.dim}")
    dev = float(rep.unitarity_deviations().max())
    if dev > INPUT_TOL:
        raise RepresentationError(f"representation is not unitary: max |T^dag T - I| = {dev:.3e}")
    return OrbitEnsemble(tuple(DensityOperator(u @ rho.matrix @ u.conj().T) for u in rep.unitaries))


class DiscretePOVM:
    """PSD effects summing to the identity."""

    __slots__ = ("dim", "effects")

    def __init__(self, effects):
        ops = [np.asarray(e, dtype=complex) for e in effects]
        if not ops:
            raise FramenessError("a POVM needs at least one effect")
        d = ops[0].shape[0]
        if any(e.shape != (d, d) for e in ops):
            raise ShapeMismatchError("effects must share one square shape")
        for i, e in enumerate(ops):
            herm = float(np.abs(e - e.conj().T).max())
            low = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0])
            if herm > INPUT_TOL or low < -INPUT_TOL:
                raise FramenessError(f"effect {i} is not PSD (herm {herm:.2e}, min eig {low:.2e})")
        dev = float(np.abs(sum(ops) - np.eye(d)).max())
        if dev > IDENTITY_TOL:
            raise FramenessError(f"effects sum deviates from identity by {dev:.3e}")
        for e in ops:
            e.setflags(write=False)
        self.dim = d
        self.effects = tuple(ops)

    def __len__(self):
        return len(self.effects)


def mutual_information(ens: OrbitEnsemble, povm: DiscretePOVM) -> float:
    """H(g' : g) = H(g) + H(g') - H(g, g') in bits, for the uniform prior over the orbit."""
    if povm.dim != ens.dim:
        raise ShapeMismatchError(f"POVM dim {povm.dim} does not match ensemble dim {ens.dim}")
    cond = [[float(np.real(np.trace(s.matrix @ e))) for e in povm.effects] for s in ens.states]
    joint = np.clip(cond, 0.0, None) / ens.size
    total = (_entropy_of_spectrum(joint.sum(axis=1)) + _entropy_of_spectrum(joint.sum(axis=0))
             - _entropy_of_spectrum(joint.ravel()))
    return float(max(0.0, total))


def square_root_measurement(ens: OrbitEnsemble) -> DiscretePOVM:
    """Effects S^(-1/2) (rho_g / |G|) S^(-1/2) with S the ensemble average.

    On the null space of S the effects are completed by an even split of the
    null projector, so completeness holds exactly.
    """
    s = ens.average().matrix
    lams, vecs = np.linalg.eigh(s)
    keep = lams > EIG_CUTOFF
    inv_sqrt = (vecs[:, keep] / np.sqrt(lams[keep])) @ vecs[:, keep].conj().T
    null = vecs[:, ~keep] @ vecs[:, ~keep].conj().T
    effects = []
    for st in ens.states:
        e = inv_sqrt @ (st.matrix / ens.size) @ inv_sqrt + null / ens.size
        effects.append(0.5 * (e + e.conj().T))
    return DiscretePOVM(effects)


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> DiscretePOVM:
    """Wishart effects normalized by the inverse square root of their sum."""
    raw = []
    for _ in range(n_outcomes):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(z @ z.conj().T)
    total = sum(raw)
    lams, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(lams)) @ vecs.conj().T
    return DiscretePOVM([inv_sqrt @ r @ inv_sqrt for r in raw])


def coarse_grain_povm(povm: DiscretePOVM, groups) -> DiscretePOVM:
    """Merge effects by summing within each index group (a partition of outcomes)."""
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(len(povm))):
        raise ValueError("groups must partition the outcome indices")
    return DiscretePOVM([sum(povm.effects[i] for i in g) for g in groups])


@dataclass
class HolevoReport:
    """Best achieved information over the tried measurements, against the cap."""

    asymmetry: float
    best_info: float
    best_label: str
    results: list[tuple[str, float]]

    @property
    def ok(self) -> bool:
        return within_bound(self.best_info, self.asymmetry)

    @property
    def ratio(self) -> float | None:
        if self.asymmetry <= EIG_CUTOFF:
            return None
        return float(self.best_info / self.asymmetry)


def holevo_bound_check(rep: FiniteGroupRep, rho: DensityOperator, povms=None) -> HolevoReport:
    """Compare the mutual informations of the SRM and the supplied POVMs against the asymmetry cap."""
    ens = orbit_ensemble(rep, rho)
    asym = g_asymmetry(TwirlOperation.finite(rep), rho).asymmetry
    tried = [("srm", mutual_information(ens, square_root_measurement(ens)))]
    tried += [(f"povm{k}", mutual_information(ens, povm)) for k, povm in enumerate(povms or [])]
    best_label, best = max(tried, key=lambda kv: kv[1])
    return HolevoReport(asym, best, best_label, tried)
