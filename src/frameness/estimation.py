"""Group-element estimation: orbit ensembles, measurements, the Holevo bound.

Encoding a group element g into T(g) rho T(g)^dag and measuring is a
classical channel; its mutual information is capped by the Holevo quantity
of the orbit ensemble, which for a uniform prior collapses to the asymmetry
S(G(rho)) - S(rho) because unitaries leave the entropy alone.  The square
root measurement supplies a strong parameter-free witness for how much of
that cap is achievable.

The statistics are computed on stacks: a POVM holds its effects as one
(n, d, d) array, checked PSD by one stacked eigvalsh; the conditional
probabilities Tr(rho_g E_e) of every orbit state and effect come from one
einsum; the square-root measurement maps the whole orbit at once, and
:func:`random_povm` draws all its Wishart factors in one rng call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroupRep, RepresentationError
from .sampling import _ginibre_stack
from .states import (
    EIG_CUTOFF,
    IDENTITY_TOL,
    INPUT_TOL,
    DensityOperator,
    FramenessError,
    ShapeMismatchError,
    _eigh,
    _entropy_of_spectrum,
    von_neumann_entropy,
    within_bound,
)


@dataclass
class OrbitEnsemble:
    """States T(g) rho T(g)^dag for all g, with the uniform prior; ``matrices`` stacks them, (|G|, d, d)."""

    states: tuple[DensityOperator, ...]
    matrices: np.ndarray | None = field(default=None, repr=False, compare=False)
    _average: DensityOperator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.states:
            raise FramenessError("empty ensemble")
        d = self.states[0].dim
        if any(s.dim != d for s in self.states):
            raise ShapeMismatchError("ensemble states differ in dimension")
        if self.matrices is None:
            self.matrices = np.stack([s.matrix for s in self.states])

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average(self) -> DensityOperator:
        """The uniform mixture, G(rho) for an orbit; formed and validated once."""
        if self._average is None:
            self._average = DensityOperator(sum(s.matrix for s in self.states) / self.size)
        return self._average


def orbit_ensemble(rep: FiniteGroupRep, rho: DensityOperator) -> OrbitEnsemble:
    """The orbit of rho under a unitary rep; a non-unitary T(g) raises RepresentationError.

    The states T(g) rho T(g)^dag come from one batched product over the unitary stack,
    and each shares rho's checked spectrum: no eigensolve per orbit state.
    """
    if rho.dim != rep.dim:
        raise ShapeMismatchError(f"state dim {rho.dim} does not match rep dim {rep.dim}")
    dev = float(rep.unitarity_deviations().max())
    if dev > INPUT_TOL:
        raise RepresentationError(f"representation is not unitary: max |T^dag T - I| = {dev:.3e}")
    us = rep.unitaries
    orbit = us @ rho.matrix @ us.conj().swapaxes(1, 2)
    orbit = 0.5 * (orbit + orbit.conj().swapaxes(1, 2))
    orbit.setflags(write=False)  # the states are views of it
    return OrbitEnsemble(tuple(DensityOperator._of_checked(m, rho.eigenvalues()) for m in orbit), orbit)


class DiscretePOVM:
    """PSD effects summing to the identity, held as one read-only (n, d, d) stack ``effects``."""

    __slots__ = ("dim", "effects")

    def __init__(self, effects):
        ops = [np.asarray(e, dtype=complex) for e in effects]
        if not ops:
            raise FramenessError("a POVM needs at least one effect")
        d = len(ops[0]) if ops[0].ndim else 0  # a 0-d effect fails the shape check
        if not d or any(e.shape != (d, d) for e in ops):
            raise ShapeMismatchError("effects must share one nonempty square shape")
        stack = np.array(ops)
        if not np.isfinite(stack).all():
            raise FramenessError("an effect has a non-finite entry (NaN or inf)")
        adj = stack.conj().swapaxes(1, 2)
        herm = np.abs(stack - adj).max(axis=(1, 2))
        low = np.linalg.eigvalsh(0.5 * (stack + adj))[:, 0]
        bad = np.flatnonzero(~(herm <= INPUT_TOL) | ~(low >= -INPUT_TOL))
        if bad.size:
            i = int(bad[0])
            raise FramenessError(f"effect {i} is not PSD (herm {herm[i]:.2e}, min eig {low[i]:.2e})")
        dev = float(np.abs(stack.sum(axis=0) - np.eye(d)).max())
        if not dev <= IDENTITY_TOL:
            raise FramenessError(f"effects sum deviates from identity by {dev:.3e}")
        stack.setflags(write=False)
        self.dim = d
        self.effects = stack

    def __len__(self):
        return len(self.effects)


def mutual_information(ens: OrbitEnsemble, povm: DiscretePOVM) -> float:
    """H(g' : g) = H(g) + H(g') - H(g, g') in bits, for the uniform prior over the orbit."""
    if povm.dim != ens.dim:
        raise ShapeMismatchError(f"POVM dim {povm.dim} does not match ensemble dim {ens.dim}")
    cond = np.einsum("gij,eji->ge", ens.matrices, povm.effects).real  # Tr(rho_g E_e)
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
    lams, vecs = _eigh(s, INPUT_TOL)
    keep = lams > EIG_CUTOFF
    inv_sqrt = (vecs[:, keep] / np.sqrt(lams[keep])) @ vecs[:, keep].conj().T
    null = vecs[:, ~keep] @ vecs[:, ~keep].conj().T
    e = inv_sqrt @ (ens.matrices / ens.size) @ inv_sqrt + null / ens.size
    return DiscretePOVM(0.5 * (e + e.conj().swapaxes(1, 2)))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> DiscretePOVM:
    """Wishart effects normalized by the inverse square root of their sum."""
    z = _ginibre_stack(dim, rng, n_outcomes)
    raw = z @ z.conj().swapaxes(1, 2)
    lams, vecs = _eigh(raw.sum(axis=0), 0.0)
    inv_sqrt = (vecs / np.sqrt(lams)) @ vecs.conj().T
    return DiscretePOVM(inv_sqrt @ raw @ inv_sqrt)


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
    """Compare the mutual informations of the SRM and the supplied POVMs against the asymmetry cap.

    The cap A_G = S(G(rho)) - S(rho) takes G(rho) as the orbit average, which the
    square-root measurement reuses.
    """
    ens = orbit_ensemble(rep, rho)
    asym = von_neumann_entropy(ens.average()) - von_neumann_entropy(rho)
    tried = [("srm", mutual_information(ens, square_root_measurement(ens)))]
    tried += [(f"povm{k}", mutual_information(ens, povm)) for k, povm in enumerate(povms or [])]
    best_label, best = max(tried, key=lambda kv: kv[1])
    return HolevoReport(asym, best, best_label, tried)
