"""Boundary tests pinning each tolerance's value through a public check.

Every case builds an input whose deviation is a literal: half the tolerance
must be accepted and twice the tolerance rejected.  The deviations are written
out rather than read from the tolerance table, so a change of any value fails
here.
"""

import math

import numpy as np
import pytest

import frameness as fr
from frameness.entanglement import _reduced_angles
from frameness.scaling import BoundRow


def half_and_twice(tol):
    return pytest.mark.parametrize("dev, accepted", [(0.5 * tol, True), (2.0 * tol, False)])


def accepts(build, error=fr.FramenessError) -> bool:
    try:
        build()
    except error:
        return False
    return True


# -- an input's defining identity, entrywise: 1e-10 --------------------------

@half_and_twice(1e-10)
def test_density_operator_trace(dev, accepted):
    assert accepts(lambda: fr.DensityOperator(np.diag([0.5, 0.5 + dev]))) is accepted


@half_and_twice(1e-10)
def test_density_operator_hermiticity(dev, accepted):
    assert accepts(lambda: fr.DensityOperator([[0.5, dev], [0.0, 0.5]])) is accepted


@half_and_twice(1e-10)
def test_density_operator_psd(dev, accepted):
    assert accepts(lambda: fr.DensityOperator(np.diag([1.0 + dev, -dev]))) is accepted


@half_and_twice(1e-10)
def test_distribution_sum(dev, accepted):
    assert accepts(lambda: fr.ProbabilityDistribution([0.5, 0.5 + dev])) is accepted


@half_and_twice(1e-10)
def test_distribution_negative_weight(dev, accepted):
    assert accepts(lambda: fr.ProbabilityDistribution([-dev, 1.0 + dev])) is accepted


@half_and_twice(1e-10)
def test_kraus_completeness(dev, accepted):
    assert accepts(lambda: fr.KrausChannel([math.sqrt(1.0 + dev) * np.eye(2)])) is accepted


@half_and_twice(1e-10)
def test_block_projection_basis_unitarity(dev, accepted):
    basis = math.sqrt(1.0 + dev) * np.eye(2)
    assert accepts(lambda: fr.BlockProjection(basis, [(1, 1), (1, 1)]), ValueError) is accepted


@half_and_twice(1e-10)
def test_povm_effect_psd(dev, accepted):
    effects = [np.diag([-dev, 0.0]), np.diag([1.0 + dev, 1.0])]
    assert accepts(lambda: fr.DiscretePOVM(effects)) is accepted


# -- a channel or POVM identity: 1e-9 ------------------------------------------

@half_and_twice(1e-9)
def test_povm_completeness(dev, accepted):
    effects = [np.eye(2) / 2, (0.5 + dev) * np.eye(2)]
    assert accepts(lambda: fr.DiscretePOVM(effects)) is accepted


@half_and_twice(1e-9)
def test_unitality(dev, accepted):
    # amplitude damping with rate dev: E(I) = diag(1 + dev, 1 - dev)
    k0 = np.diag([1.0, math.sqrt(1.0 - dev)])
    k1 = np.array([[0.0, math.sqrt(dev)], [0.0, 0.0]])
    assert fr.KrausChannel([k0, k1]).is_unital() is accepted


@half_and_twice(1e-9)
def test_commutant(dev, accepted):
    # [tau, |0><0|] has the entry -dev; the dephased tau differs from tau by dev
    tau = np.array([[1.0, dev], [0.0, 0.0]])
    assert fr.commutant_fixed_point_check(fr.dephasing_channel(np.eye(2)), tau) is accepted


# -- a composed check: 1e-8 ----------------------------------------------------

@half_and_twice(1e-8)
def test_idempotence(dev, accepted):
    # dev id + (1 - dev) dephasing: S^2 - S has entries dev - dev^2
    a = math.sqrt(1.0 - dev)
    ch = fr.KrausChannel([a * np.diag([1.0, 0.0]), a * np.diag([0.0, 1.0]),
                          math.sqrt(dev) * np.eye(2)])
    assert ch.is_idempotent() is accepted


@half_and_twice(1e-8)
def test_idempotence_of_a_factored_check(dev, accepted, monkeypatch):
    # the same mixture on d = 4 with rank-2 blocks: 3 Kraus operators, n^2 + n < d^2,
    # so the check is W W^dag - V V^dag with entries dev - dev^2, no superoperator
    def forbidden(self):
        raise AssertionError("the superoperator was built")

    monkeypatch.setattr(fr.KrausChannel, "superoperator", forbidden)
    a = math.sqrt(1.0 - dev)
    ch = fr.KrausChannel([a * np.diag([1.0, 1.0, 0.0, 0.0]), a * np.diag([0.0, 0.0, 1.0, 1.0]),
                          math.sqrt(dev) * np.eye(4)])
    assert ch.is_idempotent() is accepted


@half_and_twice(1e-8)
def test_group_closure(dev, accepted):
    # T(g1)^2 = diag(1, 1 + dev) must match the identity element
    elems = [np.eye(2), np.diag([1.0, -math.sqrt(1.0 + dev)])]
    assert accepts(lambda: fr.finite_group_from_unitaries(elems)) is accepted



@half_and_twice(1e-8)
def test_conjugations_equal_up_to_a_phase(dev, accepted):
    # |Tr I^dag exp(i eps X)| = 2 cos(eps), short of d = 2 by eps^2 to leading order
    eps = math.acos(1.0 - 0.5 * dev)
    near = math.cos(eps) * np.eye(2) + 1j * math.sin(eps) * np.array([[0, 1], [1, 0]])
    rep = fr.FiniteGroupRep([[0, 1], [1, 0]], [1j * np.eye(2), near])
    report = fr.finite_group_bound_check(rep, fr.DensityOperator(np.eye(2) / 2), 1)
    assert (report.conjugation_bits == 0.0) is accepted

# -- the slack in "measured <= bound": 1e-8 ------------------------------------

@half_and_twice(1e-8)
def test_bound_row(dev, accepted):
    assert BoundRow(1, 3.0 + dev, 3.0).ok is accepted


@half_and_twice(1e-8)
def test_su2_bound_report(dev, accepted):
    bound = fr.LieGroupBound(copies=2, local_dim=2, exact_bits=2.0, asymptotic_bits=2.0)
    assert fr.Su2BoundReport(bound, [1.0, 2.0 + dev]).ok is accepted


@half_and_twice(1e-8)
def test_holevo_report(dev, accepted):
    assert fr.HolevoReport(1.0, 1.0 + dev, "srm", [("srm", 1.0 + dev)]).ok is accepted


# -- treated as zero: 1e-12 ----------------------------------------------------

@half_and_twice(1e-12)
def test_zero_asymmetry_has_no_ratio(dev, accepted):
    assert (fr.HolevoReport(dev, 0.0, "srm", [("srm", 0.0)]).ratio is None) is accepted


# -- the tight-certificate threshold: 1e-4 -------------------------------------

@half_and_twice(1e-4)
def test_tight_sandwich(dev, accepted):
    assert fr.BoundReport(upper=0.25 + dev, lower=0.25).tight is accepted


# -- own meanings ----------------------------------------------------------------

@half_and_twice(1e-12)
def test_pure_state_norm(dev, accepted):
    assert accepts(lambda: fr.PureState([1.0 + dev, 0.0])) is accepted


@half_and_twice(1e-10)
def test_relative_entropy_null_weight(dev, accepted):
    rho = fr.DensityOperator(np.diag([1.0 - dev, dev]))
    sigma = fr.DensityOperator(np.diag([1.0, 0.0]))
    assert math.isfinite(fr.relative_entropy(rho, sigma)) is accepted


@half_and_twice(1e-15)
def test_zero_variance_model(dev, accepted):
    # a Bernoulli law with weight v has variance v (1 - v); below the cutoff the model is 0
    row = fr.regularized_asymmetry_table([1.0 - dev, dev], [4]).rows[0]
    assert (row.model_value == 0.0) is accepted


@half_and_twice(1e-7)
def test_gamma_free_basis_angles(dev, accepted):
    # |sin 2 theta| = dev: at or below the tolerance the reported angles are (0, 0)
    assert (_reduced_angles(0.5 * math.asin(dev), 1.0) == (0.0, 0.0)) is accepted
