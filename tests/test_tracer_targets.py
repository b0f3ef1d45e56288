"""The benchmark tracer's wrapped names resolve against the package, and uninstall restores them.

``perfbench/tracer.py`` wraps package attributes by dotted name, so a rename
in ``src/`` that breaks one shows up only when the benchmark runs traced.
These tests resolve every ``TARGETS`` entry and round-trip ``install`` and
``uninstall``.  The perfbench directory is put on ``sys.path`` and only read.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

import frameness as fr
import frameness.cli  # noqa: F401  the tracer wraps the names the CLI imported, too

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture
def installed(tracer):
    """An installed Tracer, with each target's (owner, attr, original, owned before) as it was."""
    targets = []
    for module_name, path, *_ in tracer.TARGETS:
        owner, attr = tracer._resolve(module_name, path)
        targets.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
    t = tracer.Tracer()
    t.install()
    try:
        yield t, targets
    finally:
        t.uninstall()
        for owner, attr, original, owned in targets:
            # uninstall sets an inherited method back on the subclass; leave the class as it was
            if not owned and isinstance(owner, type) and vars(owner).get(attr) is original:
                delattr(owner, attr)


def test_every_traced_name_resolves(tracer):
    for module_name, path, *_ in tracer.TARGETS:
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{path} does not resolve"


def test_install_wraps_every_target_and_uninstall_restores_it(installed):
    t, targets = installed
    for owner, attr, original, _ in targets:
        assert getattr(owner, attr).__wrapped__ is original, f"{attr} was not wrapped"
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "frameness"]
    wrappers = [getattr(owner, attr) for owner, attr, _, _ in targets]
    t.uninstall()
    for owner, attr, original, _ in targets:
        assert getattr(owner, attr) is original, f"{attr} was not restored"
    assert not [(m.__name__, k) for m in modules for k, v in vars(m).items() if any(v is w for w in wrappers)]


def test_only_twirl_applications_count_as_twirls(installed):
    t, _ = installed
    rho = fr.random_density_operator(3, np.random.default_rng(0))
    fr.TwirlOperation.u1(fr.ChargeGrading([0, 1, 1])).apply(rho)
    fr.conditional_expectation_channel([(1, 1), (1, 2)]).apply(rho)
    assert [span[0] for span in t.spans].count("asymmetry.twirl") == 1
