"""The names the benchmark harness in ``perfbench/`` reaches into.

``perfbench/spans.py`` wraps the module attributes in ``TARGETS`` to time
the layers, and a name that no longer resolves turns its metric into null;
``perfbench/workloads.py`` calls ``cli.run_command`` with ``threads=`` and
two spectrum functions with positional arguments.
These tests only read ``perfbench/``.
"""

import inspect
import os
import sys

import pytest

import fibercell as fc
from fibercell import cli, spectrum

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def spans():
    if not os.path.isfile(os.path.join(PERFBENCH, "spans.py")):
        pytest.skip("perfbench/ is not part of this checkout")
    sys.path.insert(0, PERFBENCH)
    try:
        import spans as module
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_every_span_target_resolves(spans):
    missing = [(module, attr) for module, attr, _, _ in spans.TARGETS
               if spans._resolve(module, attr) is None]
    assert missing == []
    for module, attr, _, _ in spans.TARGETS:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name))


def test_run_command_accepts_threads():
    assert "threads" in inspect.signature(cli.run_command).parameters


def test_positional_signatures():
    # workloads.py calls mode_spectrum(mesh, eps, j, height, k, tol=) and
    # discrete_disk_mu1(mesh, tol=)
    def names(func):
        return list(inspect.signature(func).parameters)

    assert names(spectrum.mode_spectrum)[:5] == ["mesh", "eps", "j", "L", "k"]
    assert names(spectrum.discrete_disk_mu1) == ["mesh", "tol"]


def test_u0_eval_second_parameter_is_rho():
    # the u0_eval span hook reads the point count from args[1] or rho=
    assert list(inspect.signature(fc.u0_eval).parameters)[1] == "rho"
