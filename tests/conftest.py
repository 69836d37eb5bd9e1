import time

import pytest

import fibercell as fc


@pytest.fixture(scope="session")
def geometry():
    return fc.CellGeometry()


@pytest.fixture(scope="session")
def mesh12(geometry):
    return fc.generate_mesh(geometry, 12)


@pytest.fixture(scope="session")
def mesh16(geometry):
    return fc.generate_mesh(geometry, 16)


@pytest.fixture(scope="session")
def mesh24(geometry):
    return fc.generate_mesh(geometry, 24)


@pytest.fixture(scope="session")
def mesh64(geometry):
    return fc.generate_mesh(geometry, 64)


@pytest.fixture(scope="session")
def params(geometry):
    return fc.DispersionParams(geometry=geometry, n_terms=500)


@pytest.fixture(scope="session")
def sweep(geometry):
    """Desk-scale epsilon sweep shared by the acceptance criteria; returns
    (report, wall_seconds)."""
    t0 = time.time()
    report = fc.convergence_sweep(geometry, [0.4, 0.2, 0.1, 0.05], 64, 8)
    return report, time.time() - t0
