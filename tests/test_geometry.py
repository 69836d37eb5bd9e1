import math

import numpy as np
import pytest

from fibercell import CellGeometry, GeometryError


def test_default_cell_measures():
    g = CellGeometry(1.0, (0.5, 0.5), 0.25, 1.0)
    assert g.disk_area == pytest.approx(math.pi / 16, abs=1e-15)
    assert g.matrix_area == pytest.approx(1 - math.pi / 16, abs=1e-15)


def test_disk_tangent_to_boundary_rejected():
    with pytest.raises(GeometryError):
        CellGeometry(1.0, (0.5, 0.5), 0.5, 1.0)


def test_disk_crossing_boundary_rejected():
    with pytest.raises(GeometryError):
        CellGeometry(1.0, (0.2, 0.5), 0.3, 1.0)


def test_height_independent_of_areas():
    g = CellGeometry(1.0, (0.5, 0.5), 0.25, 2.0)
    assert g.height == 2.0
    assert g.disk_area == pytest.approx(math.pi / 16, abs=1e-15)


@pytest.mark.parametrize("side,radius,height", [
    (0.0, 0.25, 1.0), (1.0, -0.1, 1.0), (1.0, 0.25, 0.0)])
def test_nonpositive_dimensions_rejected(side, radius, height):
    with pytest.raises(GeometryError):
        CellGeometry(side, (0.5, 0.5), radius, height)


@pytest.mark.parametrize("side,center,radius,height", [
    (1.0, (math.nan, 0.5), 0.25, 1.0), (math.inf, (0.5, 0.5), 0.25, 1.0),
    (1.0, (0.5, 0.5), 0.25, math.inf)])
def test_non_finite_dimensions_rejected(side, center, radius, height):
    # min(nan, ...) <= radius is False, so the clearance check alone lets
    # a NaN centre through
    with pytest.raises(GeometryError, match="finite"):
        CellGeometry(side, center, radius, height)


@pytest.mark.parametrize("center", [(0.5, 0.5, 9.0), (0.5,), 0.5])
def test_center_must_be_a_pair(center):
    # a third entry used to be dropped, and a single one raised IndexError
    with pytest.raises(GeometryError, match="pair"):
        CellGeometry(1.0, center, 0.25, 1.0)


@pytest.mark.parametrize("fields", [
    pytest.param(dict(center="ab"), id="1.0-ab"),
    pytest.param(dict(center=("0.5", 0.5)), id="1.0-center1"),
    pytest.param(dict(center=(None, 0.5)), id="1.0-center2"),
    pytest.param(dict(side="1.0"), id="1.0-center3"),
    pytest.param(dict(side=True), id="side-True"),
    pytest.param(dict(height=True), id="height-True"),
    pytest.param(dict(radius=np.float32(0.25)), id="radius-float32"),
    pytest.param(dict(side=np.int64(1)), id="side-int64"),
    pytest.param(dict(side=10 ** 401), id="side-401-digits"),
    pytest.param(dict(center=(10 ** 401, 0.5)), id="center-401-digits")])
def test_non_numbers_rejected(fields):
    # "ab" unpacks into two strings, which float() refused with a bare
    # ValueError; a bool or a NumPy scalar other than a float passed as a
    # numbers.Real (height=True built a cell of height 1.0) while RunConfig,
    # whose number rule the cell now shares, refused it; an int too large
    # for a float raised OverflowError at float()
    with pytest.raises(GeometryError, match="finite numbers"):
        CellGeometry(**fields)


def test_fields_stored_as_floats():
    g = CellGeometry(1, [0.5, 0.5], 0.25, 2)
    assert g == CellGeometry(1.0, (0.5, 0.5), 0.25, 2.0)
    assert all(type(v) is float for v in (g.side, *g.center, g.radius, g.height))
    assert isinstance(g.center, tuple)
    # a NumPy float64 is a float, so it is a number by the shared rule
    g = CellGeometry(radius=np.float64(0.25))
    assert g == CellGeometry() and type(g.radius) is float
