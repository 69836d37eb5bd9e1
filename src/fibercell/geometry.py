"""Cell geometry: a square cross-section holding one circular fiber.

The computational cell is ``C x (0, height)`` where ``C`` is a square of
given side and the fiber cross-section ``D`` is a disk strictly inside
``C``.  Everything downstream (meshing, assembly, the limit dispersion
relation) reads the geometry from this one object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class GeometryError(ValueError):
    """Raised when the requested cell geometry is inconsistent."""


@dataclass(frozen=True)
class CellGeometry:
    """Square cell of side ``side`` with a disk of radius ``radius`` at
    ``center`` and vertical extent ``height``.

    Attributes
    ----------
    side : float
        Side length of the square cross-section C.
    center : tuple of float
        Disk center (must keep the disk strictly inside C).
    radius : float
        Disk radius.
    height : float
        Length of the cell in the vertical direction.
    """

    side: float
    center: tuple[float, float]
    radius: float
    height: float

    def __post_init__(self):
        cx, cy = self.center
        dims = (self.side, self.radius, self.height)
        if not all(map(math.isfinite, (*dims, cx, cy))) or min(dims) <= 0:
            raise GeometryError(
                "side, center, radius and height must be finite, and side, radius "
                f"and height positive, got side={self.side}, center={self.center}, "
                f"radius={self.radius}, height={self.height}")
        wall = min(cx, cy, self.side - cx, self.side - cy)
        if wall <= self.radius:
            raise GeometryError(
                f"disk of radius {self.radius} centered at {self.center} is not "
                f"strictly inside the square (clearance {wall - self.radius:g})"
            )

    @property
    def disk_area(self) -> float:
        """Area of the fiber cross-section D."""
        return math.pi * self.radius ** 2

    @property
    def matrix_area(self) -> float:
        """Area of the matrix cross-section C \\ D."""
        return self.side ** 2 - self.disk_area


def build_cell_geometry(side=1.0, center=(0.5, 0.5), radius=0.25, height=1.0) -> CellGeometry:
    """Validate and build a :class:`CellGeometry`.

    Raises
    ------
    GeometryError
        If ``center`` is not a pair, any dimension is non-finite or
        non-positive, or the disk touches/crosses the square boundary.
    """
    try:
        cx, cy = center
    except (TypeError, ValueError):
        raise GeometryError(f"center must be a pair (x, y), got {center!r}") from None
    return CellGeometry(float(side), (float(cx), float(cy)), float(radius), float(height))
