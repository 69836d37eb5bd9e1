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


def is_number(value, kind=(int, float)) -> bool:
    """The one number rule of the cell and the run configuration: an
    instance of ``kind`` that is no bool, and finite as a float."""
    # bool subclasses int and json.load reads NaN/Infinity; none is a number
    # here, nor an int too large for a float
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def vertical_eigenvalues(n, height, name: str = "n") -> list[float]:
    """gamma_1..gamma_n, gamma_j = (j pi / height)^2: the Dirichlet
    eigenvalues of -d^2/dx3^2 on (0, height), one per vertical mode of the
    cell, each from the scalar expression (an array power differs by 1 ulp
    at j = 119, 238 and 555).  Raises ``ValueError`` unless n is an int
    >= 1 by ``is_number`` (so no bool), naming n as ``name``, and the
    height a number > 0."""
    if not is_number(n, int) or n < 1:
        raise ValueError(f"{name} must be >= 1 and an int, got {n!r}")
    if not is_number(height) or height <= 0:
        raise ValueError("gamma must be positive and finite, so the cell height must "
                         f"be a finite number > 0, got {height!r}")
    return [(j * math.pi / height) ** 2 for j in range(1, n + 1)]


@dataclass(frozen=True)
class CellGeometry:
    """Square cell of side ``side`` with a disk of radius ``radius`` at
    ``center`` and vertical extent ``height``.

    The fields are stored as floats.  Raises :class:`GeometryError` if
    ``center`` is not a pair, any entry is not a number by ``is_number``
    (so no bool, and no NumPy scalar but a float), a dimension is not
    positive, or the disk touches or crosses the square boundary.

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

    side: float = 1.0
    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.25
    height: float = 1.0

    def __post_init__(self):
        try:
            cx, cy = self.center
        except (TypeError, ValueError):
            raise GeometryError(
                f"center must be a pair (x, y), got {self.center!r}") from None
        # a non-number reads as NaN, so the finiteness check refuses it
        side, cx, cy, radius, height = values = [
            float(v) if is_number(v) else math.nan
            for v in (self.side, cx, cy, self.radius, self.height)]
        if not all(map(math.isfinite, values)) or min(side, radius, height) <= 0:
            raise GeometryError(
                "side, center, radius and height must be finite numbers, and side, "
                f"radius and height positive, got side={self.side!r}, center="
                f"{self.center!r}, radius={self.radius!r}, height={self.height!r}")
        wall = min(cx, cy, side - cx, side - cy)
        if wall <= radius:
            raise GeometryError(
                f"disk of radius {radius} centered at {(cx, cy)} is not strictly "
                f"inside the square (clearance {wall - radius:g})")
        # frozen: store the floats past the dataclass's __setattr__
        vars(self).update(side=side, center=(cx, cy), radius=radius, height=height)

    @property
    def disk_area(self) -> float:
        """Area of the fiber cross-section D."""
        return math.pi * self.radius ** 2

    @property
    def matrix_area(self) -> float:
        """Area of the matrix cross-section C \\ D."""
        return self.side ** 2 - self.disk_area
