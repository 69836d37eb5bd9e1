"""Semi-analytic spectrum of the limit operator below the first disk
Dirichlet eigenvalue.

The vertical modes of the limit problem satisfy -v'' = delta(lambda) v with

    delta(lambda) = lambda * (1 + |D|/|C\\D|) + lambda^2 * S(lambda) / |C\\D|,

where S(lambda) is the mean over the disk of the fiber profile u0 solving
-Lap u0 = lambda u0 + 1 with u0 = 0 on the disk boundary.  S has a closed
radial form through J0/J1 (the production path) and an eigenfunction series
over the radially symmetric disk modes (the independent oracle):

    closed:  S = (2 pi r J1(s r) / (s J0(s r)) - pi r^2) / lambda,  s = sqrt(lambda)
    series:  S = sum_n c_n^2 / (mu_n - lambda),  mu_n = (j_{0,n}/r)^2,
             c_n^2 = 4 pi r^2 / j_{0,n}^2.

Nonradial disk modes integrate to zero over the disk, so they drop out of
the series.  delta is a strictly increasing bijection of (0, mu_1) onto
(0, inf); solving delta(lambda) = (j pi / L)^2 by bisection produces the
limit eigenvalues, which accumulate at mu_1 and stay above
mu_0 = phi^-1(lambda_0).

J0, J1 and the zeros of J0 come from ``scipy.special``, imported on the
first Bessel evaluation: a cold start (import, config, DispersionParams)
evaluates none and so does not pay for that import.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGeometry

J01 = 2.404825557695773   # first zero of J0, correctly rounded
_INTERVAL_MARGIN = 1e-10  # relative margin keeping bisection off 0 and mu_1
_SMALL_LAMBDA = 1e-8      # below this, use the torsion expansion of S and u0


@functools.cache
def _special():
    return importlib.import_module("scipy.special")


def bessel_j0(x):
    """J0(x), elementwise for an array."""
    return _special().j0(x)


def bessel_j1(x):
    """J1(x), elementwise for an array."""
    return _special().j1(x)


def bessel_j0_zeros(n: int) -> np.ndarray:
    """First n positive zeros of J0."""
    return _special().jn_zeros(0, n)


def bessel_j0_zero(n: int) -> float:
    """n-th positive zero of J0 (n >= 1)."""
    if n < 1:
        raise ValueError("zero index must be >= 1")
    return float(bessel_j0_zeros(n)[-1])


@dataclass
class DispersionParams:
    """Geometry-derived constants of the dispersion function.

    mu1 is the first disk Dirichlet eigenvalue (j_{0,1}/r)^2, lambda0 the
    first vertical eigenvalue (pi/L)^2, c_coef = 1 + |D|/|C\\D| and
    cp_coef = 1/|C\\D|.  ``eigendata`` holds the radial disk modes 1..n_terms+1
    of ``disk_radial_eigendata``, built on first use.
    """

    geometry: CellGeometry
    n_terms: int = 500
    mu1: float = field(init=False)
    lambda0: float = field(init=False)
    c_coef: float = field(init=False)
    cp_coef: float = field(init=False)

    def __post_init__(self):
        if self.n_terms < 50:
            raise ValueError("n_terms must be at least 50")
        g = self.geometry
        self.mu1 = (J01 / g.radius) ** 2
        self.lambda0 = (math.pi / g.height) ** 2
        self.c_coef = 1.0 + g.disk_area / g.matrix_area
        self.cp_coef = 1.0 / g.matrix_area

    @functools.cached_property
    def eigendata(self) -> np.ndarray:
        return disk_radial_eigendata(self.geometry.radius, self.n_terms + 1)


@dataclass
class LimitRoot:
    """Limit eigenvalue lam solving delta(lam) = gamma_j = (j pi / L)^2,
    with the disk mean S = int_D u0(lam) and the final bisection bracket."""

    j: int
    gamma_j: float
    lam: float
    mean_u0: float
    bracket_width: float


def disk_radial_eigendata(r: float, n: int) -> np.ndarray:
    """(mu_n, c_n^2) for the first n radially symmetric Dirichlet modes of
    the disk of radius r: mu_n = (j_{0,n}/r)^2, c_n^2 = 4 pi r^2 / j_{0,n}^2.

    c_n is the disk integral of the L2-normalized mode
    J0(j_{0,n} rho / r) / (sqrt(pi) r |J1(j_{0,n})|).
    """
    if n < 1:
        raise ValueError("need at least one mode")
    z = bessel_j0_zeros(n)
    return np.column_stack([(z / r) ** 2, 4.0 * math.pi * r * r / (z * z)])


def mean_u0_series(lam: float, params: DispersionParams):
    """Eigenfunction-series evaluation of S(lambda) with its tail bound.

    Returns (value, tail_bound) where the tail bound majorizes the dropped
    modes: (|D| - sum c_n^2) / (mu_{N+1} - lambda), using Parseval on the
    disk indicator (all its mass is radial).
    """
    _check_lambda(lam, params.mu1)
    mu, cn2 = params.eigendata[:-1].T
    value = float(np.sum(cn2 / (mu - lam)))
    mu_next = params.eigendata[-1, 0]
    mass_left = params.geometry.disk_area - float(np.sum(cn2))
    tail = float(mass_left / (mu_next - lam))
    return value, tail


def mean_u0_closed(lam: float, r: float) -> float:
    """Closed radial form of S(lambda) = int_D u0.

    For lambda below ``_SMALL_LAMBDA`` the torsion expansion
    pi r^4/8 + lambda pi r^6/48 avoids the 0/0 cancellation; the formula has
    a pole at mu_1 where J0(sqrt(lambda) r) vanishes.
    """
    _check_lambda(lam, (J01 / r) ** 2)
    if lam <= _SMALL_LAMBDA:
        return math.pi * r ** 4 / 8.0 + lam * math.pi * r ** 6 / 48.0
    s = math.sqrt(lam)
    j0 = bessel_j0(s * r)
    return float((2.0 * math.pi * r * bessel_j1(s * r) / (s * j0)
                  - math.pi * r * r) / lam)


def u0_eval(lam: float, rho, r: float):
    """Fiber profile u0(rho) = (J0(sqrt(lam) rho)/J0(sqrt(lam) r) - 1)/lam,
    the radial solution of -Lap u0 = lam u0 + 1 vanishing at rho = r.

    Accepts scalar or array rho in [0, r].  J0 is evaluated once on the
    whole array and once at r by the same function, so u0(r) = 0 exactly.
    """
    _check_lambda(lam, (J01 / r) ** 2)
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < -1e-14) or np.any(rho_arr > r * (1 + 1e-12)):
        raise ValueError("rho must lie in [0, r]")
    rho_arr = np.clip(rho_arr, 0.0, r)
    if lam <= _SMALL_LAMBDA:
        # torsion solution plus first correction in lambda
        out = (r * r - rho_arr ** 2) / 4.0 + lam * (
            3 * r ** 4 + rho_arr ** 4 - 4 * r * r * rho_arr ** 2) / 64.0
    else:
        s = math.sqrt(lam)
        j0r = bessel_j0(s * r)
        j0v = bessel_j0(s * rho_arr)
        out = (j0v / j0r - 1.0) / lam
    return out if np.ndim(out) else float(out)


def delta(lam: float, params: DispersionParams) -> float:
    """Dispersion function delta(lambda) = c_coef*lambda
    + cp_coef*lambda^2*S(lambda), strictly increasing on (0, mu1)."""
    _check_lambda(lam, params.mu1)
    s_val = mean_u0_closed(lam, params.geometry.radius)
    return params.c_coef * lam + params.cp_coef * lam * lam * s_val


def mu0_lower_bound(params: DispersionParams) -> float:
    """mu0 = phi^-1(lambda0) with
    phi(t) = t (1 + |D|/|C\\D| + t |D| / (|C\\D| (mu1 - t))).

    phi majorizes delta (since S(t) <= |D|/(mu1 - t)), so every limit
    eigenvalue is at least mu0.  Solved by bisection to relative bracket
    width 1e-12.
    """
    g = params.geometry
    disk = g.disk_area
    matrix = g.matrix_area

    def phi(t):
        return t * (1.0 + disk / matrix + t * disk / (matrix * (params.mu1 - t)))

    lo = _INTERVAL_MARGIN * params.mu1
    hi = params.mu1 * (1.0 - _INTERVAL_MARGIN)
    target = params.lambda0
    if phi(lo) > target:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * params.mu1:
            break
    return 0.5 * (lo + hi)


def limit_eigenvalues(params: DispersionParams, j_max: int,
                      rel_tol: float = 1e-12) -> list[LimitRoot]:
    """Roots of delta(lambda) = (j pi / L)^2 for j = 1..j_max, ascending.

    Bisection on (0, mu1) with a relative margin at both ends.  Once the
    bracket is below ``rel_tol`` it stops as soon as
    |delta(lam) - gamma_j| <= 1e-10 gamma_j, and otherwise keeps shrinking
    to a 4-ulp bracket, where it stops whether or not that residual holds:
    near the pole of delta at mu1 no double may meet it (132 of the 9000
    roots j <= 1000 on the radii 0.2496..0.2504 miss it).  The residual is
    not checked here; ``delta_check`` in the root exports re-evaluates it.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    roots = []
    L = params.geometry.height
    for j in range(1, j_max + 1):
        gamma_j = (j * math.pi / L) ** 2
        lo = _INTERVAL_MARGIN * params.mu1
        hi = params.mu1 * (1.0 - _INTERVAL_MARGIN)
        best = None
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            val = delta(mid, params)
            if val < gamma_j:
                lo = mid
            else:
                hi = mid
            best = 0.5 * (lo + hi)
            if (hi - lo) <= rel_tol * params.mu1:
                if abs(delta(best, params) - gamma_j) <= 1e-10 * gamma_j:
                    break
                if (hi - lo) <= 4.0 * np.spacing(hi):
                    break
        s_val = mean_u0_closed(best, params.geometry.radius)
        roots.append(LimitRoot(j=j, gamma_j=gamma_j, lam=float(best),
                               mean_u0=float(s_val),
                               bracket_width=float(hi - lo)))
    return roots


@dataclass
class LimitEigenfunction:
    """Evaluator of the limit eigenvector: (lam*u0 + 1) v_j on the fiber,
    v_j alone on the matrix, with v_j(x3) = sqrt(2/L) sin(j pi x3 / L).
    Continuous across the disk boundary because u0(r) = 0."""

    root: LimitRoot
    params: DispersionParams

    def vertical(self, x3):
        L = self.params.geometry.height
        j = self.root.j
        return math.sqrt(2.0 / L) * np.sin(j * math.pi * np.asarray(x3, float) / L)

    def fiber_profile(self, rho):
        """Horizontal factor lam*u0(rho) + 1 inside the disk."""
        r = self.params.geometry.radius
        return self.root.lam * u0_eval(self.root.lam, rho, r) + 1.0

    def __call__(self, y, x3):
        y = np.asarray(y, dtype=float)
        c = np.asarray(self.params.geometry.center)
        rho = np.hypot(y[..., 0] - c[0], y[..., 1] - c[1])
        r = self.params.geometry.radius
        horiz = np.where(rho <= r,
                         self.fiber_profile(np.minimum(rho, r)),
                         1.0)
        return horiz * self.vertical(x3)


def limit_eigenfunction(root: LimitRoot, params: DispersionParams) -> LimitEigenfunction:
    """Evaluator for the limit eigenvector attached to one root."""
    return LimitEigenfunction(root=root, params=params)


def write_roots_csv(roots, params: DispersionParams, path,
                    config_hash: str = "") -> None:
    """CSV export ``j, gamma_j, lambda_k, S, delta_check`` (17 significant
    digits; delta_check re-evaluates delta at the root)."""
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j", "gamma_j", "lambda_k", "S", "delta_check"])
        for root in roots:
            writer.writerow([root.j,
                             f"{root.gamma_j:.17g}",
                             f"{root.lam:.17g}",
                             f"{root.mean_u0:.17g}",
                             f"{delta(root.lam, params):.17g}"])


def write_roots_json(roots, params: DispersionParams, path,
                     config_hash: str = "") -> None:
    """Full LimitRoot records plus the dispersion constants."""
    payload = {
        "config_hash": config_hash,
        "mu1": params.mu1,
        "lambda0": params.lambda0,
        "mu0": mu0_lower_bound(params),
        "c_coef": params.c_coef,
        "cp_coef": params.cp_coef,
        "n_terms": params.n_terms,
        "roots": [
            {"j": root.j, "gamma_j": root.gamma_j, "lambda": root.lam,
             "mean_u0": root.mean_u0, "bracket_width": root.bracket_width,
             "delta_check": delta(root.lam, params)}
            for root in roots],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_lambda(lam: float, mu1: float) -> None:
    if not (0.0 < lam < mu1):
        raise ValueError(f"lambda must lie in (0, mu1={mu1:g}), got {lam:g}")
