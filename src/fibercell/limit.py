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
(0, inf); solving delta(lambda) = (j pi / L)^2 produces the limit
eigenvalues, which accumulate at mu_1 and stay above mu_0 = phi^-1(lambda_0).

``delta`` and ``mean_u0_closed`` are elementwise: a float gives a float and
an array an array.  So one array bisection (``_bisect``) solves for every j
at once, one ``delta`` call per step on the roots still open, while each
root keeps its own stop rule: every root gets the bits a bisection of it
alone would give.  ``mu0_lower_bound`` goes through the same bisection.

J0, J1 and the zeros of J0 come from ``scipy.special``, imported on the
first Bessel evaluation: a cold start (import, config, DispersionParams)
evaluates none and so does not pay for that import.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field

import numpy as np

from .config import write_json, write_table
from .geometry import CellGeometry, is_number, vertical_eigenvalues

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
    first vertical eigenvalue gamma_1 = (pi/L)^2, c_coef = 1 + |D|/|C\\D| and
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
        self.lambda0 = vertical_eigenvalues(1, g.height)[0]
        self.c_coef = 1.0 + g.disk_area / g.matrix_area
        self.cp_coef = 1.0 / g.matrix_area

    @functools.cached_property
    def eigendata(self) -> np.ndarray:
        return disk_radial_eigendata(self.geometry.radius, self.n_terms + 1)


@dataclass
class LimitRoot:
    """Limit eigenvalue lam solving delta(lam) = gamma_j = (j pi / L)^2,
    with the disk mean S = int_D u0(lam), the final bisection bracket and
    delta_check = delta(lam), the value the bisection stopped on."""

    j: int
    gamma_j: float
    lam: float
    mean_u0: float
    bracket_width: float
    delta_check: float


def disk_radial_eigendata(r: float, n: int) -> np.ndarray:
    """(mu_n, c_n^2) for the first n radially symmetric Dirichlet modes of
    the disk of radius r: mu_n = (j_{0,n}/r)^2, c_n^2 = 4 pi r^2 / j_{0,n}^2.

    c_n is the disk integral of the L2-normalized mode
    J0(j_{0,n} rho / r) / (sqrt(pi) r |J1(j_{0,n})|).  Raises ValueError
    unless r is a number > 0 and n an int >= 1 by ``is_number``.
    """
    if not (is_number(n, int) and n >= 1):
        raise ValueError(f"need at least one mode, and an int, got {n!r}")
    if not (is_number(r) and r > 0):
        raise ValueError(f"r must be a finite number > 0, got {r!r}")
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


def mean_u0_closed(lam, r: float):
    """Closed radial form of S(lambda) = int_D u0, elementwise: a float
    lambda gives a float, an array an array of the same shape.

    For lambda at or below ``_SMALL_LAMBDA`` the torsion expansion
    pi r^4/8 + lambda pi r^6/48 avoids the 0/0 cancellation, and the Bessel
    form is evaluated on the other entries only; the formula has a pole at
    mu_1 where J0(sqrt(lambda) r) vanishes.
    """
    lam = np.asarray(lam, dtype=float)
    _check_lambda(lam, (J01 / r) ** 2)
    out = np.empty_like(lam)
    small = lam <= _SMALL_LAMBDA
    if small.any():
        out[small] = math.pi * r ** 4 / 8.0 + lam[small] * math.pi * r ** 6 / 48.0
    big = ~small
    if big.any():
        lam_big = lam[big]
        s = np.sqrt(lam_big)
        out[big] = (2.0 * math.pi * r * bessel_j1(s * r) / (s * bessel_j0(s * r))
                    - math.pi * r * r) / lam_big
    return out if out.ndim else float(out)


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


def delta(lam, params: DispersionParams):
    """Dispersion function delta(lambda) = c_coef*lambda
    + cp_coef*lambda^2*S(lambda), strictly increasing on (0, mu1);
    elementwise like ``mean_u0_closed``, which checks that every lambda
    lies there."""
    s_val = mean_u0_closed(lam, params.geometry.radius)
    return params.c_coef * lam + params.cp_coef * lam * lam * s_val


def _bisect(f, target, mu1: float, stop):
    """One bisection for the increasing f = target[i] on (0, mu1), a
    relative margin off both ends, over every target at once.

    Each step makes one call of the elementwise f, on the midpoints of the
    brackets [lo, hi] still open.  A target whose ``stop(lo, hi, value,
    target)`` mask entry holds keeps (midpoint, hi - lo, value) of that
    step; one still open after 220 steps (long past 1 ulp) keeps its last
    midpoint and value.  So each target follows exactly the steps a
    bisection of it alone would take.  Returns the three arrays.
    """
    target = np.asarray(target, dtype=float)
    mid, width, value = (np.empty_like(target) for _ in range(3))
    open_ = np.arange(target.size)
    lo = np.full(target.size, _INTERVAL_MARGIN * mu1)
    hi = np.full(target.size, mu1 * (1.0 - _INTERVAL_MARGIN))
    for _ in range(220):
        mid[open_] = m = 0.5 * (lo + hi)
        value[open_] = v = f(m)
        width[open_] = hi - lo
        goal = target[open_]
        keep = ~stop(lo, hi, v, goal)
        below = v < goal
        lo = np.where(below, m, lo)[keep]
        hi = np.where(below, hi, m)[keep]
        open_ = open_[keep]
        if not open_.size:
            break
    width[open_] = hi - lo
    return mid, width, value


def _check_floor(params: DispersionParams) -> None:
    """Raises ``ValueError`` unless gamma_1 = lambda0 lies above delta at
    the bisection floor ``_INTERVAL_MARGIN * mu1``.  Otherwise the first
    roots lie below the floor and bisection returns the floor itself, as
    for a cell taller than about 2.93e4 at r = 0.25."""
    floor = _INTERVAL_MARGIN * params.mu1
    if delta(floor, params) >= params.lambda0:
        raise ValueError(
            f"cell too tall for the limit roots: gamma_1 = {params.lambda0:.6g} "
            f"is not above delta at the bisection floor lambda = {floor:.6g}")


def mu0_lower_bound(params: DispersionParams) -> float:
    """mu0 = phi^-1(lambda0) with
    phi(t) = t (1 + |D|/|C\\D| + t |D| / (|C\\D| (mu1 - t))).

    phi majorizes delta (since S(t) <= |D|/(mu1 - t)), so every limit
    eigenvalue is at least mu0.  Solved by bisection to bracket width
    1e-12 mu1, returning the midpoint; for tall cells, where mu0 and the
    first root lie closer than that width, the midpoint can exceed the
    first root (height 3000: by 2.3e-11).  Raises ``ValueError`` where
    ``_check_floor`` does.
    """
    _check_floor(params)
    g = params.geometry
    disk = g.disk_area
    matrix = g.matrix_area
    mu1 = params.mu1

    def phi(t):
        return t * (1.0 + disk / matrix + t * disk / (matrix * (mu1 - t)))

    if phi(_INTERVAL_MARGIN * mu1) > params.lambda0:
        return _INTERVAL_MARGIN * mu1
    return float(_bisect(phi, [params.lambda0], mu1,
                         lambda lo, hi, value, target: hi - lo <= 1e-12 * mu1)[0][0])


def limit_eigenvalues(params: DispersionParams, j_max: int,
                      rel_tol: float = 1e-12) -> list[LimitRoot]:
    """Roots of delta(lambda) = (j pi / L)^2 for j = 1..j_max, ascending.

    One array bisection (``_bisect``) over all j at once, on (0, mu1) with
    a relative margin at both ends; each step evaluates ``delta`` once, on
    the roots still open.  Each root keeps its own stop rule: once its
    bracket is below ``rel_tol`` it stops as soon as
    |delta(lam) - gamma_j| <= 1e-10 gamma_j, and otherwise keeps shrinking
    to a 4-ulp bracket, where it stops whether or not that residual holds:
    near the pole of delta at mu1 no double may meet it (132 of the 9000
    roots j <= 1000 on the radii 0.2496..0.2504 miss it).  The residual is
    not checked here; ``delta_check`` is delta at the accepted root, the
    value of its last bisection step, and no lambda is evaluated twice for
    one root.  S at the roots comes from one ``mean_u0_closed`` call.
    Raises ``ValueError`` where ``_check_floor`` does, and where
    ``vertical_eigenvalues``, the source of every gamma_j, refuses j_max.
    """
    gammas = vertical_eigenvalues(j_max, params.geometry.height, "j_max")
    _check_floor(params)
    mu1 = params.mu1

    def stop(lo, hi, value, gamma):
        return (hi - lo <= rel_tol * mu1) & (
            (np.abs(value - gamma) <= 1e-10 * gamma)
            | (hi - lo <= 4.0 * np.spacing(hi)))

    lam, width, value = _bisect(lambda t: delta(t, params), gammas, mu1, stop)
    mean = mean_u0_closed(lam, params.geometry.radius)
    return [LimitRoot(j=j, gamma_j=gamma_j, lam=root, mean_u0=s_val,
                      bracket_width=w, delta_check=v)
            for j, gamma_j, root, s_val, w, v in zip(
                range(1, j_max + 1), gammas, lam.tolist(), mean.tolist(),
                width.tolist(), value.tolist())]


def write_roots_csv(roots, params: DispersionParams, path,
                    config_hash: str = "") -> None:
    """CSV export ``j, gamma_j, lambda_k, S, delta_check`` (delta_check is
    delta at the accepted root)."""
    write_table(path, ("j", "gamma_j", "lambda_k", "S", "delta_check"),
                ((root.j, root.gamma_j, root.lam, root.mean_u0,
                  root.delta_check) for root in roots),
                config_hash)


def write_roots_json(roots, params: DispersionParams, path,
                     config_hash: str = "") -> None:
    """Full LimitRoot records plus the dispersion constants."""
    write_json(path, {
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
             "delta_check": root.delta_check}
            for root in roots],
    })


def _check_lambda(lam, mu1: float) -> None:
    """Raises ``ValueError`` unless every entry of lam lies in (0, mu1)."""
    lam = np.asarray(lam, dtype=float)
    outside = ~((0.0 < lam) & (lam < mu1))
    if outside.any():
        raise ValueError(f"lambda must lie in (0, mu1={mu1:g}), "
                         f"got {lam[outside].flat[0]:g}")
