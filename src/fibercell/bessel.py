"""Bessel functions J0, J1 and the positive zeros of J0.

Self-contained double-precision evaluation, no scipy.special:

* ``x <= 12``: ascending power series.  The largest partial term at x = 12
  is ~4.2e3, so roundoff stays near 5e-13 absolute.
* ``x > 12``: Hankel asymptotic expansion with the modulus/phase series
  P, Q truncated at the smallest term (already ~1e-13 at x = 12, machine
  precision by x = 15).

``bessel_j0``/``bessel_j1`` take a float or an array.  The array path runs
the same recurrences on every element, each element stopping where the
scalar loop would stop, so both paths return the same value.

Zeros of J0 start from the McMahon expansion and are polished together by
array Newton using J0' = -J1; a bisection fallback guards against a Newton
step leaving the bracket ``((n-1)*pi, n*pi)``.  Computed zeros are cached.
"""

from __future__ import annotations

import math
import threading

import numpy as np

SERIES_ASYMPTOTIC_CROSSOVER = 12.0
_MAX_SERIES_TERMS = 80


def bessel_j0(x):
    """J0(x) for x >= 0: a float for a scalar, an array for an array."""
    if isinstance(x, float):
        if x < 0:
            raise ValueError("bessel_j0 requires x >= 0")
        if x <= SERIES_ASYMPTOTIC_CROSSOVER:
            return _j0_series(x)
        return _j_asymptotic(0, x)
    return _j_array(0, x)


def bessel_j1(x):
    """J1(x) for x >= 0: a float for a scalar, an array for an array."""
    if isinstance(x, float):
        if x < 0:
            raise ValueError("bessel_j1 requires x >= 0")
        if x <= SERIES_ASYMPTOTIC_CROSSOVER:
            return _j1_series(x)
        return _j_asymptotic(1, x)
    return _j_array(1, x)


def _j0_series(x: float) -> float:
    # J0(x) = sum_m (-1)^m (x^2/4)^m / (m!)^2
    q = 0.25 * x * x
    term = 1.0
    s = 1.0
    for m in range(1, _MAX_SERIES_TERMS + 1):
        term *= -q / (m * m)
        s += term
        if abs(term) < 1e-18 * max(1.0, abs(s)):
            break
    return s


def _j1_series(x: float) -> float:
    # J1(x) = (x/2) sum_m (-1)^m (x^2/4)^m / (m! (m+1)!)
    q = 0.25 * x * x
    term = 0.5 * x
    s = term
    for m in range(1, _MAX_SERIES_TERMS + 1):
        term *= -q / (m * (m + 1))
        s += term
        if abs(term) < 1e-18 * max(1.0, abs(s)):
            break
    return s


def _j_asymptotic(nu: int, x: float) -> float:
    # J_nu(x) ~ sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (2 nu + 1) pi/4,
    # with a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) feeding
    # P = sum (-1)^k a_{2k} x^{-2k}, Q = sum (-1)^k a_{2k+1} x^{-2k-1}.
    mu = 4.0 * nu * nu
    a = 1.0
    xk = 1.0
    p = 0.0
    q = 0.0
    sgn_p = 1.0
    sgn_q = 1.0
    k = 0
    prev = math.inf
    while k < 60:
        term = a / xk
        if abs(term) > prev:
            break  # past the smallest term: stop before the series diverges
        prev = abs(term)
        if k % 2 == 0:
            p += sgn_p * term
            sgn_p = -sgn_p
        else:
            q += sgn_q * term
            sgn_q = -sgn_q
        k += 1
        a *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        xk *= x
    chi = x - (2 * nu + 1) * math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def _j_array(nu: int, x):
    """J_nu on an array: the series and the asymptotic branch of the scalar
    functions, applied per element."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"bessel_j{nu} requires x >= 0")
    out = np.empty_like(x)
    small = x <= SERIES_ASYMPTOTIC_CROSSOVER
    out[small] = _series_array(nu, x[small])
    out[~small] = _asymptotic_array(nu, x[~small])
    return out if out.ndim else float(out)


def _series_array(nu: int, x: np.ndarray) -> np.ndarray:
    # the loops of _j0_series/_j1_series; an element stops changing once
    # its scalar loop would have stopped
    q = 0.25 * x * x
    term = 0.5 * x if nu else np.ones_like(x)
    s = term.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, _MAX_SERIES_TERMS + 1):
        term = term * (-q / (m * (m + nu)))
        s = np.where(active, s + term, s)
        active &= np.abs(term) >= 1e-18 * np.maximum(1.0, np.abs(s))
        if not active.any():
            break
    return s


def _asymptotic_array(nu: int, x: np.ndarray) -> np.ndarray:
    # the loop of _j_asymptotic with a per-element stop at the smallest term
    mu = 4.0 * nu * nu
    a = 1.0
    xk = np.ones_like(x)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    sign = 1.0
    prev = np.full_like(x, math.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(60):
        term = a / xk
        active &= ~(np.abs(term) > prev)
        if not active.any():
            break
        prev = np.abs(term)
        if k % 2 == 0:
            p = np.where(active, p + sign * term, p)
        else:
            q = np.where(active, q + sign * term, q)
            sign = -sign
        a *= (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        xk = xk * x
    chi = x - (2 * nu + 1) * math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


_zero_cache: list[float] = []
_zero_lock = threading.Lock()


def bessel_j0_zero(n: int) -> float:
    """n-th positive zero of J0 (n >= 1), |J0(zero)| <= 1e-11."""
    if n < 1:
        raise ValueError("zero index must be >= 1")
    with _zero_lock:
        if len(_zero_cache) < n:
            _zero_cache.extend(_compute_j0_zeros(len(_zero_cache) + 1, n))
        return _zero_cache[n - 1]


def bessel_j0_zeros(n: int):
    """First n positive zeros of J0 as a list."""
    bessel_j0_zero(n)
    with _zero_lock:
        return list(_zero_cache[:n])


def _compute_j0_zeros(first: int, last: int) -> list[float]:
    """Zeros first..last of J0: array Newton from the McMahon starts, with
    bisection for any zero whose Newton step leaves its bracket."""
    n = np.arange(first, last + 1, dtype=float)
    # McMahon: j_{0,n} ~ b + 1/(8b) - 31/(384 b^3) + 3779/(15360 b^5), b = (n - 1/4) pi
    b = (n - 0.25) * math.pi
    x = b + 1.0 / (8.0 * b) - 31.0 / (384.0 * b ** 3) + 3779.0 / (15360.0 * b ** 5)
    lo = (n - 1) * math.pi
    hi = n * math.pi + 0.5
    bisect = np.zeros(len(n), dtype=bool)
    active = np.arange(len(n))
    last_step = np.full(len(n), math.inf)
    for _ in range(60):
        xa = x[active]
        step = bessel_j0(xa) / -bessel_j1(xa)
        x_new = xa - step
        left = ~((lo[active] < x_new) & (x_new < hi[active]))
        bisect[active[left]] = True
        x[active] = np.where(left, xa, x_new)
        # stop at 1e-15 relative, or once the step no longer shrinks: near
        # x = 12 the series' roundoff keeps Newton from getting closer
        size = np.abs(step)
        going = ~left & (size > 1e-15 * x_new) & (size < last_step[active])
        last_step[active] = size
        active = active[going]
        if not active.size:
            break
    bisect |= np.abs(bessel_j0(x)) > 1e-11
    for i in np.flatnonzero(bisect):
        x[i] = _bisect_j0_zero(lo[i], hi[i])
    return x.tolist()


def _bisect_j0_zero(lo: float, hi: float) -> float:
    # bracket so that J0 changes sign; zeros of J0 are simple
    a, b = lo + 1e-9, hi
    fa = bessel_j0(a)
    while bessel_j0(b) * fa > 0:
        b -= 0.1 * (b - a)
        if b <= a:
            raise RuntimeError("failed to bracket J0 zero")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = bessel_j0(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < 1e-15 * b:
            break
    return 0.5 * (a + b)
