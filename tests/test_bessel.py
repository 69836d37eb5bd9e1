import math

import numpy as np
import pytest

from fibercell import bessel_j0, bessel_j0_zero, bessel_j0_zeros, bessel_j1


def test_values_at_zero():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j1(0.0) == 0.0


@pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
def test_derivative_identity_j0prime_is_minus_j1(x):
    # central differences oracle for J0'
    h = 1e-5
    deriv = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
    assert deriv == pytest.approx(-bessel_j1(x), abs=1e-8)


def test_recurrence_j1_over_x_plus_j1prime_equals_j0():
    # J1' from a 5-point central-difference oracle, O(h^4)
    x, h = 3.0, 1e-3
    j1p = (8 * (bessel_j1(x + h) - bessel_j1(x - h))
           - (bessel_j1(x + 2 * h) - bessel_j1(x - 2 * h))) / (12 * h)
    assert bessel_j1(x) / x + j1p == pytest.approx(bessel_j0(x), abs=1e-10)


def test_first_zeros_against_bisection_oracle():
    # frozen from bisection on the series-evaluated J0
    assert bessel_j0_zero(1) == pytest.approx(2.404825557695773, abs=1e-11)
    assert bessel_j0_zero(2) == pytest.approx(5.520078110286311, abs=1e-11)


def test_zero_residuals_and_ordering():
    zeros = bessel_j0_zeros(60)
    assert all(b > a for a, b in zip(zeros, zeros[1:]))
    for z in zeros:
        assert abs(bessel_j0(z)) <= 1e-11


def test_asymptotic_zero_spacing():
    z50, z51 = bessel_j0_zero(50), bessel_j0_zero(51)
    assert math.pi - 0.01 < z51 - z50 < math.pi + 0.01


def test_zeros_interlace_with_j1_sign_changes():
    zeros = bessel_j0_zeros(20)
    for a, b in zip(zeros, zeros[1:]):
        # J1 has exactly one sign change strictly between consecutive J0 zeros
        assert bessel_j1(a) * bessel_j1(b) < 0


def test_known_amplitude_bounds_sampled():
    xs = np.linspace(0.0, 100.0, 2001)
    j0 = np.array([bessel_j0(float(x)) for x in xs])
    j1 = np.array([bessel_j1(float(x)) for x in xs])
    assert np.all(np.abs(j0) <= 1.0 + 1e-14)
    assert np.all(np.abs(j1) <= 0.59)


def test_series_asymptotic_crossover_agreement():
    from fibercell.bessel import _j0_series, _j1_series, _j_asymptotic
    for x in np.linspace(11.0, 13.0, 81):
        assert abs(_j0_series(float(x)) - _j_asymptotic(0, float(x))) <= 1e-11
        assert abs(_j1_series(float(x)) - _j_asymptotic(1, float(x))) <= 1e-11


def test_scipy_cross_validation():
    # independent library oracle on a broad sample
    from scipy.special import j0 as sp_j0, j1 as sp_j1
    xs = np.concatenate([np.linspace(0.01, 30, 500), [50.0, 123.4, 1570.0]])
    for x in xs:
        assert bessel_j0(float(x)) == pytest.approx(float(sp_j0(x)), abs=5e-12)
        assert bessel_j1(float(x)) == pytest.approx(float(sp_j1(x)), abs=5e-12)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j0(-1.0)
    with pytest.raises(ValueError):
        bessel_j0_zero(0)


def test_array_matches_scalar_across_crossover():
    # the array path follows each element's scalar recurrence, on both
    # sides of the series/asymptotic crossover at x = 12
    xs = np.linspace(0.0, 40.0, 4001)
    assert np.any(xs == 12.0)
    for fn in (bessel_j0, bessel_j1):
        values = fn(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        scalar = np.array([fn(float(x)) for x in xs])
        assert np.max(np.abs(values - scalar)) <= 1e-15
        grid = fn(xs[:4000].reshape(40, 100))
        assert np.array_equal(grid.ravel(), values[:4000])


def test_array_rejects_negative_and_keeps_scalars():
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, -1e-3]))
    assert isinstance(bessel_j0(np.float32(2.0)), float)
    assert bessel_j0(np.array(3.0)) == bessel_j0(3.0)
    assert bessel_j1(np.array([], dtype=float)).shape == (0,)


def test_zero_table_residuals_and_brackets():
    # the 501 zeros DispersionParams needs, from one array Newton solve
    zeros = np.array(bessel_j0_zeros(501))
    assert np.all(np.abs(bessel_j0(zeros)) <= 1e-11)
    n = np.arange(1, 502)
    assert np.all(((n - 1) * math.pi < zeros) & (zeros < n * math.pi))
