"""J0, J1 and the J0 zeros that ``fibercell.limit`` takes from scipy.special."""

import math

import numpy as np
import pytest

from fibercell.limit import bessel_j0, bessel_j0_zero, bessel_j0_zeros, bessel_j1


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
    # frozen from bisection on a power-series J0
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
    assert np.all(np.abs(bessel_j0(xs)) <= 1.0 + 1e-14)
    assert np.all(np.abs(bessel_j1(xs)) <= 0.59)


def test_zero_index_must_be_positive():
    with pytest.raises(ValueError):
        bessel_j0_zero(0)


def test_zero_table_residuals_and_brackets():
    # the 501 zeros of the DispersionParams eigendata at n_terms = 500
    zeros = bessel_j0_zeros(501)
    assert np.all(np.abs(bessel_j0(zeros)) <= 1e-11)
    n = np.arange(1, 502)
    assert np.all(((n - 1) * math.pi < zeros) & (zeros < n * math.pi))
