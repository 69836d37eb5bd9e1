import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fibercell as fc
from fibercell import (CellGeometry, DispersionParams, delta,
                       disk_radial_eigendata, limit_eigenvalues, mean_u0_closed,
                       mean_u0_series, mu0_lower_bound, u0_eval)
from fibercell import limit
from fibercell.limit import J01, bessel_j0, bessel_j0_zero, bessel_j1


def _simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, 2 * n + 1)
    w = np.ones(2 * n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (6 * n) * float(np.sum(w * f(xs)))


def test_radial_eigendata_against_quadrature(geometry):
    # quadrature oracle: c_n = 2 pi int_0^r f_n rho drho for the normalized
    # radial mode f_n = J0(j_{0,n} rho / r) / (sqrt(pi) r |J1(j_{0,n})|)
    r = geometry.radius
    data = disk_radial_eigendata(r, 6)
    for n in range(1, 7):
        z = bessel_j0_zero(n)
        norm = math.sqrt(math.pi) * r * abs(bessel_j1(z))

        def mode(rho):
            return np.array([bessel_j0(z * x / r) for x in rho]) / norm

        c = 2 * math.pi * _simpson(lambda rho: mode(rho) * rho, 0.0, r)
        mu, cn2 = data[n - 1]
        assert mu == pytest.approx((z / r) ** 2, rel=1e-14)
        assert cn2 == pytest.approx(c * c, rel=1e-9)
        # unit L2 norm of the mode
        sq = 2 * math.pi * _simpson(lambda rho: mode(rho) ** 2 * rho, 0.0, r)
        assert sq == pytest.approx(1.0, rel=1e-9)


def test_eigendata_parseval_bound(geometry):
    data = disk_radial_eigendata(geometry.radius, 500)
    total = float(np.sum(data[:, 1]))
    assert total <= geometry.disk_area
    assert total >= 0.99 * geometry.disk_area  # radial modes carry all the mass


def test_cn2_positive_decreasing(geometry):
    data = disk_radial_eigendata(geometry.radius, 100)
    cn2 = data[:, 1]
    assert np.all(cn2 > 0)
    assert np.all(np.diff(cn2) < 0)


def test_mu1_and_c1_reference_values(params):
    assert params.mu1 == pytest.approx(92.531, abs=0.001)
    assert params.eigendata[0, 1] == pytest.approx(0.13580, abs=1e-5)


def test_mean_u0_torsion_limit(geometry):
    # torsion problem -Lap u0 = 1: u0 = (r^2 - rho^2)/4, integral pi r^4/8
    r = geometry.radius
    assert mean_u0_closed(1e-9, r) == pytest.approx(math.pi * r ** 4 / 8, abs=1e-10)


def test_mean_u0_series_increasing(params):
    grid = np.linspace(0.005 * params.mu1, 0.995 * params.mu1, 100)
    vals = [mean_u0_series(float(x), params)[0] for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mean_u0_pole_blowup(params, geometry):
    near = mean_u0_closed(params.mu1 * (1 - 1e-6), geometry.radius)
    mid = mean_u0_closed(params.mu1 / 2, geometry.radius)
    assert near > 1e3 * mid
    # same blow-up through the series representation
    near_s, _ = mean_u0_series(params.mu1 * (1 - 1e-6), params)
    mid_s, _ = mean_u0_series(params.mu1 / 2, params)
    assert near_s > 1e3 * mid_s


def test_dispersion_params_validation(geometry):
    with pytest.raises(ValueError):
        fc.DispersionParams(geometry=geometry, n_terms=10)


def test_mean_u0_series_closed_agreement(params, geometry):
    series, tail = mean_u0_series(params.mu1 / 2, params)
    closed = mean_u0_closed(params.mu1 / 2, geometry.radius)
    assert abs(series - closed) <= 1e-8 + tail


def test_mean_u0_domain_errors(params, geometry):
    with pytest.raises(ValueError):
        mean_u0_closed(params.mu1, geometry.radius)
    with pytest.raises(ValueError):
        mean_u0_series(-1.0, params)


def test_u0_boundary_and_center(geometry, params):
    r = geometry.radius
    assert u0_eval(10.0, r, r) == pytest.approx(0.0, abs=1e-14)
    assert u0_eval(1e-9, 0.0, r) == pytest.approx(r * r / 4, rel=1e-9)
    # the limit eigenvector's fiber factor lam*u0 + 1 exceeds 1 at the centre
    lam = limit_eigenvalues(params, 2)[1].lam
    assert lam * u0_eval(lam, 0.0, r) + 1.0 > 1.0


def test_u0_radial_pde_residual(geometry):
    # finite-difference oracle for -u'' - u'/rho - lam*u0 - 1 at rho = r/2
    r = geometry.radius
    lam = 40.0
    h = 1e-4
    rho = r / 2

    def u(x):
        return u0_eval(lam, x, r)

    upp = (u(rho + h) - 2 * u(rho) + u(rho - h)) / (h * h)
    up = (u(rho + h) - u(rho - h)) / (2 * h)
    residual = -(upp + up / rho) - lam * u(rho) - 1.0
    assert abs(residual) <= 1e-6


def test_delta_limits_and_monotonicity(params):
    assert delta(1e-8 * params.mu1, params) < 1e-5
    grid = np.linspace(0.001 * params.mu1, 0.999 * params.mu1, 1000)
    vals = [delta(float(x), params) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_delta_dominates_linear_part(params):
    for lam in np.linspace(0.01 * params.mu1, 0.99 * params.mu1, 50):
        assert delta(float(lam), params) >= params.c_coef * float(lam)


def test_mu0_inverse_contract(params, geometry):
    mu0 = mu0_lower_bound(params)
    disk, matrix = geometry.disk_area, geometry.matrix_area
    phi = mu0 * (1 + disk / matrix + mu0 * disk / (matrix * (params.mu1 - mu0)))
    assert phi == pytest.approx(params.lambda0, abs=1e-9)
    assert 0 < mu0 < params.mu1


def test_roots_ordered_above_mu0(params):
    roots = limit_eigenvalues(params, 12)
    mu0 = mu0_lower_bound(params)
    lams = [root.lam for root in roots]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    for root in roots:
        assert mu0 - 1e-9 <= root.lam < params.mu1
        assert abs(delta(root.lam, params) - root.gamma_j) <= 1e-10 * root.gamma_j
        # bound chain on the root's disk mean
        assert 0 < root.mean_u0 <= params.geometry.disk_area / (params.mu1 - root.lam)


def test_root_bracket_certificate(params):
    root = limit_eigenvalues(params, 1)[0]
    w = max(root.bracket_width, 1e-13 * params.mu1)
    lo, hi = root.lam - 2 * w, root.lam + 2 * w
    assert (delta(lo, params) - root.gamma_j) < 0 < (delta(hi, params) - root.gamma_j)


@pytest.mark.parametrize("height", [1e5, 3e4])
def test_cell_too_tall_for_the_bisection_floor(height):
    # gamma_1 lies below delta at the floor 1e-10 mu1: at 1e5 the roots
    # j = 1, 2, 3 all came back as the floor 9.2531e-9, at 3e4 the first
    # root missed gamma_1 by 5%, and mu0 was the floor too
    params = DispersionParams(geometry=CellGeometry(height=height))
    with pytest.raises(ValueError, match="too tall"):
        limit_eigenvalues(params, 3)
    with pytest.raises(ValueError, match="too tall"):
        mu0_lower_bound(params)


def test_roots_csv_json_export(tmp_path, params):
    roots = limit_eigenvalues(params, 3)
    csv_path = tmp_path / "roots.csv"
    json_path = tmp_path / "roots.json"
    fc.write_roots_csv(roots, params, csv_path, "deadbeef")
    fc.write_roots_json(roots, params, json_path, "deadbeef")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[1] == "j,gamma_j,lambda_k,S,delta_check"
    assert len(lines) == 2 + 3
    import json
    doc = json.loads(json_path.read_text())
    assert doc["config_hash"] == "deadbeef"
    assert len(doc["roots"]) == 3
    assert doc["mu0"] < doc["roots"][0]["lambda"]


def test_u0_eval_array_equals_pointwise(params):
    r = params.geometry.radius
    rho = np.linspace(0.0, r, 257)
    for lam in (1e-9, 0.3 * params.mu1, 0.97 * params.mu1):
        values = u0_eval(lam, rho, r)
        pointwise = np.array([u0_eval(lam, float(x), r) for x in rho])
        assert np.max(np.abs(values - pointwise)) <= 1e-15 * max(1.0, np.max(np.abs(pointwise)))
    # the Bessel branch evaluates J0 at rho = r and at r alike: u0(r) = 0
    assert values[-1] == 0.0


def test_cold_setup_does_not_import_scipy_special():
    # the set-up every CLI run pays: scipy.special would add ~50 ms to it
    code = ("import sys\n"
            "import fibercell.cli\n"
            "from fibercell.config import validate_config\n"
            "from fibercell.limit import DispersionParams\n"
            "config = validate_config({})\n"
            "DispersionParams(geometry=config.geometry(), n_terms=config.n_terms)\n"
            "print('scipy.special' in sys.modules)\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_j01_is_first_zero_of_j0():
    from scipy.special import jn_zeros
    assert abs(J01 - jn_zeros(0, 1)[0]) <= np.spacing(J01)
    assert abs(bessel_j0(J01)) <= 1e-15


def test_scalar_results_are_python_floats(params, geometry):
    lam = 0.5 * params.mu1
    assert type(mean_u0_closed(lam, geometry.radius)) is float
    assert type(u0_eval(lam, 0.1, geometry.radius)) is float
    assert all(type(v) is float for v in mean_u0_series(lam, params))


def test_eigendata_holds_the_tail_mode(params, geometry):
    # n_terms modes for the series plus mu_{N+1} for its tail bound
    assert params.eigendata.shape == (params.n_terms + 1, 2)
    mu_next = (bessel_j0_zero(params.n_terms + 1) / geometry.radius) ** 2
    assert params.eigendata[-1, 0] == pytest.approx(mu_next, rel=1e-14)


def test_delta_check_is_delta_at_the_root(params):
    for root in limit_eigenvalues(params, 1000):
        assert root.delta_check == delta(root.lam, params)


def test_roots_evaluate_no_lambda_twice(params, monkeypatch):
    seen = []

    def recording_delta(lam, p):
        seen.append(lam)
        return delta(lam, p)

    monkeypatch.setattr(limit, "delta", recording_delta)
    limit_eigenvalues(params, 1000)
    # one call checks the bisection floor, then every bisection starts at
    # the same midpoint: split the calls there
    assert seen.pop(0) == limit._INTERVAL_MARGIN * params.mu1
    starts = [i for i, lam in enumerate(seen) if lam == seen[0]] + [len(seen)]
    assert len(starts) == 1001
    for a, b in zip(starts, starts[1:]):
        assert len(set(seen[a:b])) == b - a


@pytest.mark.parametrize("call,match", [
    (lambda params: disk_radial_eigendata(0.25, 0), "at least one mode"),
    (lambda params: u0_eval(10.0, [0.0, 0.26], 0.25), r"rho must lie in \[0, r\]"),
    (lambda params: u0_eval(10.0, -1e-3, 0.25), r"rho must lie in \[0, r\]"),
    (lambda params: limit_eigenvalues(params, 0), "j_max must be >= 1")])
def test_refusals(params, call, match):
    with pytest.raises(ValueError, match=match):
        call(params)
