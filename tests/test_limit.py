import hashlib
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
    # the whole array is checked, not only its first entry
    with pytest.raises(ValueError, match="got 92.5"):
        mean_u0_closed(np.array([1.0, params.mu1]), geometry.radius)
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
    assert type(delta(lam, params)) is float
    assert type(delta(1e-9, params)) is float
    assert type(u0_eval(lam, 0.1, geometry.radius)) is float
    assert all(type(v) is float for v in mean_u0_series(lam, params))


def test_delta_and_mean_array_equal_pointwise(params, geometry, monkeypatch):
    # torsion-branch entries (lambda <= 1e-8, the last of them on the
    # threshold) beside Bessel-branch ones up to the bisection ceiling, with
    # warnings as errors (the suite's setting)
    mu1 = params.mu1
    lam = np.array([[1e-12, 5e-9, limit._SMALL_LAMBDA, 1.0000001e-8],
                    [1e-3, 0.3 * mu1, 0.97 * mu1, mu1 * (1 - 1e-10)]])
    r = geometry.radius
    bessel_args = []

    def recording_j0(x):
        bessel_args.extend(np.ravel(x))
        return bessel_j0(x)

    monkeypatch.setattr(limit, "bessel_j0", recording_j0)
    means = mean_u0_closed(lam, r)
    # the Bessel form never sees a torsion-branch entry
    assert min(bessel_args) > math.sqrt(limit._SMALL_LAMBDA) * r
    deltas = delta(lam, params)
    assert means.shape == deltas.shape == lam.shape
    for x, mean, value in zip(lam.flat, means.flat, deltas.flat):
        assert mean == mean_u0_closed(float(x), r)
        assert value == delta(float(x), params)


def test_eigendata_holds_the_tail_mode(params, geometry):
    # n_terms modes for the series plus mu_{N+1} for its tail bound
    assert params.eigendata.shape == (params.n_terms + 1, 2)
    mu_next = (bessel_j0_zero(params.n_terms + 1) / geometry.radius) ** 2
    assert params.eigendata[-1, 0] == pytest.approx(mu_next, rel=1e-14)


def test_delta_check_is_delta_at_the_root(params):
    for root in limit_eigenvalues(params, 1000):
        assert root.delta_check == delta(root.lam, params)


def _scalar_delta(lam, params):
    """delta at one lambda through Python floats and scalar Bessel calls."""
    r = params.geometry.radius
    if lam <= limit._SMALL_LAMBDA:
        mean = math.pi * r ** 4 / 8.0 + lam * math.pi * r ** 6 / 48.0
    else:
        s = math.sqrt(lam)
        mean = (2.0 * math.pi * r * bessel_j1(s * r) / (s * bessel_j0(s * r))
                - math.pi * r * r) / lam
    return params.c_coef * lam + params.cp_coef * lam * lam * mean


def _scalar_bisection_points(params, j_max, rel_tol=1e-12):
    """The midpoints a bisection of each root alone evaluates, with the
    stop rule ``limit_eigenvalues`` documents: one list per root."""
    mu1 = params.mu1
    points = []
    for j in range(1, j_max + 1):
        gamma = (j * math.pi / params.geometry.height) ** 2
        lo, hi = limit._INTERVAL_MARGIN * mu1, mu1 * (1 - limit._INTERVAL_MARGIN)
        seen = []
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            value = _scalar_delta(mid, params)
            seen.append(mid)
            if hi - lo <= rel_tol * mu1 and (
                    abs(value - gamma) <= 1e-10 * gamma
                    or hi - lo <= 4.0 * np.spacing(hi)):
                break
            lo, hi = (mid, hi) if value < gamma else (lo, mid)
        points.append(seen)
    return points


def test_roots_evaluate_no_lambda_twice(params, monkeypatch):
    calls = []

    def recording_delta(lam, p):
        calls.append(np.array(lam, dtype=float, ndmin=1))
        return delta(lam, p)

    monkeypatch.setattr(limit, "delta", recording_delta)
    limit_eigenvalues(params, 1000)
    # one call checks the bisection floor, then one call per bisection step
    floor = limit._INTERVAL_MARGIN * params.mu1
    assert calls.pop(0).tolist() == [floor]
    assert not any(np.any(step == floor) for step in calls)
    assert len(calls) + 1 <= 221
    # each step evaluates the points that one bisection per root evaluates
    # at that step, and a bisection of one root never repeats a lambda
    per_root = _scalar_bisection_points(params, 1000)
    assert all(len(set(seen)) == len(seen) for seen in per_root)
    assert sum(map(len, per_root)) == sum(map(len, calls)) == 47842
    assert len(calls) == max(map(len, per_root))
    for k, step in enumerate(calls):
        expected = [seen[k] for seen in per_root if len(seen) > k]
        assert np.array_equal(np.sort(step), np.sort(expected))


def _table_hash(roots):
    digest = hashlib.sha256()
    for root in roots:
        digest.update(f"{root.j} {root.gamma_j.hex()} {root.lam.hex()} "
                      f"{root.mean_u0.hex()} {root.bracket_width.hex()} "
                      f"{root.delta_check.hex()}\n".encode())
    return digest.hexdigest()


# sha256 over every LimitRoot field (floats as float.hex) of the j <= 1000
# tables, recorded from the one-root-at-a-time bisection; (0.2, 2.9e4) lies
# below the bisection floor, and at (0.25, 2.9e4) the first root is in the
# torsion branch
GOLDEN_ROOT_HASHES = {
    (0.2, 0.3, 1e-12): "807fc001a057f4bc4538bf39d68e4b72dcc70e84ec18e854ed39a589a0184547",
    (0.2, 0.3, 1e-3): "3917eba992f75f76984de711fd18980339631cc355c28a8d414105be1744ba9c",
    (0.2, 1.0, 1e-12): "40937d4d963e3802e278b937a4e1648dc3abfde0192ec79b65cc348614183984",
    (0.2, 1.0, 1e-3): "c01c315f4c3550cd59173560cb0e22761762a271e0b2655a86bb38c3f61d026c",
    (0.2, 1000.0, 1e-12): "83a93d84b467b25432c6c3bd40c4a3dcc8750c0d8df18eaf945562d44fcbaad3",
    (0.2, 1000.0, 1e-3): "9e55d11d8b500aeec54ea6be8f0143d2ad461a3a88230d7a43d9657404908b1c",
    (0.2, 2.9e4, 1e-12): "too tall",
    (0.2, 2.9e4, 1e-3): "too tall",
    (0.2496, 0.3, 1e-12): "3a8ac510cbbe1de8d169a531302cc85199aefbd2aa043063a7727a9cfa8bdf4d",
    (0.2496, 0.3, 1e-3): "d57c5ea0827df1828d35f35d9ae263b02164b5fb7c907b8b6e8d0fb3fa0534f1",
    (0.2496, 1.0, 1e-12): "3c61ed547a59888e00508c2def757fad65135ca9c3b7e8b5929b4087a3c0d1c8",
    (0.2496, 1.0, 1e-3): "a4d811e735582cd916df5d136c0b40cf7f72e6a50b0a74930d69e1cbb4f41c1c",
    (0.2496, 1000.0, 1e-12): "751a629cbb34bedd8a46fc453f2cb19379fa6ca3149e801e68b2395475b01427",
    (0.2496, 1000.0, 1e-3): "b8b1bedee8f117b77eb34ad44bafccd204080db5baa131042a6d6af6e85d9771",
    (0.2496, 2.9e4, 1e-12): "f75bdf5f27996e7913a4f71da8f16cf769dbfda98632d29477cfa8d440735b8e",
    (0.2496, 2.9e4, 1e-3): "1502d1271d0c84d4cd79cf8ed205f9a0d2521195990cd540ea3b72adf585fe8d",
    (0.25, 0.3, 1e-12): "3d8f7cf3b348df728c141a0e137f65bf20825d7ca75249e8c797243255779bc2",
    (0.25, 0.3, 1e-3): "c35fbf3cf09575d97c01a62d4c1fc04b61cbc120af33da48823dfc6bd9e2175d",
    (0.25, 1.0, 1e-12): "078381640a62b8d77892f006443a1f39091087ab089d5ebd02649418e574a3da",
    (0.25, 1.0, 1e-3): "618bddc500c66be72d332d3730efd25d0a8ca524af9a6058449cbf59b489d623",
    (0.25, 1000.0, 1e-12): "7001f9d7a4cbe381b2c1229405258e57307d3f869c55bae3aad012a6a924449d",
    (0.25, 1000.0, 1e-3): "d75719514ede03bfc497bf904c52050b0e20a7ffc9665cb5c933baa6324e8a19",
    (0.25, 2.9e4, 1e-12): "9a444a7daad9ce93d0e0a9d21a6778101e2a6a074364dccfc3379678c4d28d1c",
    (0.25, 2.9e4, 1e-3): "0de0e965f5c335bbd85e5f733706e12a93ea8428d52eef8648c9fff1e0b47e65",
    (0.2504, 0.3, 1e-12): "97d1031ab7adf72a8f07da401c12b1140d1a416c9800b3e8a8dbcafd0ab00ed8",
    (0.2504, 0.3, 1e-3): "bf5dcbdea3801522362608b5ddcc6d81d03ef83136185ad617c301bc72796b39",
    (0.2504, 1.0, 1e-12): "9fe4c76cd6390ebd574d042a8cd3007fec71d1f92e1bc5434d73b708e638b0fd",
    (0.2504, 1.0, 1e-3): "601876f1a7c8f1456ffa655c1f3e584ebefb67de3ea43aa02263b99571894794",
    (0.2504, 1000.0, 1e-12): "1982cf81a3f3dc3f4dd5e04de157d71d7bc154c1b4aa9f4df1a81a78f41c7c00",
    (0.2504, 1000.0, 1e-3): "f8d4f58929afa5052f34b332e0a5d3c3fb2bb035e20f05a5f7aeee0e459eece9",
    (0.2504, 2.9e4, 1e-12): "801b30c7ed0d8a14e1c114ccf408fac6d164f3d0d7900ea63dda467437317531",
    (0.2504, 2.9e4, 1e-3): "de6594cf1d3869872f3317713f499a2c93c2f24463c1404fa0775fd9cbea7d9c",
    (0.3, 0.3, 1e-12): "3066759ff0bf17b67b38b95635d89d2b9725618bf0b9163191b0bb6b19b8be1f",
    (0.3, 0.3, 1e-3): "dcdf06f84f85f08d19f508f1f265208fa2f3e1d913ab6f654f41ab54a32902af",
    (0.3, 1.0, 1e-12): "c1f6ea538aac8ca57b5482f77372014132190fb0c88e59586fbf62586f38d198",
    (0.3, 1.0, 1e-3): "9b9e24a3db04c5e8f65dd11a4a47d8605a890a42f7e51fab02031f4e8e94c10c",
    (0.3, 1000.0, 1e-12): "d61a9997e05eaf795c781935b648209dd413bc1b7726c51278449f3674a6f9cb",
    (0.3, 1000.0, 1e-3): "ed51bee4c00b8e83d3f856aacbf6b3e20c22187b9e2cc8a9355ffc04b0255a7d",
    (0.3, 2.9e4, 1e-12): "53d02af2e65c8077df6267d031e29a43edb72c645675b1521ebb659c28f91203",
    (0.3, 2.9e4, 1e-3): "b979a7ffd4fab847ed8c484b17059ce2399e02c80f2fb206b190a79b2741ad97",
}


@pytest.mark.parametrize("radius,height,rel_tol", sorted(GOLDEN_ROOT_HASHES))
def test_golden_root_tables(radius, height, rel_tol):
    params = DispersionParams(geometry=CellGeometry(radius=radius, height=height))
    expected = GOLDEN_ROOT_HASHES[radius, height, rel_tol]
    if expected == "too tall":
        with pytest.raises(ValueError, match="too tall"):
            limit_eigenvalues(params, 1000, rel_tol=rel_tol)
    else:
        assert _table_hash(limit_eigenvalues(params, 1000, rel_tol=rel_tol)) == expected


def test_golden_mu0(params):
    assert mu0_lower_bound(params) == 7.791063521929239


@pytest.mark.parametrize("call,match", [
    (lambda params: disk_radial_eigendata(0.25, 0), "at least one mode"),
    # r = -1 gave the r = 1 table, n = True one mode
    (lambda params: disk_radial_eigendata(-1.0, 2),
     r"r must be a finite number > 0, got -1\.0"),
    (lambda params: disk_radial_eigendata(0.25, True),
     "at least one mode, and an int, got True"),
    (lambda params: u0_eval(10.0, [0.0, 0.26], 0.25), r"rho must lie in \[0, r\]"),
    (lambda params: u0_eval(10.0, -1e-3, 0.25), r"rho must lie in \[0, r\]"),
    (lambda params: limit_eigenvalues(params, 0), "j_max must be >= 1"),
    # True ran as j_max = 1
    (lambda params: limit_eigenvalues(params, True),
     "j_max must be >= 1 and an int, got True")])
def test_refusals(params, call, match):
    with pytest.raises(ValueError, match=match):
        call(params)
