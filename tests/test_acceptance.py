"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  Shared heavy computations (the
desk-scale epsilon sweep on the n_div=64 mesh) come from session fixtures.
"""

import math
import time

import numpy as np
import pytest

import fibercell as fc


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_minmax_bound(sweep):
    report, seconds = sweep
    c_h = report.c_h
    assert c_h < 0.01 * report.mu1_exact
    for row in report.rows:
        assert row.lambda_eps <= row.bound + c_h + 1e-9, (
            f"bound violated at eps={row.eps}, k={row.k}")
    assert seconds < 300.0
    _report(1, f"lambda_eps^k <= mu1 + eps^2 lambda_k^0 + C_h for all "
               f"{len(report.rows)} rows; C_h={c_h:.4f} "
               f"({100 * c_h / report.mu1_exact:.3f}% of mu1); {seconds:.0f}s")


def test_criterion_2_disk_eigenvalue(geometry, mesh64):
    mu1 = (fc.bessel_j0_zero(1) / geometry.radius) ** 2
    v64 = fc.discrete_disk_mu1(mesh64)
    mesh128 = fc.generate_mesh(geometry, 128)
    v128 = fc.discrete_disk_mu1(mesh128)
    e64 = abs(v64 - mu1)
    e128 = abs(v128 - mu1)
    assert e64 / mu1 < 0.01
    assert e128 / mu1 < 0.003
    order = math.log2(e64 / e128)
    assert order >= 1.8
    _report(2, f"disk mu1: rel err {e64 / mu1:.2e} @64, {e128 / mu1:.2e} @128, "
               f"order {order:.2f}")


def test_criterion_3_dispersion_oracle_equivalence(params, geometry):
    grid = np.linspace(0.01 * params.mu1, 0.99 * params.mu1, 100)
    worst = 0.0
    for lam in grid:
        series, tail = fc.mean_u0_series(float(lam), params)
        closed = fc.mean_u0_closed(float(lam), geometry.radius)
        assert abs(series - closed) <= 1e-8 + tail
        worst = max(worst, abs(series - closed))
    r = geometry.radius
    torsion = math.pi * r ** 4 / 8
    assert abs(fc.mean_u0_closed(1e-9, r) - torsion) <= 1e-10
    _report(3, f"series vs closed worst gap {worst:.2e}; "
               f"S(0+) = pi r^4/8 to 1e-10")


def test_criterion_4_bound_chain(params, geometry):
    grid = np.linspace(0.01 * params.mu1, 0.99 * params.mu1, 100)
    violations = 0
    for lam in grid:
        s = fc.mean_u0_closed(float(lam), geometry.radius)
        if not (0.0 < s <= geometry.disk_area / (params.mu1 - lam)):
            violations += 1
    assert violations == 0
    _report(4, "0 < S(lambda) <= |D|/(mu1 - lambda) on the full grid")


def test_criterion_5_limit_roots(params):
    t0 = time.time()
    roots = fc.limit_eigenvalues(params, 50)
    mu0 = fc.mu0_lower_bound(params)
    lams = [root.lam for root in roots]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    for root in roots:
        assert mu0 - 1e-9 <= root.lam < params.mu1
        assert abs(fc.delta(root.lam, params) - root.gamma_j) <= 1e-10 * root.gamma_j
    assert (params.mu1 - lams[-1]) / params.mu1 <= 0.02
    _report(5, f"50 roots in [mu0, mu1), delta residual <= 1e-10 rel, "
               f"lambda(50) within {100 * (params.mu1 - lams[-1]) / params.mu1:.3f}% "
               f"of mu1; {time.time() - t0:.1f}s")


def test_criterion_6_separation_validation(geometry, mesh24):
    worst = 0.0
    for eps in (1.0, 0.2):
        v3 = fc.kron_3d_oracle(mesh24, 16, eps, 10)
        vm = fc.discrete_mode_merge(mesh24, 16, eps, 10)
        rel = float(np.max(np.abs(v3 - vm) / np.abs(vm)))
        assert rel <= 1e-9, f"separation identity broken at eps={eps}: {rel:.2e}"
        worst = max(worst, rel)
    _report(6, f"Kronecker 3D oracle = discrete mode merge, worst rel {worst:.2e}")


def test_criterion_7_convergence_to_limit(sweep):
    report, _ = sweep
    roots = sorted(report.roots, key=lambda r: r.j)
    eps_order = sorted({row.eps for row in report.rows}, reverse=True)
    merged = {(row.eps, row.k): row.lambda_eps for row in report.rows}
    for k in range(1, 6):
        lam_k = roots[k - 1].lam
        gaps = [abs(merged[(eps, k)] - lam_k) for eps in eps_order]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (
            f"gap not decreasing for k={k}: {gaps}")
        assert gaps[-1] <= report.c_h + 0.05 * lam_k
    _report(7, "gaps |lambda_eps^k - lambda_k| decrease along eps for k<=5 "
               "and end below C_h + 5% lambda_k")


def test_criterion_8_eigenvector_structure(sweep, params):
    report, _ = sweep
    eps_order = sorted({row.eps for row in report.rows}, reverse=True)
    ground = {row.eps: row for row in report.rows if row.k == 1}
    e_m = [ground[eps].e_M for eps in eps_order]
    e_f = [ground[eps].e_F for eps in eps_order]
    assert all(b < a for a, b in zip(e_m, e_m[1:])), f"e_M not decreasing: {e_m}"
    assert all(b < a for a, b in zip(e_f, e_f[1:])), f"e_F not decreasing: {e_f}"
    # continuity of the reconstructed field across the interface is exact
    r = params.geometry.radius
    for root in fc.limit_eigenvalues(params, 3):
        assert abs(fc.u0_eval(root.lam, r, r)) <= 1e-12
    _report(8, f"ground-state errors decrease: e_F {e_f[0]:.1e}->{e_f[-1]:.1e}, "
               f"e_M {e_m[0]:.1e}->{e_m[-1]:.1e}; u0(r) = 0 to 1e-12")


def test_criterion_9_simplicity(sweep, params, mesh64):
    report, _ = sweep
    roots = sorted(report.roots, key=lambda r: r.j)
    lams = [root.lam for root in roots]
    assert all(b - a > 1e-8 for a, b in zip(lams, lams[1:]))
    # smallest eps: each below-mu1 value is a simple pencil eigenvalue
    eps = min(row.eps for row in report.rows)
    below = [row for row in report.rows
             if row.eps == eps and row.lambda_eps < params.mu1]
    assert below, "no eigenvalues below mu1 at the smallest eps"
    mu0 = fc.mu0_lower_bound(params)
    checked = 0
    for row in below:
        assert row.lambda_eps >= mu0 - 1e-6
        spec = fc.mode_spectrum(mesh64, eps, row.j, params.geometry.height, 2)
        v1, v2 = spec.values
        assert v2 - v1 > 1e-6 * max(1.0, abs(v2)), (
            f"mode {row.j} ground state not simple at eps={eps}")
        checked += 1
    _report(9, f"limit roots pairwise separated > 1e-8; {checked} below-mu1 "
               f"pencil eigenvalues at eps={eps} all simple")


def test_criterion_10_eigensolver_oracle(geometry, mesh16):
    ops12 = fc.CellOperators(fc.generate_mesh(geometry, 12))
    pencils = []
    for eps in (1.0, 0.2):
        for j, gamma in enumerate(fc.vertical_eigenvalues(2, geometry.height), start=1):
            K, M = fc.assemble_mode_pencil(ops12, eps, gamma)
            pencils.append((f"mode eps={eps} j={j}", K, M, 6))
    K1, M1 = fc.assemble_1d(64, 1.0)
    pencils.append(("1d interval", K1, M1, 4))
    K_D, M_D, _ = fc.assemble_dirichlet_disk(fc.CellOperators(mesh16))
    pencils.append(("dirichlet disk", K_D, M_D, 4))

    worst = 0.0
    for name, K, M, k in pencils:
        assert K.shape[0] <= 2000
        dense_vals, _ = fc.dense_eigen_oracle(K, M)
        pairs = fc.smallest_eigenpairs(K, M, k)
        for pair, ref in zip(pairs, dense_vals[:k]):
            rel = abs(pair.value - ref) / max(1.0, abs(ref))
            assert rel <= 1e-9, f"{name}: {pair.value} vs {ref}"
            worst = max(worst, rel)
    _report(10, f"ARPACK shift-invert matches the dense oracle on {len(pencils)} pencils, "
                f"worst rel {worst:.1e}")
