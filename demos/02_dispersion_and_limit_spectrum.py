"""The nonlocal dispersion relation and the limit spectrum below mu1.

Evaluates the disk mean S(lambda) by its two independent representations
(closed Bessel form and radial eigenfunction series), builds the dispersion
function delta, computes the lower bound mu0, and solves
delta(lambda) = (j pi / L)^2 for the limit eigenvalues, which accumulate
at the first disk Dirichlet eigenvalue mu1.
"""

import math

import fibercell as fc

geometry = fc.CellGeometry()
params = fc.DispersionParams(geometry=geometry, n_terms=500)
r = geometry.radius

print(f"mu1 = {params.mu1:.6f}   lambda0 = (pi/L)^2 = {params.lambda0:.6f}")
print(f"C = 1 + |D|/|C\\D| = {params.c_coef:.6f}   C' = 1/|C\\D| = "
      f"{params.cp_coef:.6f}")

mu0 = fc.mu0_lower_bound(params)
print(f"mu0 = phi^-1(lambda0) = {mu0:.9f}\n")

print("two representations of S(lambda) = int_D u0:")
print(f"{'lambda':>10} {'closed':>14} {'series':>14} {'|diff|':>10} {'tail':>10}")
for frac in (1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
    lam = frac * params.mu1 if frac > 1e-6 else 1e-9
    closed = fc.mean_u0_closed(lam, r)
    series, tail = fc.mean_u0_series(lam, params) if lam > 1e-6 else (closed, 0.0)
    print(f"{lam:>10.4f} {closed:>14.6e} {series:>14.6e} "
          f"{abs(closed - series):>10.2e} {tail:>10.2e}")
print(f"torsion limit pi r^4 / 8 = {math.pi * r ** 4 / 8:.6e}\n")

roots = fc.limit_eigenvalues(params, 50)
print(f"{'j':>3} {'gamma_j':>12} {'lambda_j':>14} {'mu1-lambda_j':>13} "
      f"{'S':>12}")
for root in roots[:8] + roots[-2:]:
    print(f"{root.j:>3} {root.gamma_j:>12.4f} {root.lam:>14.8f} "
          f"{params.mu1 - root.lam:>13.4e} {root.mean_u0:>12.4e}")
print(f"...\naccumulation: mu1 - lambda_50 = "
      f"{100 * (params.mu1 - roots[-1].lam) / params.mu1:.3f}% of mu1")

# the limit eigenvector is (lam u0 + 1) v_j on the fiber and v_j on the matrix
lam = roots[0].lam
center_value, boundary_value = lam * fc.u0_eval(lam, [0.0, r], r) + 1.0
print(f"\nground-state limit eigenvector: fiber amplification at the disk "
      f"center = {center_value:.4f}, boundary value = "
      f"{boundary_value:.1f} (continuity across the interface)")
