"""Validation oracles: vertical-mode separation and the eigensolver.

The production path never assembles the 3D problem; it relies on the exact
decoupling of separated fields w(y) sin(j pi x3 / L).  This script checks
that decision against a Kronecker-assembled 3D tensor pencil:
``discrete_mode_merge`` is the production merge (the D4 sectors, the lazy
bounds and the shift-invert solves) run over the discrete 1D eigenvalues
in place of (j pi / L)^2, and must equal the tensor spectrum.  It also
checks the ARPACK shift-invert solve certified by its inertia count
against the dense LAPACK oracle.
"""

import time

import numpy as np

import fibercell as fc

geometry = fc.CellGeometry()
mesh = fc.generate_mesh(geometry, 24)
n1d = 16
print(f"mesh 24^2 ({len(mesh.vertices)} vertices) x {n1d} vertical intervals "
      f"-> 3D pencil with {len(mesh.vertices) * (n1d - 1)} unknowns")

for eps in (1.0, 0.2):
    t0 = time.time()
    v3 = fc.kron_3d_oracle(mesh, n1d, eps, 10)
    vm = fc.discrete_mode_merge(mesh, n1d, eps, 10)
    rel = np.max(np.abs(v3 - vm) / np.abs(vm))
    print(f"\neps = {eps} ({time.time() - t0:.1f} s): "
          f"max relative difference {rel:.2e}")
    print("  3D tensor :", " ".join(f"{v:9.4f}" for v in v3))
    print("  mode merge:", " ".join(f"{v:9.4f}" for v in vm))

print("\nARPACK shift-invert vs dense oracle on small pencils:")
operators = fc.CellOperators(fc.generate_mesh(geometry, 12))
gamma_1 = fc.vertical_eigenvalues(1, geometry.height)[0]
for eps in (1.0, 0.2):
    K, M = fc.assemble_mode_pencil(operators, eps, gamma_1)
    dense_vals, _ = fc.dense_eigen_oracle(K, M)
    pairs = fc.smallest_eigenpairs(K, M, 6)
    worst = max(abs(p.value - v) / abs(v) for p, v in zip(pairs, dense_vals))
    print(f"  eps = {eps}: worst relative difference {worst:.2e}, "
          f"residuals <= {max(p.residual for p in pairs):.1e}")
