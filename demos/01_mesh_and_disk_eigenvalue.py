"""Fitted meshes of the cell and the disk Dirichlet eigenvalue.

Builds the square cell with the default fiber disk, generates fitted
triangulations at several resolutions, and shows the tagged fiber area and
the first Dirichlet eigenvalue of the disk converging at second order to
the Bessel reference (j_{0,1}/r)^2.
"""

import numpy as np

import fibercell as fc

geometry = fc.CellGeometry(side=1.0, center=(0.5, 0.5), radius=0.25,
                           height=1.0)
print(f"cell: side={geometry.side}, disk r={geometry.radius} at "
      f"{geometry.center}, |D|={geometry.disk_area:.6f}, "
      f"|C\\D|={geometry.matrix_area:.6f}")

mu1 = (fc.bessel_j0_zero(1) / geometry.radius) ** 2
print(f"reference mu1 = (j_01/r)^2 = {mu1:.6f}\n")

print(f"{'n_div':>6} {'min angle':>10} {'fiber area err':>15} "
      f"{'disk mu1_h':>12} {'rel err':>10}")
prev_err = None
for n_div in (16, 32, 64, 128):
    mesh = fc.generate_mesh(geometry, n_div)
    quality = fc.mesh_quality(mesh)
    area_err = abs(mesh.fiber_area() - geometry.disk_area) / geometry.disk_area
    mu1_h = fc.discrete_disk_mu1(mesh)
    rel = (mu1_h - mu1) / mu1
    line = (f"{n_div:>6} {quality.min_angle:>10.2f} {area_err:>15.3e} "
            f"{mu1_h:>12.6f} {rel:>10.3e}")
    if prev_err is not None:
        line += f"   observed order {np.log2(prev_err / (mu1_h - mu1)):.2f}"
    prev_err = mu1_h - mu1
    print(line)

mesh = fc.generate_mesh(geometry, 64)
print(f"\nn_div=64 mesh: {len(mesh.vertices)} vertices, "
      f"{len(mesh.triangles)} triangles, "
      f"{len(mesh.interface_nodes)} interface nodes, shared by fiber and "
      "matrix triangles")
fc.write_mesh(mesh, "demo_mesh64.txt")
print("wrote demo_mesh64.txt (header 'nv nt', vertices, 'i j k tag' rows)")
