"""Spectra of the contrast problem converging to the limit spectrum.

Runs the epsilon sweep on the n_div=64 fitted mesh: per epsilon the merged
mode spectrum, the min-max bound mu1 + eps^2 (k pi/L)^2, the gap to the
limit eigenvalue of the same rank, and the two eigenvector-structure
errors (fiber field vs (lam u0 + 1) v_j, matrix field vs v_j).

Takes a few seconds on one core; writes convergence.csv / convergence.json.
"""

import time

import fibercell as fc

geometry = fc.CellGeometry()
eps_list = [0.4, 0.2, 0.1, 0.05]

t0 = time.time()
report = fc.convergence_sweep(geometry, eps_list, n_div=64, k_total=8)
print(f"sweep finished in {time.time() - t0:.1f} s")
print(f"mesh mu1_h = {report.mu1_discrete:.6f}, exact {report.mu1_exact:.6f}, "
      f"C_h = {report.c_h:.4f}")
if report.reorderings:
    print(f"transient reorderings at finite eps: {report.reorderings}")

roots = sorted(report.roots, key=lambda r: r.j)
print(f"\n{'eps':>5} {'k':>2} {'(j,rank)':>8} {'lambda_eps':>12} "
      f"{'slack':>10} {'gap_to_lim_k':>12} {'e_F':>10} {'e_M':>10}")
for row in report.rows:
    rank_gap = abs(row.lambda_eps - roots[row.k - 1].lam)
    print(f"{row.eps:>5.2f} {row.k:>2} {f'({row.j},{row.rank})':>8} "
          f"{row.lambda_eps:>12.6f} {row.slack:>10.3e} {rank_gap:>12.4e} "
          f"{row.e_F:>10.3e} {row.e_M:>10.3e}")

report.write_csv("convergence.csv")
report.write_json("convergence.json")
print("\nwrote convergence.csv / convergence.json")
