"""Command-line entry points.

Commands: ``mesh | limit-spectrum | eps-spectrum | converge | validate``.
All numeric parameters come from the JSON config (``--config``); flags only
pick the command and the output directory.  Exit codes: 0 success, 1
compute failure, 2 usage error.  Failures emit one JSON object on stderr
so scripted callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .assembly import CellOperators, assemble_mode_pencil
from .config import ConfigError, RunConfig, parse_config, write_json, write_table
from .eigensolve import dense_eigen_oracle, smallest_eigenpairs
from .geometry import vertical_eigenvalues
from .limit import (DispersionParams, limit_eigenvalues, mean_u0_closed,
                    mean_u0_series, write_roots_csv, write_roots_json)
from .mesh import generate_mesh, write_mesh
from .spectrum import (convergence_sweep, discrete_mode_merge, kron_3d_oracle,
                       merged_spectrum)

COMMANDS = ("mesh", "limit-spectrum", "eps-spectrum", "converge", "validate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fibercell",
        description="high-contrast cell spectra: mesh, limit spectrum, "
                    "eps spectra, convergence report, oracle validation")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0

    try:
        config = parse_config(args.config) if args.config else RunConfig()
        if args.out:
            config.out_dir = args.out
        os.makedirs(config.out_dir, exist_ok=True)
        return run_command(args.command, config)
    except ConfigError as exc:
        _error_json("config", str(exc))
        return 2
    except Exception as exc:  # compute failure
        _error_json("compute", str(exc))
        return 1


def run_command(name: str, config: RunConfig, threads: int = 1) -> int:
    """Run one command on ``config``.  ``threads`` is accepted for existing
    callers and ignored."""
    if name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    out = config.out_dir
    tag = config.config_hash()
    geometry = config.geometry()

    if name == "mesh":
        mesh = generate_mesh(geometry, config.n_div)
        write_mesh(mesh, os.path.join(out, "mesh.txt"))
        write_json(os.path.join(out, "mesh.meta.json"),
                   {"config_hash": tag, "mesh_hash": mesh.content_hash(),
                    "n_vertices": len(mesh.vertices),
                    "n_triangles": len(mesh.triangles),
                    "fiber_area": mesh.fiber_area()})
        return 0

    if name == "limit-spectrum":
        params = DispersionParams(geometry=geometry, n_terms=config.n_terms)
        roots = limit_eigenvalues(params, config.j_max, rel_tol=config.root_tol)
        write_roots_csv(roots, params, os.path.join(out, "limit_roots.csv"), tag)
        write_roots_json(roots, params, os.path.join(out, "limit_roots.json"), tag)
        return 0

    if name == "eps-spectrum":
        mesh = generate_mesh(geometry, config.n_div)
        merged = merged_spectrum(mesh, config.eps_list[0], config.k_total,
                                 tol=config.eig_tol)
        write_table(os.path.join(out, "eps_spectrum.csv"),
                    ("k", "j", "rank", "lambda_eps", "residual"),
                    ((k, entry.j, entry.rank, entry.value, entry.pair.residual)
                     for k, entry in enumerate(merged, start=1)), tag)
        return 0

    if name == "converge":
        report = convergence_sweep(geometry, config.eps_list, config.n_div,
                                   config.k_total, eig_tol=config.eig_tol,
                                   root_tol=config.root_tol)
        report.write_csv(os.path.join(out, "convergence.csv"), tag)
        report.write_json(os.path.join(out, "convergence.json"), tag)
        return 0

    # validate: oracle equivalences; nonzero exit on any failure
    failures = _run_validation(config, geometry)
    write_json(os.path.join(out, "validate.json"),
               {"config_hash": tag, "failures": failures, "passed": not failures})
    if failures:
        raise RuntimeError("validation failed: " + "; ".join(failures))
    return 0


def _run_validation(config: RunConfig, geometry) -> list[str]:
    failures = []
    params = DispersionParams(geometry=geometry, n_terms=config.n_terms)

    # series vs closed form of the disk mean
    grid = np.linspace(0.01 * params.mu1, 0.99 * params.mu1, 100)
    for lam, closed in zip(grid, mean_u0_closed(grid, geometry.radius)):
        series, tail = mean_u0_series(float(lam), params)
        if abs(series - closed) > 1e-8 + tail:
            failures.append(f"series/closed mismatch at lambda={lam:.6g}")
            break

    # on a coarse mesh: Kronecker 3D oracle vs the production merge over the
    # discrete vertical eigenvalues, without a ceiling, and the production
    # merge under the disk ceiling, as ``converge`` runs it, vs a dense
    # merge of the whole mode pencils; one operator set serves every pencil
    # and merge of the coarse mesh, as in ``converge``
    coarse = generate_mesh(geometry, 12)
    ops = CellOperators(coarse)
    gammas = vertical_eigenvalues(8, geometry.height)
    for eps in (1.0, 0.2):
        failures += _disagreement(f"kron/merge at eps={eps}",
                                  kron_3d_oracle(coarse, 8, eps, 8),
                                  discrete_mode_merge(coarse, 8, eps, 8))
        whole = sorted(value for gamma in gammas for value in dense_eigen_oracle(
            *assemble_mode_pencil(ops, eps, gamma), count=8)[0])
        failures += _disagreement(f"sector/whole at eps={eps}",
                                  [e.value for e in merged_spectrum(
                                      coarse, eps, 8, tol=config.eig_tol, operators=ops)],
                                  whole[:8])

    # ARPACK shift-invert certified by an inertia count vs dense on a coarse
    # pencil, without a bound and under one (ARPACK on the count's factor)
    K, M = assemble_mode_pencil(ops, 0.3, gammas[0])
    dense_vals, _ = dense_eigen_oracle(K, M)
    sigma = 0.5 * (dense_vals[3] + dense_vals[4])
    for below, reference in ((None, dense_vals[:6]), (sigma, dense_vals[:4])):
        pairs = smallest_eigenpairs(K, M, 6, tol=config.eig_tol, below=below)
        failures += _disagreement(f"shift-invert/dense, below={below!r}",
                                  [pair.value for pair in pairs], reference)
    return failures


def _disagreement(check: str, values, reference) -> list[str]:
    """[] when two ascending spectra agree: the same length, and
    max |a - b| / max(1, |b|) <= 1e-9 over reference values b; else the
    one failure line naming ``check``."""
    values, reference = np.asarray(values), np.asarray(reference)
    if len(values) != len(reference):
        return [f"{check}: {len(values)} values, the reference has {len(reference)}"]
    gap = np.max(np.abs(values - reference) / np.maximum(1, np.abs(reference)), initial=0)
    return [] if gap <= 1e-9 else [f"{check} mismatch {gap:.2e}"]


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
