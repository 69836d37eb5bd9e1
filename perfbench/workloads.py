"""The three fibercell workloads: generated configs, one unit each, and the
output checks that decide which operations of a unit failed.

Each workload exercises a different mix of fibercell's layers:

* ``sweep64`` is ``fibercell converge`` with the default config, the
  production path.  It stresses ``eigensolve`` (~80% of the unit: 32 mode
  pencils, shift-invert Lanczos, probe passes) and is the only workload
  that uses the ``threads`` pool; ``spectrum.eigenvector_error`` brings in
  ``limit.u0_eval`` and ``bessel``, and ``mesh`` takes ~15%.  Chosen because
  every FEM-side change (eigsh swap, lazy mode merge, CellOperators) must
  show on it.
* ``refine128`` is the h-ladder n_div = 32, 64, 128 with the disk mu1 and
  the hardest-contrast ground pair (eps=0.05, j=1, k=1) per rung.  It
  stresses ``mesh`` (most of the unit) and uses ``eigensolve`` with k=1 on
  33k-dof pencils and the dense oracle on the disk; it bypasses ``limit``
  and ``bessel``.  Chosen for the vectorized mesh repair and because the
  n_div=128 ground pencil is a known failure: Lanczos raises
  EigenConvergenceError ("only 0 of 1 eigenpairs converged").
* ``roots1000`` is ``fibercell limit-spectrum`` at j_max=1000 plus the
  checks ``validate`` runs on S(lambda).  It stresses ``limit`` and
  ``bessel`` only and bypasses every FEM layer.  Chosen for the scipy
  Bessel swap and the gap parametrization of the roots; 16 of the 1000
  roots (j >= 828) miss the |delta - gamma_j| <= 1e-10 gamma_j contract
  at the default seed.

Seed 0 reproduces the configs above exactly; other seeds move the fiber
radius by a few 1e-4 (see ``geometry_for_seed``).  The program receives only
the generated config document.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from fibercell import cli, config as fc_config, limit, mesh as fc_mesh, spectrum
from fibercell.eigensolve import EigenConvergenceError
from fibercell.mesh import MeshQualityError

NAMES = ("sweep64", "refine128", "roots1000")
DEFAULT_SEED = 0
J01 = 2.404825557695773  # first zero of J0, independent of fibercell.bessel

# Radius offsets a non-default seed draws from.  The centre stays at the
# cell centre and the offsets stay this small because generate_mesh and the
# Lanczos solver break on nearby inputs, which would make a seed measure a
# different failure instead of the workload: off-centre fibers (offset 5e-3)
# raise MeshQualityError, an offset of 1e-6 makes converge raise
# EigenConvergenceError, lattice shifts of 1/32 change the sweep time by 20%,
# and radii 0.2445, 0.251, 0.252, 0.259 fail to mesh at n_div 32 or 64.
# Every offset here meshes at n_div 32, 64 and 128.
RADIUS_OFFSETS = (-4e-4, -3e-4, -2e-4, -1e-4, 1e-4, 2e-4, 3e-4, 4e-4)

REFINE_RUNGS = (32, 64, 128)
REFINE_EPS, REFINE_J, REFINE_K = 0.05, 1, 1
SERIES_POINTS = 100
CONTRACT_REL = 1e-10   # limit_eigenvalues' residual contract
ROOT_REF_REL = 1e-10   # root table against the stored reference


def geometry_for_seed(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return {"center": [0.5, 0.5], "radius": 0.25}
    rng = random.Random(seed)
    return {"center": [0.5, 0.5], "radius": 0.25 + rng.choice(RADIUS_OFFSETS)}


def config_document(name: str, seed: int) -> dict:
    """The JSON config document a workload hands to fibercell."""
    doc = {"side": 1.0, "height": 1.0, "n_terms": 500, "eig_tol": 1e-9,
           "root_tol": 1e-12, **geometry_for_seed(seed)}
    if name == "sweep64":
        doc.update(n_div=64, eps_list=[0.4, 0.2, 0.1, 0.05], j_max=8, k_total=8)
    elif name == "refine128":
        doc.update(n_div=max(REFINE_RUNGS), eps_list=[REFINE_EPS], j_max=REFINE_J,
                   k_total=REFINE_K)
    elif name == "roots1000":
        doc.update(j_max=1000)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return doc


@dataclass
class Outcome:
    """Operations one or more units attempted, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)  # wrong outputs
    failures: list[str] = field(default_factory=list)    # raised or missed
    reported_pairs: int = 0   # mode-pencil eigenpairs the output reports
    values: dict = field(default_factory=dict)  # outputs reference.json holds

    def op(self, problems: list[str], what: str) -> None:
        """One operation whose output checks found ``problems``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.mismatches.extend(f"{what}: {p}" for p in problems)

    def fail(self, count: int, reason: str, wrong_output: bool = False) -> None:
        """``count`` operations that raised or missed a contract, or, with
        ``wrong_output``, whose output is malformed."""
        self.attempted += count
        self.failed += count
        (self.mismatches if wrong_output else self.failures).append(reason)

    def signature(self) -> tuple:
        """What went wrong, to compare repeats of the same unit."""
        return self.attempted, self.failed, sorted(self.failures + self.mismatches)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)
        self.failures.extend(other.failures)
        self.reported_pairs += other.reported_pairs


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _mu1_exact(radius: float) -> float:
    return (J01 / radius) ** 2


def _read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def sweep64_unit(config, threads: int, workdir: str, ref) -> Outcome:
    """``fibercell converge``; one operation per report row plus the disk mu1."""
    out = Outcome()
    n_rows = len(config.eps_list) * config.k_total
    config.out_dir = workdir
    try:
        cli.run_command("converge", config, threads=threads)
    except (EigenConvergenceError, MeshQualityError) as exc:
        out.fail(n_rows + 1, f"converge raised {type(exc).__name__}: {exc}")
        return out
    rows = _read_csv(os.path.join(workdir, "convergence.csv"))
    with open(os.path.join(workdir, "convergence.json")) as fh:
        meta = json.load(fh)

    out.values = {"mu1_discrete": meta["mu1_discrete"],
                  "lambda": [float(row["lambda_eps"]) for row in rows]}
    mu1 = _mu1_exact(config.radius)
    c_h = meta["c_h"]
    problems = []
    if _rel(meta["mu1_exact"], mu1) > 1e-12:
        problems.append(f"mu1_exact {meta['mu1_exact']!r} != (j01/r)^2 {mu1!r}")
    if not 0.0 < c_h < 0.01 * mu1:
        problems.append(f"C_h {c_h!r} outside (0, 1% mu1)")
    if ref is not None and _rel(meta["mu1_discrete"], ref["mu1_discrete"]) > config.eig_tol:
        problems.append(f"mu1_h {meta['mu1_discrete']!r} != reference {ref['mu1_discrete']!r}")
    out.op(problems, "disk mu1")

    if len(rows) != n_rows:
        out.fail(n_rows, f"convergence.csv has {len(rows)} rows, expected {n_rows}",
                 wrong_output=True)
        return out
    for i, row in enumerate(rows):
        eps, k = float(row["eps"]), int(row["k"])
        lam = float(row["lambda_eps"])
        problems = []
        if (eps, k) != (config.eps_list[i // config.k_total], i % config.k_total + 1):
            problems.append(f"row order ({eps}, {k})")
        if not 0.0 < lam <= float(row["bound"]) + c_h + 1e-9:
            problems.append(f"lambda {lam!r} outside (0, bound + C_h]")
        if k > 1 and lam < float(rows[i - 1]["lambda_eps"]):
            problems.append("merged values not ascending")
        if not 0.0 < float(row["lambda_limit"]) < mu1:
            problems.append(f"lambda_limit {row['lambda_limit']} outside (0, mu1)")
        if not all(math.isfinite(float(row[c])) and float(row[c]) >= 0.0
                   for c in ("e_F", "e_M")):
            problems.append("eigenvector errors not finite and >= 0")
        if ref is not None and _rel(lam, ref["lambda"][i]) > config.eig_tol:
            problems.append(f"lambda {lam!r} != reference {ref['lambda'][i]!r}")
        out.op(problems, f"row eps={eps} k={k}")
    out.reported_pairs += n_rows
    return out


def refine128_unit(config, ref) -> Outcome:
    """h-ladder; per rung the mesh, the disk mu1 and the ground pair, plus
    one operation for the observed order of mu1_h."""
    out = Outcome()
    geometry = config.geometry()
    mu1 = _mu1_exact(config.radius)
    tol = config.eig_tol
    gamma = (REFINE_J * math.pi / config.height) ** 2
    out.values = {"mu1_h": {}, "ground": {}}
    disk = {}
    for n in REFINE_RUNGS:
        try:
            mesh = fc_mesh.generate_mesh(geometry, n)
        except MeshQualityError as exc:
            out.fail(3, f"n_div={n}: generate_mesh raised MeshQualityError: {exc}")
            continue
        problems = []
        if len(mesh.triangles) != 4 * n * n:
            problems.append(f"{len(mesh.triangles)} triangles, expected {4 * n * n}")
        if _rel(mesh.fiber_area(), math.pi * config.radius ** 2) > 0.01:
            problems.append(f"fiber area {mesh.fiber_area()!r} off pi r^2 by > 1%")
        out.op(problems, f"mesh n_div={n}")

        key = str(n)
        try:
            mu1_h = spectrum.discrete_disk_mu1(mesh, tol=tol)
        except EigenConvergenceError as exc:
            out.fail(1, f"n_div={n}: discrete_disk_mu1 raised EigenConvergenceError: {exc}")
        else:
            disk[n] = out.values["mu1_h"][key] = mu1_h
            problems = [] if mu1_h > mu1 else [f"mu1_h {mu1_h!r} <= mu1 {mu1!r}"]
            ref_mu1_h = ref["mu1_h"].get(key) if ref is not None else None
            if ref_mu1_h is not None and _rel(mu1_h, ref_mu1_h) > tol:
                problems.append(f"mu1_h {mu1_h!r} != reference {ref_mu1_h!r}")
            out.op(problems, f"disk mu1 n_div={n}")

        try:
            spec = spectrum.mode_spectrum(mesh, REFINE_EPS, REFINE_J, config.height,
                                          REFINE_K, tol=tol)
        except EigenConvergenceError as exc:
            out.fail(1, f"n_div={n}: mode_spectrum(eps={REFINE_EPS}, j={REFINE_J}) "
                        f"raised EigenConvergenceError: {exc}")
            continue
        pair = spec.pairs[0]
        out.values["ground"][key] = pair.value
        problems = []
        if pair.residual > tol:
            problems.append(f"residual {pair.residual:.2e} > eig_tol")
        bound = mu1 + REFINE_EPS ** 2 * gamma + (disk.get(n, mu1) - mu1)
        if not 0.0 < pair.value <= bound + 1e-9:
            problems.append(f"ground {pair.value!r} outside (0, {bound!r}]")
        ref_ground = ref["ground"].get(key) if ref is not None else None
        if ref_ground is not None and _rel(pair.value, ref_ground) > tol:
            problems.append(f"ground {pair.value!r} != reference {ref_ground!r}")
        out.op(problems, f"ground n_div={n}")
        out.reported_pairs += 1

    if len(disk) < len(REFINE_RUNGS):
        out.fail(1, "mu1_h ladder: a rung has no mu1_h")
        return out
    errs = [disk[n] - mu1 for n in REFINE_RUNGS]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    out.op([] if all(1.8 <= p <= 2.2 for p in orders)
           else [f"observed orders {orders} not within [1.8, 2.2]"], "mu1_h ladder")
    return out


def roots1000_unit(config, params, workdir: str, ref) -> Outcome:
    """``fibercell limit-spectrum`` at j_max=1000 plus mu0 and the S(lambda)
    series check; one operation per root, one for mu0, one per series point."""
    out = Outcome()
    roots = limit.limit_eigenvalues(params, config.j_max, rel_tol=config.root_tol)
    mu0 = limit.mu0_lower_bound(params)
    path = os.path.join(workdir, "limit_roots.csv")
    limit.write_roots_csv(roots, params, path, config.config_hash())
    table = _read_csv(path)
    out.values = {"mu0": mu0, "lambda": [float(row["lambda_k"]) for row in table]}

    mu1 = _mu1_exact(config.radius)
    problems = []
    if _rel(params.mu1, mu1) > 1e-12:
        problems.append(f"mu1 {params.mu1!r} != (j01/r)^2 {mu1!r}")
    if not 0.0 < mu0 < mu1:
        problems.append(f"mu0 {mu0!r} outside (0, mu1)")
    if ref is not None and _rel(mu0, ref["mu0"]) > 1e-12:
        problems.append(f"mu0 {mu0!r} != reference {ref['mu0']!r}")
    out.op(problems, "mu0")

    if len(table) != config.j_max:
        out.fail(config.j_max, f"limit_roots.csv has {len(table)} rows, expected "
                               f"{config.j_max}", wrong_output=True)
        return out
    misses = []
    prev = mu0
    for i, row in enumerate(table):
        j, lam = int(row["j"]), float(row["lambda_k"])
        gamma_j = float(row["gamma_j"])
        problems = []
        if j != i + 1 or _rel(gamma_j, (j * math.pi / config.height) ** 2) > 1e-14:
            problems.append(f"row {i} labelled j={j}, gamma_j={gamma_j!r}")
        if not prev < lam < mu1:
            problems.append(f"lambda {lam!r} not in (previous root or mu0, mu1)")
        if ref is not None and _rel(lam, ref["lambda"][i]) > ROOT_REF_REL:
            problems.append(f"lambda {lam!r} != reference {ref['lambda'][i]!r}")
        prev = lam
        if problems:
            out.op(problems, f"root j={j}")
        elif abs(float(row["delta_check"]) - gamma_j) > CONTRACT_REL * gamma_j:
            misses.append(j)
        else:
            out.op([], f"root j={j}")
    if misses:
        out.fail(len(misses), f"{len(misses)} roots miss |delta - gamma_j| <= "
                              f"{CONTRACT_REL:g} gamma_j (first j={misses[0]})")

    r = config.radius
    for lam in np.linspace(0.01 * params.mu1, 0.99 * params.mu1, SERIES_POINTS):
        series, tail = limit.mean_u0_series(float(lam), params)
        closed = limit.mean_u0_closed(float(lam), r)
        gap = abs(series - closed)
        out.op([] if gap <= 1e-8 + tail else [f"|series - closed| = {gap:.2e}"],
               f"S({lam:.6g})")
    return out


class Workload:
    """A named workload with its generated config, ready to run units."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.doc = config_document(name, seed)
        self.ref = reference[name] if seed == DEFAULT_SEED else None
        self.config = None
        self.params = None

    def set_up(self) -> None:
        """The per-process cold work before the first unit: config
        validation and the DispersionParams/J0-zero caches."""
        self.config = fc_config.validate_config(self.doc)
        self.params = limit.DispersionParams(geometry=self.config.geometry(),
                                             n_terms=self.config.n_terms)

    @property
    def uses_threads(self) -> bool:
        return self.name == "sweep64"

    def unit(self, threads: int, workdir: str) -> Outcome:
        if self.name == "sweep64":
            return sweep64_unit(self.config, threads, workdir, self.ref)
        if self.name == "refine128":
            return refine128_unit(self.config, self.ref)
        return roots1000_unit(self.config, self.params, workdir, self.ref)
