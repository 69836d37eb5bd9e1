"""fibercell benchmark: three workloads, four end-to-end metrics, and a
traced run for the per-layer split.

    python3 perfbench/run.py --workload sweep64 --seed 0 --seconds 36 --trace 0

Run from a checkout that holds ``src/fibercell`` and ``BENCHMARK.json``.

``--trace 0`` (end to end).  Ten cold-start processes, five before the
units and five after, give ``setup_s``; the workload's units run back to
back for about ``--seconds`` (at least one unit, and no unit starts that
the median unit would carry past the budget).  Metrics: ``solution_s``
(median unit time, inputs to checked result), ``setup_s``, ``ok_share``
(operations that succeeded and passed their checks over operations
attempted, i.e. 1 - failed_share; it is the complement so that it is never
0) and ``peak_rss_mb`` (after the first unit).  ``attempted`` and
``failed`` count the operations of one unit, so they are the same for a
seed however many units fit into the run; every unit is checked, and a
later unit that fails differently from the first adds one failed
operation.  Both times are wall seconds rescaled to the reference host's
speed.  For units, a SIGALRM handler times a small fixed kernel every
0.2 s, and each unit's wall time is multiplied by the share of demanded
core time the hypervisor did not steal (/proc/stat) and by
``REFERENCE_KERNEL_S`` over the kernel's mean time during it.  A cold
start is too short for that; it times its own kernel just before and
after the set-up, and its wall time is multiplied by
``REFERENCE_COLD_KERNEL_S`` over the mean of the two.  Shared hosts change
their speed by +-30% over seconds to minutes, which raw wall medians cannot
average out within one run; the raw wall medians are in the detail line as
``wall_median_s``.

``--trace 1`` (per layer).  One untraced unit at threads=1, one at the
CLI default thread count, then one unit at threads=1 with span wrappers
installed on the module attributes where layers call each other (see
spans.py).  Metrics are the per-layer times and counts, the tracing
coverage and overhead, and the thread speed-up.

BLAS is pinned to one thread, so fibercell's own ``threads`` pool (only
``sweep64`` uses it) is the only parallelism.  The last stdout line is the
result JSON; the line before it holds the machine block, the sample counts
and every failure.  Exit code 2 means the checkout cannot be benchmarked,
3 means the harness broke its own contract; neither prints a result.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COLD_STARTS = 10
COLD_START_TIMEOUT = 120
# CPU seconds kernel_seconds() takes on an idle core of the reference host
# (2 cores, Python 3.11.7; see README.md).  End-to-end times are rescaled
# to that speed.
REFERENCE_KERNEL_S = 0.001
# CPU seconds coldstart.py's own kernel takes on an idle core of that host.
REFERENCE_COLD_KERNEL_S = 0.009
SAMPLE_INTERVAL_S = 0.2
KERNEL_VECTOR = np.arange(64.0)


class HarnessError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def cold_start_seconds(doc: dict) -> tuple[float, float]:
    """Wall seconds of one cold set-up, and the same rescaled by the speed
    coldstart.py's kernel saw in that process just before and after it."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "coldstart.py"), json.dumps(doc)],
            cwd=ROOT, capture_output=True, text=True, timeout=COLD_START_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"cold start took over {COLD_START_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"cold start failed: {proc.stderr.strip()}")
    seconds, before, after = (float(v) for v in proc.stdout.split()[-3:])
    return seconds, seconds * REFERENCE_COLD_KERNEL_S / ((before + after) / 2)


def kernel_seconds() -> float:
    """CPU seconds of a fixed mix of interpreter work and small numpy calls,
    like the Python loops fibercell spends its time in."""
    t0 = time.thread_time()
    acc, table = 0.0, {}
    for i in range(1500):
        acc += math.sqrt(i + 1.0) * math.cos(i * 1e-3) / (1 + i % 7)
        table[i % 97] = acc
        if i % 10 == 0:
            acc += float(KERNEL_VECTOR @ KERNEL_VECTOR) * 1e-12
    return time.thread_time() - t0


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all cores so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


class SpeedSampler:
    """Follows the host's speed while the run measures: times
    ``kernel_seconds`` every ``SAMPLE_INTERVAL_S`` from a SIGALRM handler,
    and reads the cores' stolen time around each measured interval.

    The handler runs in the main thread, so on single-threaded units the
    kernel shares the unit's core; ``thread_time`` leaves out waits for the
    GIL while ``sweep64``'s pool workers hold it, and it leaves out time
    the hypervisor gave the core to another guest, which the stolen ticks
    account for.
    """

    def __enter__(self):
        self.samples = [(time.perf_counter(), kernel_seconds())]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), kernel_seconds()))

    def rescale(self, seconds: float, start: float, end: float,
                ticks: tuple[tuple[int, int], tuple[int, int]]) -> float:
        """``seconds``, measured between ``start`` and ``end`` with
        ``cpu_ticks()`` read at both ends, at the reference speed and
        without stolen time."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        (busy0, stolen0), (busy1, stolen1) = ticks
        busy, stolen = busy1 - busy0, stolen1 - stolen0
        ran = busy / (busy + stolen) if busy + stolen > 0 else 1.0
        return seconds * ran * REFERENCE_KERNEL_S / statistics.fmean(inside)


def wrapped_attributes() -> list[str]:
    """fibercell attributes currently replaced by span wrappers."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "fibercell" and not modname.startswith("fibercell."):
            continue
        for name, value in vars(module).items():
            members = [(name, value)]
            if isinstance(value, type):
                members += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            found += [f"{modname}.{n}" for n, v in members
                      if callable(v) and getattr(v, "__module__", None) == "spans"]
    return found


def require_unwrapped() -> None:
    wrapped = wrapped_attributes()
    if wrapped:
        raise HarnessError(f"untraced unit would see span wrappers: {wrapped}")


def timed_unit(workload, threads: int, workdir: str):
    t0 = time.perf_counter()
    outcome = workload.unit(threads, workdir)
    return time.perf_counter() - t0, outcome


def count_unit(outcome, first, unit, number: int):
    """Adds unit ``number`` (from 1) of a run to the run's ``outcome`` and
    returns the run's first unit.  A run reports the operations of one
    unit, so that ``attempted`` and ``failed`` are the same for the same
    seed however many units fit into ``--seconds``.  Every later unit is
    checked too, and one that fails differently from the first (units are
    deterministic) counts as one more failed operation."""
    if first is None:
        outcome.merge(unit)
        return unit
    if unit.signature() != first.signature():
        outcome.fail(1, f"unit {number} failed differently from unit 1: "
                        f"{unit.signature()} != {first.signature()}", wrong_output=True)
    return first


def upper_percentile(times: list[float]):
    """Highest percentile with at least ten samples beyond it, if any."""
    if len(times) < 20:
        return None
    ordered = sorted(times)
    return {"p": int(100 * (len(ordered) - 10) / len(ordered)),
            "value": ordered[len(ordered) - 11]}


def cold_starts(doc: dict, count: int) -> list[tuple[float, float]]:
    return [cold_start_seconds(doc) for _ in range(count)]


def end_to_end(workload, seconds: float, threads: int, workdir: str, outcome):
    walls, times = [], []
    with SpeedSampler() as speed:
        # half of the cold starts before the units and half after, so that
        # the median samples the machine at both ends of the run
        cold = cold_starts(workload.doc, COLD_STARTS // 2)
        workload.set_up()
        require_unwrapped()
        if "spans" in sys.modules:
            raise HarnessError("untraced run loaded the span wrappers")
        start, first = time.perf_counter(), None
        while True:
            ticks, t0 = cpu_ticks(), time.perf_counter()
            unit_outcome = workload.unit(threads, workdir)
            t1 = time.perf_counter()
            ticks = (ticks, cpu_ticks())
            if not times:
                # peak of a process that ran one unit, whatever the unit count
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(t1 - t0)
            times.append(speed.rescale(t1 - t0, t0, t1, ticks))
            first = count_unit(outcome, first, unit_outcome, len(times))
            if t1 - start + statistics.median(walls) > seconds:
                break
        require_unwrapped()
        cold += cold_starts(workload.doc, COLD_STARTS - COLD_STARTS // 2)
    setups = [rescaled for _, rescaled in cold]
    metrics = {
        "solution_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    kernels = [k for _, k in speed.samples]
    samples = {"solution_s": {"n": len(times), "unit_s": times,
                              "upper": upper_percentile(times),
                              "wall_median_s": statistics.median(walls),
                              "wall_unit_s": walls},
               "setup_s": {"n": len(setups), "samples": setups,
                           "wall_median_s": statistics.median(w for w, _ in cold)},
               "speed": {"kernel_samples": len(kernels),
                         "kernel_median_s": statistics.median(kernels),
                         "reference_kernel_s": REFERENCE_KERNEL_S}}
    return metrics, samples


def per_layer(workload, default_threads: int, workdir: str, outcome):
    workload.set_up()
    require_unwrapped()
    t_1, first = timed_unit(workload, 1, workdir)
    count_unit(outcome, None, first, 1)
    t_default, unit_outcome = timed_unit(workload, default_threads, workdir)
    count_unit(outcome, first, unit_outcome, 2)

    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        t_traced, traced = timed_unit(workload, 1, workdir)
    finally:
        tracer.uninstall()
    require_unwrapped()
    count_unit(outcome, first, traced, 3)

    lanczos = tracer.span("smallest_eigenpairs")
    tol = workload.config.eig_tol
    if lanczos is not None and lanczos.peak > tol:
        outcome.fail(1, f"a Lanczos pair has residual {lanczos.peak:.2e} > eig_tol {tol:g}")

    def field(span, attr):
        stats = tracer.span(span)
        return None if stats is None else getattr(stats, attr)

    def total(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    has_delta = ("fibercell.limit", "delta") in tracer.originals
    bessel = ("bessel_j0", "bessel_j1", "bessel_j0_zero")
    m = {
        "mesh.generate_s": (field("generate_mesh", "total"), "s"),
        "mesh.triangles": (field("generate_mesh", "work"), "count"),
        "mesh.self_s": (tracer.layer_self("mesh"), "s"),
        "assembly.pencil_s": (total(field("assemble_mode_pencil", "total"),
                                    field("assemble_dirichlet_disk", "total")), "s"),
        "assembly.pencils": (total(field("assemble_mode_pencil", "calls"),
                                   field("assemble_dirichlet_disk", "calls")), "count"),
        "assembly.self_s": (tracer.layer_self("assembly"), "s"),
        "eigensolve.lanczos_s": (field("smallest_eigenpairs", "total"), "s"),
        "eigensolve.calls": (field("smallest_eigenpairs", "calls"), "count"),
        "eigensolve.factor_s": (field("factorize_spd", "total"), "s"),
        "eigensolve.factorizations": (field("factorize_spd", "calls"), "count"),
        "eigensolve.shift_solve_s": (field("SPDFactor.solve", "total"), "s"),
        "eigensolve.shift_solves": (field("SPDFactor.solve", "calls"), "count"),
        "eigensolve.ortho_s": (field("smallest_eigenpairs", "own"), "s"),
        "eigensolve.dense_s": (field("dense_eigen_oracle", "total"), "s"),
        "eigensolve.dense_calls": (field("dense_eigen_oracle", "calls"), "count"),
        "eigensolve.pairs_computed": (field("smallest_eigenpairs", "work"), "count"),
        "eigensolve.failures": (field("smallest_eigenpairs", "errors"), "count"),
        "eigensolve.max_residual": (field("smallest_eigenpairs", "peak"), "rel"),
        "eigensolve.self_s": (tracer.layer_self("eigensolve"), "s"),
        "spectrum.pair_yield": (ratio(traced.reported_pairs,
                                      field("mode_spectrum", "work")), "share"),
        "spectrum.eigvec_error_s": (field("eigenvector_error", "total"), "s"),
        "spectrum.disk_mu1_s": (field("discrete_disk_mu1", "total"), "s"),
        "spectrum.self_s": (tracer.layer_self("spectrum"), "s"),
        "spectrum.thread_speedup": (t_1 / t_default, "x"),
        "limit.roots_s": (field("limit_eigenvalues", "total"), "s"),
        "limit.roots": (field("limit_eigenvalues", "work"), "count"),
        "limit.delta_evals": (field("delta", "calls"), "count"),
        "limit.contract_misses": (field("limit_eigenvalues", "misses")
                                  if has_delta else None, "count"),
        "limit.max_root_residual": (field("limit_eigenvalues", "peak")
                                    if has_delta else None, "rel"),
        "limit.u0_eval_s": (field("u0_eval", "total"), "s"),
        "limit.u0_points": (field("u0_eval", "work"), "count"),
        "limit.series_s": (field("mean_u0_series", "total"), "s"),
        "limit.self_s": (tracer.layer_self("limit"), "s"),
        "bessel_s": (tracer.layer_self("bessel"), "s"),
        "bessel.calls": (total(*(field(n, "calls") for n in bessel)), "count"),
        "unit.threads1_s": (t_1, "s"),
        "unit.default_threads_s": (t_default, "s"),
        "unit.traced_s": (t_traced, "s"),
        "trace.coverage": (tracer.top_level / t_traced, "share"),
        "trace.overhead_share": (t_traced / t_1 - 1.0, "share"),
    }
    samples = {"units": {"threads1": 1, "default_threads": 1, "traced": 1},
               "spans": {name: vars(stats) for name, stats in tracer.stats.items()}}
    return m, samples


def machine_block(threads) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS, "threads": threads}


def check_names(metrics: dict, spec: dict, key: str) -> None:
    expected = {m["name"]: m["unit"] for m in spec[key]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        raise HarnessError(
            f"metrics differ from BENCHMARK.json {key}: "
            f"missing {sorted(set(expected) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(expected))}, "
            f"unit mismatches {sorted(n for n in expected.keys() & emitted.keys() if expected[n] != emitted[n])}")


def summary(name, seed, metrics, samples, outcome) -> list[str]:
    lines = [f"perfbench {name} seed={seed}"]
    for metric, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = ""
        if metric in samples and "n" in samples[metric]:
            note = f"  median of {samples[metric]['n']}"
            upper = samples[metric].get("upper")
            if upper:
                note += f", p{upper['p']} {upper['value']:.6g}"
        lines.append(f"  {metric:28s} {shown:>14s} {unit}{note}")
    share = outcome.failed / outcome.attempted
    lines.append(f"  {'failed_share':28s} {share:>14.6g} share  "
                 f"{outcome.failed} of {outcome.attempted} operations")
    for reason, count in tally(outcome).items():
        lines.append(f"  failed x{count}: {reason}")
    return lines


def tally(outcome) -> dict:
    """Failure and mismatch messages with how often each occurred."""
    return dict(Counter(outcome.failures + outcome.mismatches))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fibercell", "__init__.py")):
        print(f"perfbench: no fibercell sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import fibercell
    if os.path.dirname(os.path.abspath(fibercell.__file__)) != os.path.join(SRC, "fibercell"):
        print(f"perfbench: fibercell imported from {fibercell.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    workload = workloads.Workload(args.workload, args.seed, reference)
    default_threads = os.cpu_count() or 1
    threads = default_threads if workload.uses_threads else 1
    outcome = workloads.Outcome()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            metrics, samples = per_layer(workload, default_threads, workdir, outcome)
            check_names(metrics, spec, "per_layer")
        else:
            metrics, samples = end_to_end(workload, args.seconds, threads, workdir,
                                          outcome)
            check_names(metrics, spec, "end_to_end")
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in summary(args.workload, args.seed, metrics, samples, outcome):
        print(line)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "config": workload.doc,
                      "machine": machine_block([1, default_threads] if args.trace else threads),
                      "samples": samples, "attempted": outcome.attempted,
                      "failed": outcome.failed, "failures": tally(outcome)}))
    print(json.dumps({"correct": not outcome.mismatches,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
