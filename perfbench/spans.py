"""Layer spans taken by wrapping the module attributes where one fibercell
layer calls the next.

Only traced runs import this module; run.py recognises a wrapper by its
``__module__`` and checks that untraced runs see none.  ``Tracer.install``
replaces each attribute in ``TARGETS`` by a wrapper that times the call,
charges its duration to the enclosing span as child time, and lets a hook
record work counts from the arguments and the result.  Spans are aggregated per name in
memory (calls, inclusive time, self time, work, peak, errors) instead of
being stored one by one: ``u0_eval`` alone makes ~300k Bessel calls on
``sweep64``.  The span stack is a plain list, so a traced unit must run on
one thread.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0   # inclusive seconds
    own: float = 0.0     # seconds not covered by child spans
    work: int = 0        # hook-defined count (triangles, pairs, points, ...)
    peak: float = 0.0    # hook-defined maximum (residuals)
    misses: int = 0      # hook-defined contract misses
    errors: int = 0      # calls that raised


def _count_triangles(stats, tracer, args, kwargs, result):
    stats.work += len(result.triangles)


def _count_mode_pairs(stats, tracer, args, kwargs, result):
    stats.work += len(result.pairs)


def _count_pairs(stats, tracer, args, kwargs, result):
    stats.work += len(result)
    stats.peak = max([stats.peak] + [p.residual for p in result])


def _count_points(stats, tracer, args, kwargs, result):
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    stats.work += int(getattr(rho, "size", 1))


def _count_roots(stats, tracer, args, kwargs, result):
    # residual of the delta(lambda) = gamma_j contract, with the unwrapped
    # delta so the check itself adds no delta span
    params = args[0] if args else kwargs["params"]
    delta = tracer.originals.get(("fibercell.limit", "delta"))
    stats.work += len(result)
    for root in result if delta is not None else ():
        rel = abs(delta(root.lam, params) - root.gamma_j) / root.gamma_j
        stats.peak = max(stats.peak, rel)
        stats.misses += rel > 1e-10


# (module, attribute or Class.method, layer, work hook); the attribute names
# the span.  Every call site the three workloads reach is listed, so a span
# can appear under several modules that imported the same function.
TARGETS = [
    ("fibercell.cli", "convergence_sweep", "spectrum", None),
    ("fibercell.spectrum", "merged_spectrum", "spectrum", None),
    ("fibercell.spectrum", "mode_spectrum", "spectrum", _count_mode_pairs),
    ("fibercell.spectrum", "discrete_disk_mu1", "spectrum", None),
    ("fibercell.spectrum", "eigenvector_error", "spectrum", None),
    ("fibercell.spectrum", "generate_mesh", "mesh", _count_triangles),
    ("fibercell.mesh", "generate_mesh", "mesh", _count_triangles),
    ("fibercell.spectrum", "assemble_mode_pencil", "assembly", None),
    ("fibercell.spectrum", "assemble_dirichlet_disk", "assembly", None),
    ("fibercell.spectrum", "smallest_eigenpairs", "eigensolve", _count_pairs),
    ("fibercell.spectrum", "dense_eigen_oracle", "eigensolve", None),
    ("fibercell.eigensolve", "factorize_spd", "eigensolve", None),
    ("fibercell.eigensolve", "SPDFactor.solve", "eigensolve", None),
    ("fibercell.spectrum", "limit_eigenvalues", "limit", _count_roots),
    ("fibercell.limit", "limit_eigenvalues", "limit", _count_roots),
    ("fibercell.spectrum", "u0_eval", "limit", _count_points),
    ("fibercell.limit", "delta", "limit", None),
    ("fibercell.limit", "mean_u0_series", "limit", None),
    ("fibercell.limit", "mu0_lower_bound", "limit", None),
    ("fibercell.limit", "write_roots_csv", "limit", None),
    ("fibercell.limit", "bessel_j0", "bessel", None),
    ("fibercell.limit", "bessel_j1", "bessel", None),
    ("fibercell.limit", "bessel_j0_zero", "bessel", None),
]


def _resolve(module: str, attr: str):
    """(owner, name) of a wrappable attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Installs span wrappers on ``TARGETS`` and aggregates what they see."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.layer_of: dict[str, str] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self.top_level = 0.0   # seconds covered by outermost spans
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, layer, hook in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue  # removed function: its metrics report null
            owner, name = found
            original = getattr(owner, name)
            self.originals[(module, attr)] = original
            self.stats.setdefault(attr, SpanStats())
            self.layer_of[attr] = layer
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, attr, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, fn, span, hook):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level += dt
                stats.calls += 1
                stats.total += dt
                stats.own += dt - frame[0]
            if hook is not None:
                hook(stats, self, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def span(self, name: str):
        """Aggregate of one span name, or None when no target resolved."""
        return self.stats.get(name)

    def layer_self(self, layer: str):
        spans = [s for n, s in self.stats.items() if self.layer_of[n] == layer]
        return sum(s.own for s in spans) if spans else None
