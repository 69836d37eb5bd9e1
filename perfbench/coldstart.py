"""Cold set-up of one fibercell process, as a CLI run pays it.

    python3 perfbench/coldstart.py '<config JSON>'

Times the fibercell imports (numpy and scipy included), config validation
and the first DispersionParams, which fills the J0-zero cache.  Prints
those wall seconds and the CPU seconds of a small pure-Python kernel run
just before and just after them, on the same core and within a second, so
that run.py can rescale the set-up to the reference host's speed.  run.py
starts several of these and reports their median as ``setup_s``.
"""

import json
import math
import os
import sys
import time

KERNEL_REPEATS = 25


def kernel_seconds() -> float:
    """CPU seconds of fixed interpreter work, ~9 ms on the reference host."""
    t0 = time.thread_time()
    for _ in range(KERNEL_REPEATS):
        acc, table = 0.0, {}
        for i in range(1500):
            acc += math.sqrt(i + 1.0) * math.cos(i * 1e-3) / (1 + i % 7)
            table[i % 97] = acc
    return time.thread_time() - t0


sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

before = kernel_seconds()
T0 = time.perf_counter()

import fibercell.cli  # noqa: E402,F401
from fibercell.config import validate_config  # noqa: E402
from fibercell.limit import DispersionParams  # noqa: E402

config = validate_config(json.loads(sys.argv[1]))
DispersionParams(geometry=config.geometry(), n_terms=config.n_terms)
seconds = time.perf_counter() - T0
print(repr(seconds), repr(before), repr(kernel_seconds()))
