"""Regenerate reference.json: each workload's outputs at the default seed.

    python3 perfbench/make_reference.py

run.py compares default-seed runs against these values, so regenerate
only on purpose, from a commit whose outputs are known good.
"""

import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS before numpy loads

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in workloads.NAMES:
            workload = workloads.Workload(name, workloads.DEFAULT_SEED, {name: None})
            workload.set_up()
            reference[name] = workload.unit(1, workdir).values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
