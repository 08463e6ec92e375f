"""Set up one workload in a fresh interpreter: ``setup_child.py WORKLOAD SEED TMPDIR``.

Imports ``qhcalc`` from ``src/``, makes the workload's inputs from the seed and
turns them into program objects up to the first job, then prints ``ready``
and exits without running a job.  run.py times it from process start to that
line: one sample of ``setup_s``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS, fresh_import


def main():
    name, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[name]
    qh = fresh_import(workload.uses_cli)
    ctx = SimpleNamespace(src=src, tmp=tmp, env={}, tracer=None)
    next(workload.sweep(qh, workload.generate(seed), ctx))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
