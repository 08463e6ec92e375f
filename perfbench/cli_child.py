"""Run one traced qhcalc CLI command: ``cli_child.py TRACE_FILE ARGS...``.

Stands in for ``python -m qhcalc.cli ARGS...`` in traced runs of the
cli-readme workload.  It times the import of ``qhcalc.cli`` and the call of
``main``, records spans with the benchmark's tracer, writes both to TRACE_FILE
and exits with the command's own exit code.  ``qhcalc`` must be on PYTHONPATH.
"""

import json
import sys
from time import perf_counter

from tracing import Tracer


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import qhcalc.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    start = perf_counter()
    try:
        qhcalc.cli.main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    main_s = perf_counter() - start
    tracer.active = False
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
