"""Traced stand-in for `python -m tdho.cli`, used by traced cold_cli runs.

Runs tdho.cli.main with tracing.install() in place and writes the spans of
this one process to the file named by the first argument.

    cd src && python ../perfbench/probe.py SPANS.npz verify sho_c1 --suite fast
"""

import os
import sys
import time

sys.path.insert(0, os.getcwd())  # import tdho from the working directory, as -m does
_t0 = time.perf_counter()
import tdho.cli  # noqa: E402  (first, so the import time includes numpy and scipy)

_t1 = time.perf_counter()

from tracing import Tracer, install  # noqa: E402
from worker import run_checks  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.import", _t0, _t1)
    install(tracer)
    run_suite = tdho.cli.run_suite
    tdho.cli.run_suite = lambda ctx, checks: run_checks(run_suite, ctx, checks, tracer)
    try:
        return tdho.cli.main(argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
