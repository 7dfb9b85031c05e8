"""The benchmark's tracer wraps tdho's public names; they must keep existing."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_driven_ck_suite_passes():
    """perfbench/tracing.install wraps every layer, then the full bundled
    driven_ck suite runs traced and passes every check, and one state_field
    read (the grid guard reads no bundled time) calls the wrapped
    state_kernel.  A wrapped name that is renamed or deleted fails here, not
    only in a benchmark run."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "import tdho.cli, tdho.verify\n"
        "doc = tdho.cli.load_scenario('driven_ck')\n"
        "ctx = tdho.cli.build_context(doc)\n"
        "results = tdho.verify.run_suite(ctx, doc['checks'])\n"
        "import tdho.states\n"
        "tdho.states.state_field(ctx.state(0))(ctx.grid.xs(), ctx.times[0])\n"
        "spans = [len(tracer.durations(name)) for name in\n"
        "         ('cli.build_context', 'states.state_kernel', 'classical.basis_method')]\n"
        "print(len(results), sum(not r.passed for r in results), min(spans))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    count, failed, fewest_spans = map(int, proc.stdout.split())
    assert count > 0 and failed == 0
    assert fewest_spans > 0
