"""One benchmark process: set up a workload, then drive it in a closed loop.

Started by run.py, which times it from process start to the "ready" line
it prints once set-up is done; the line carries the CPU seconds used so far.
With --setup-only it exits there; otherwise it runs a fixed number of whole
passes over the workload's request set (see PASSES), checks every output,
and prints one JSON line of raw results.

Workloads (one client, each request sent when the previous one returned):

* bundled_suite -- one request verifies one of the seven bundled scenarios
  in full mode (load_scenario, build_context, run_suite).  The ODE and
  classical layers dominate: dense-output reads inside delta_equivalence
  and the numeric basis and particular solves.
* high_n_states -- one request verifies one seeded, undriven, analytic-basis
  document with states up to n = 64.  The state kernel and the Simpson and
  stencil work in tdho.verify dominate; the ODE is not used, so this is the
  control for changes to tdho.ode and tdho.classical.
* cold_cli -- one request is one fresh `python -m tdho.cli` process run from
  src/, cycling verify --suite fast, state and classical over the bundled
  scenarios.  Interpreter start, imports, schema validation and
  build_context dominate, and state/classical write CSV output.

In a traced run the first half of the passes runs untraced and the second
half runs with tracing.install() in place; the difference between the two
median pass times is the tracing overhead.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import tdho.cli  # noqa: E402  (first, so the import time includes numpy and scipy)

IMPORT_S = time.perf_counter() - _t0

import argparse
import json
import math
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from run import host_probe

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

# Raised above the library's default of 8 so orthonormality does O(n) kernel
# work per order and O(n^2) Simpson inner products on the fine grid.  At 16
# the state kernel and the Simpson work are each about a third of a pass.
HIGH_N_ORTHO_NMAX = 16
# Acceptance tolerance of the orthonormality check; a written state file
# must integrate to 1 within it.
NORM_TOL = 1e-8
# Checks whose verdict depends on the default grid and time-step sizing.
# False failures there on high_n_states are the known sizing defect; any
# other wrong verdict makes the run incorrect.
SIZING_CHECKS = ("residual", "transform_chain")
CHILD_TIMEOUT_S = 60.0


def _check_name(check) -> str:
    return check if isinstance(check, str) else check["name"]


def run_checks(run_suite, ctx, checks, tracer) -> list:
    """run_suite over one check at a time, in run_suite's own (name) order,
    each check in its own span.

    The results equal those of one run_suite(ctx, checks) call; splitting it
    lets a traced run time each check without touching tdho.verify.
    Untraced runs make the one call.
    """
    results = []
    for check in sorted(checks, key=_check_name):
        with tracer.span(f"verify.{_check_name(check)}"):
            results.extend(run_suite(ctx, [check]))
    return results


class Outcome:
    """What one request produced: verdicts against expectations, errors."""

    def __init__(self):
        self.verdicts = 0
        self.wrong = []  # (check, expected) per wrong verdict
        self.error = None  # str when the request raised or wrote bad output

    def verdict(self, check: str, passed: bool, expected: bool, measured=0.0):
        self.verdicts += 1
        if not math.isfinite(measured):
            self.wrong.append((check, expected))
            self.fail(f"{check}: non-finite measurement {measured!r}")
        elif passed != expected:
            self.wrong.append((check, expected))

    def fail(self, message: str):
        if self.error is None:
            self.error = message


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Requests that call tdho.cli's public functions inside this process."""

    ortho_nmax = None

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self):
        self.cli = tdho.cli
        from tdho.verify import run_suite

        self.run_suite = run_suite
        self.requests = self.make_requests()
        # load and build every document once: schema validation, model and
        # basis construction and lazy imports are set-up, not request, work
        for path in self.requests.values():
            self.cli.build_context(self.cli.load_scenario(path))

    def order(self, rng: random.Random) -> list:
        names = sorted(self.requests)
        rng.shuffle(names)
        return names

    def run(self, name: str, tracer=None) -> Outcome:
        out = Outcome()
        try:
            doc = self.cli.load_scenario(self.requests[name])
            ctx = self.cli.build_context(doc)
            if self.ortho_nmax is not None:
                ctx.orthonormality_nmax = self.ortho_nmax
            if tracer is None:
                results = self.run_suite(ctx, doc["checks"])
            else:
                results = run_checks(self.run_suite, ctx, doc["checks"], tracer)
        except Exception as e:  # a request that raises is an error, not a crash
            out.fail(f"{name}: {type(e).__name__}: {e}")
            return out
        expected = self.expected(name)
        for r in results:
            out.verdict(r.check, r.passed, expected, r.measured)
        return out

    def finish(self, outcome: Outcome):
        pass


class BundledSuite(InProcess):
    name = "bundled_suite"
    allowed_wrong = ()

    def make_requests(self) -> dict:
        from tdho.scenarios import BUNDLED, scenario_path

        return {name: scenario_path(name) for name in BUNDLED}

    def expected(self, name: str) -> bool:
        return name != "negative_control"


def high_n_documents(rng: random.Random) -> list[dict]:
    """Undriven analytic-basis scenarios with orders up to 64.

    The seed draws hbar, the frequencies and the orders.  Everything that
    sets how much work a request does is held fixed, so that the spread
    between seeds measures the program and not the draw:

    * the orders come in pairs with a fixed sum (k and 32 - k, 32 + k and
      64 - k), so the O(n * points) Hermite work is the same for every k;
    * the share of grid points above the kernel's underflow floor depends
      only on how far the envelope rho(t) is below its maximum over the
      sampled window.  So C is fixed, the breathing state is sampled at
      fixed phases w_s * t, and the exponential-mass state (C = 1, m = 1,
      fixed gamma) at fixed times.  hbar, w_s and w1 leave that share alone.

    Each document samples two times, the fewest stationarity can compare,
    which keeps a request near 0.3 s so a run holds enough requests for its
    tail (see PASSES).
    """
    k = rng.randint(1, 15)
    states = [0, k, 32 - k, 32 + k, 64 - k, 64]
    checks = ["closed_form_agreement", "orthonormality", "residual",
              "stationarity", "transform_chain"]
    docs = []
    for label in ("sho_stationary", "sho_breathing", "ck"):
        hbar = round(rng.uniform(0.5, 2.0), 6)
        if label == "sho_stationary":
            w_s = round(rng.uniform(0.7, 1.5), 6)
            times = sorted(round(rng.uniform(0.0, 3.0), 6) for _ in range(2))
            model = {"family": "UnitMassSHO", "params": {"w_s": w_s}}
            basis = {"kind": "analytic_sho", "A": 1.0, "B": 1.0}
            doc_checks = checks
        elif label == "sho_breathing":
            w_s = round(rng.uniform(0.7, 1.5), 6)
            times = [round(phase / w_s, 6) for phase in (0.0, 2.0)]
            model = {"family": "UnitMassSHO", "params": {"w_s": w_s}}
            basis = {"kind": "analytic_sho", "A": 2.0, "B": 1.0}
            doc_checks = checks
        else:
            times = [0.5, 2.5]
            model = {"family": "CaldirolaKanai",
                     "params": {"m": 1.0, "gamma": 0.3,
                                "w1": round(rng.uniform(0.8, 1.5), 6)}}
            basis = {"kind": "analytic_ck", "A": 1.0, "B": 1.0}
            # stationarity is defined for the constant-mass family only
            doc_checks = [c for c in checks if c != "stationarity"]
        model.update(t_min=-1.0, t_max=5.0)
        docs.append({
            "name": f"high_n_{label}",
            "hbar": hbar,
            "model": model,
            "basis": basis,
            "states": states,
            "times": times,
            "grid": {"policy": True},
            "checks": doc_checks,
        })
    return docs


class HighNStates(InProcess):
    name = "high_n_states"
    ortho_nmax = HIGH_N_ORTHO_NMAX
    allowed_wrong = SIZING_CHECKS

    def make_requests(self) -> dict:
        paths = {}
        for doc in high_n_documents(random.Random(f"{self.seed}/documents")):
            path = self.tmp / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            paths[doc["name"]] = str(path)
        return paths

    def expected(self, name: str) -> bool:
        return True


# ---------------------------------------------------------------------------
# cold CLI processes
# ---------------------------------------------------------------------------

COMMANDS = ("verify", "state", "classical")


class ColdCLI:
    name = "cold_cli"
    allowed_wrong = ()

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.count = 0
        self.pending = None

    def setup(self):
        from scipy.integrate import simpson

        self.simpson = simpson
        bundled = SRC / "tdho" / "scenarios"
        self.scenarios = {
            p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(bundled.glob("*.json"))
        }
        # one untimed request fills the page cache and the bytecode cache
        outcome = self.run(("verify", "sho_c1"))
        self.finish(outcome)
        if outcome.error or outcome.wrong:
            raise RuntimeError(f"warm-up request failed: {outcome.error or outcome.wrong}")

    def order(self, rng: random.Random) -> list:
        reqs = [(c, s) for c in COMMANDS for s in sorted(self.scenarios)]
        rng.shuffle(reqs)
        return reqs

    def argv(self, command: str, scenario: str, out_dir: Path) -> list[str]:
        if command == "verify":
            return ["verify", scenario, "--suite", "fast"]
        return [command, scenario, "--out", str(out_dir)]

    def run(self, req, tracer=None) -> Outcome:
        command, scenario = req
        self.count += 1
        out_dir = self.tmp / f"req{self.count}"
        argv = self.argv(command, scenario, out_dir)
        if tracer is None:
            cmd = [sys.executable, "-m", "tdho.cli", *argv]
            spans = None
        else:
            spans = (self.tmp / f"spans{self.count}.npz", tracer.stack[-1])
            cmd = [sys.executable, str(PROBE), str(spans[0]), *argv]
        try:
            proc = subprocess.run(cmd, cwd=SRC, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None  # run() has killed and reaped the child
        # output checks run in finish(), outside the timed request
        self.pending = (req, proc, out_dir, spans, tracer)
        return Outcome()

    def finish(self, outcome: Outcome):
        (command, scenario), proc, out_dir, spans, tracer = self.pending
        self.pending = None
        try:
            if proc is None:
                raise TimeoutError(f"no exit within {CHILD_TIMEOUT_S} s")
            if spans is not None:
                from tracing import load

                path, request_span = spans
                data, names, counters = load(path)
                tracer.extend(data, names, request_span)
                for key, value in counters.items():
                    tracer.count(key, value)
                path.unlink()
            check = getattr(self, f"_check_{command}")
            check(outcome, scenario, proc, out_dir)
        except Exception as e:  # malformed output is an error of the request
            outcome.fail(f"{command} {scenario}: {type(e).__name__}: {e}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _exit_ok(self, outcome, proc, expected_rc: int) -> bool:
        if proc.returncode not in (0, 1):
            outcome.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return False
        outcome.verdict("exit_code", proc.returncode == 0, expected_rc == 0)
        return True

    def _check_verify(self, outcome, scenario, proc, out_dir):
        expected = scenario != "negative_control"
        if not self._exit_ok(outcome, proc, 0 if expected else 1):
            return
        report = json.loads(proc.stdout)
        names = {_check_name(c) for c in self.scenarios[scenario]["checks"]}
        if not report or {r["check"] for r in report} != names:
            raise ValueError(f"report covers {sorted({r['check'] for r in report})}")
        for r in report:
            outcome.verdict(r["check"], bool(r["pass"]), expected, float(r["measured"]))

    def _written(self, proc, count: int) -> list[Path]:
        paths = [Path(line) for line in proc.stdout.split()]
        if len(paths) != count or not all(p.is_file() for p in paths):
            raise ValueError(f"expected {count} files, listed {len(paths)}")
        return paths

    def _check_state(self, outcome, scenario, proc, out_dir):
        if proc.returncode != 0:
            outcome.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        doc = self.scenarios[scenario]
        points = int(doc["grid"].get("points", 4096))
        count = len(set(doc["states"])) * len(doc["times"])
        for path in self._written(proc, count):
            with open(path, encoding="utf-8") as fh:
                if fh.readline().strip() != "x,re_psi,im_psi,abs2":
                    raise ValueError(f"{path.name}: bad header")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape != (points, 4) or not np.all(np.isfinite(data)):
                raise ValueError(f"{path.name}: shape {data.shape} or non-finite")
            side = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
            if side["grid"]["points"] != points:
                raise ValueError(f"{path.name}: sidecar points {side['grid']['points']}")
            norm = float(self.simpson(data[:, 3], x=data[:, 0]))
            if not abs(norm - 1.0) < NORM_TOL:
                raise ValueError(f"{path.name}: Simpson norm {norm!r}")

    def _check_classical(self, outcome, scenario, proc, out_dir):
        if proc.returncode != 0:
            outcome.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        driven = "driving" in self.scenarios[scenario]
        headers = [["t", "u", "du", "v", "dv", "omega_check"]]
        if driven:
            headers.append(["t", "xp", "dxp", "delta"])
        for path, header in zip(self._written(proc, len(headers)), headers):
            with open(path, encoding="utf-8") as fh:
                if fh.readline().strip().split(",") != header:
                    raise ValueError(f"{path.name}: bad header")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape != (201, len(header)) or not np.all(np.isfinite(data)):
                raise ValueError(f"{path.name}: shape {data.shape} or non-finite")


WORKLOADS = {w.name: w for w in (BundledSuite, HighNStates, ColdCLI)}

# Whole passes in a run of REFERENCE_S seconds (run_seconds in BENCHMARK.json);
# other --seconds scale the count, at least one pass.  The count does not
# depend on how fast the program is, so every commit does the same work and
# takes percentiles over the same number of samples of the same mix.  The
# tail (ten samples beyond it) needs more samples than one pass brings:
#
# * bundled_suite: 7 x 7 requests.  The two delta_equivalence scenarios make
#   up about 80 % of a pass; the tail, rank 39 of 49, is the middle sample
#   of the lighter one (driven_ck), so it moves with those two scenarios.
# * high_n_states: 16 x 3 requests; the tail, rank 38 of 48, falls inside
#   the heaviest family of documents.
# * cold_cli: 1 x 21 processes, about 33 s on 2 vCPUs.  With 21 samples the
#   tail is the median; a second pass would double the run to about 75 s.
REFERENCE_S = 40.0
PASSES = {"bundled_suite": 7, "high_n_states": 16, "cold_cli": 1}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_S))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    Unlike wall time it leaves out the time the host kept the virtual CPU
    from running, which varies from run to run on a shared machine.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Loop:
    def __init__(self, workload, rng: random.Random):
        self.workload = workload
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.wrong: dict[str, int] = {}
        self.errors: list[str] = []

    def run(self, passes: int, tracer=None) -> dict:
        """Run whole passes; return the wall and CPU seconds of every request
        and every pass, and the host_probe times around the requests.

        A pass time is the sum of its request times, so the output checks
        between requests are not part of it.
        """
        times = {"wall": [], "cpu": [], "pass_wall": [], "pass_cpu": [], "probe": []}
        for _ in range(passes):
            wall = cpu = 0.0
            for req in self.workload.order(self.rng):
                times["probe"].append(host_probe())
                if tracer is not None:
                    tracer.request[0] = self.attempted
                span = tracer.span("request") if tracer else nullcontext()
                t0, c0 = clock(), cpu_seconds()
                with span:
                    outcome = self.workload.run(req, tracer)
                dt, dc = clock() - t0, cpu_seconds() - c0
                self.workload.finish(outcome)
                times["wall"].append(dt)
                times["cpu"].append(dc)
                wall += dt
                cpu += dc
                self.record(outcome)
            times["pass_wall"].append(wall)
            times["pass_cpu"].append(cpu)
        times["probe"].append(host_probe())
        return times

    def record(self, outcome: Outcome):
        self.attempted += 1
        self.verdicts += outcome.verdicts
        for check, expected in outcome.wrong:
            key = f"{check}:{'false_failure' if expected else 'false_pass'}"
            self.wrong[key] = self.wrong.get(key, 0) + 1
        if outcome.error is not None:
            self.failed += 1
            self.errors.append(outcome.error)

    def wrong_total(self) -> int:
        return sum(self.wrong.values())

    def correct(self) -> bool:
        """No request errors, and no wrong verdict beyond the known defect."""
        allowed = {f"{c}:false_failure" for c in self.workload.allowed_wrong}
        return self.failed == 0 and all(k in allowed for k in self.wrong)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def provenance() -> dict:
    import platform

    import scipy

    import tdho

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tdho": tdho.__version__,
        "kernel_backend": tdho.kernel_backend,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--run-dir", required=True)
    args = p.parse_args(argv)

    run_dir = Path(args.run_dir)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        workload.setup()
        print(f"ready {cpu_seconds():.9f}", flush=True)
        if args.setup_only:
            return 0

        loop = Loop(workload, random.Random(f"{args.seed}/order"))
        result = {"import_s": IMPORT_S}
        if args.trace:
            from tracing import Tracer, install

            # end-to-end figures of a traced run come from its untraced half
            result["times"] = loop.run(passes_for(args.workload, args.seconds / 2))
            tracer = Tracer()
            install(tracer)
            result["traced_times"] = loop.run(passes_for(args.workload, args.seconds / 2),
                                              tracer)
            passes = len(result["traced_times"]["pass_wall"])
            result["layers"] = layer_metrics(tracer, passes)
            trace_path = run_dir / f"trace-{args.workload}.npz"
            tracer.save(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            result["times"] = loop.run(passes_for(args.workload, args.seconds))
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            verdicts=loop.verdicts,
            wrong=loop.wrong,
            wrong_total=loop.wrong_total(),
            correct=loop.correct(),
            errors=loop.errors[:20],
            peak_rss_mb=peak_rss_mb(),
            provenance=provenance(),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer numbers from the traced passes, per pass unless noted."""
    from tdho.verify import CHECK_NAMES

    from tracing import GROUPS, summarize

    groups = dict(GROUPS)
    groups.update({f"verify.{c}": (f"verify.{c}",) for c in CHECK_NAMES})
    groups["cli.import"] = ("cli.import",)
    g = summarize(tracer, groups)
    c = tracer.counters

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    imports = tracer.durations("cli.import")
    m = {
        # per process: this process's import, or the median over CLI children
        "cli.import_s": float(np.median(imports)) if imports else IMPORT_S,
        "cli.load_scenario_s": per_pass(g["cli.load_scenario"]["time_s"]),
        "cli.build_context_s": per_pass(g["cli.build_context"]["time_s"]),
        "models.calls": per_pass(g["models"]["spans"]),
        "models.scalar_frac": ratio(c.get("models.scalar_calls", 0.0), g["models"]["spans"]),
        "models.self_s": per_pass(g["models"]["self_s"]),
        "ode.solves": per_pass(g["ode.solve"]["calls"]),
        "ode.solve_s": per_pass(g["ode.solve"]["time_s"]),
        "ode.rhs_evals": per_pass(c.get("ode.rhs_evals", 0.0)),
        "ode.knots": per_pass(c.get("ode.knots", 0.0)),
        "ode.dense_calls": per_pass(g["ode.dense"]["spans"]),
        "ode.dense_points_per_call": ratio(c.get("ode.dense_points", 0.0),
                                           g["ode.dense"]["spans"]),
        "ode.dense_s": per_pass(g["ode.dense"]["time_s"]),
        "classical.basis_build_s": per_pass(g["classical.basis_build"]["time_s"]),
        "classical.theta_table_points": per_pass(c.get("classical.theta_table_points", 0.0)),
        "classical.particular_s": per_pass(g["classical.particular"]["time_s"]),
        "classical.basis_eval_calls": per_pass(g["classical.basis_eval"]["calls"]),
        "classical.basis_eval_s": per_pass(g["classical.basis_eval"]["time_s"]),
        "classical.delta_legacy_calls": per_pass(g["classical.delta_legacy"]["calls"]),
        "classical.delta_legacy_s": per_pass(g["classical.delta_legacy"]["time_s"]),
        "classical.shift_particular_s": per_pass(g["classical.shift_particular"]["time_s"]),
        "classical.export_s": per_pass(g["classical.export"]["time_s"]),
        "states.field_calls": per_pass(g["states.field"]["calls"]),
        "states.slice_self_s": per_pass(g["states.field"]["self_s"]),
        "states.kernel_calls": per_pass(g["states.kernel"]["spans"]),
        "states.kernel_s": per_pass(g["states.kernel"]["time_s"]),
        "states.hermite_steps": per_pass(c.get("states.hermite_steps", 0.0)),
        "states.kernel_bytes": per_pass(c.get("states.kernel_bytes", 0.0)),
        "states.kernel_alive_frac": ratio(c.get("states.kernel_alive", 0.0),
                                          c.get("states.kernel_points", 0.0)),
        "states.dump_s": per_pass(g["states.dump"]["time_s"]),
        "transforms.policy_grid_s": per_pass(g["transforms.policy_grid"]["time_s"]),
        "transforms.sample_s": per_pass(g["transforms.sample"]["time_s"]),
        "transforms.chain_s": per_pass(g["transforms.chain"]["time_s"]),
    }
    for check in CHECK_NAMES:
        m[f"verify.{check}_s"] = per_pass(g[f"verify.{check}"]["time_s"])
    m["verify.residual_calls"] = per_pass(g["verify.residual_call"]["calls"])
    m["verify.quadrature_calls"] = per_pass(g["verify.simpson"]["spans"])
    m["verify.quadrature_s"] = per_pass(g["verify.quadrature"]["time_s"])
    return {"metrics": m, "self_s": tracer.self_by_name(passes)}


if __name__ == "__main__":
    sys.exit(main())
