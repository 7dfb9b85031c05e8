"""tdho benchmark: one seeded workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload bundled_suite --seed 1 --seconds 40 --trace 0

--seconds sets how much work a run does (see PASSES in worker.py).

Run from the root of a checkout; the package is imported from src/ with no
install, as the tier-1 tests do.  Workloads are described in worker.py and
BENCHMARK.json.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with no wrappers installed.  The
time metrics are CPU seconds (time.process_time plus the rusage of
waited-for children), not wall seconds: on a shared virtual machine the
wall time of the same work varies by tens of percent with the time the host
withholds the CPU.  CPU time moves too, with how fast the host runs the
virtual CPU, so each request's and each set-up's CPU time is scaled to one
host speed by a fixed pure-Python probe timed just before and after it (see
host_probe and scaled()).  Raw CPU times (*_raw_cpu_s) and wall times, taken
with time.perf_counter, are printed and recorded next to them.

    setup_s            median over SETUP_SAMPLES fresh worker processes of
                       the scaled CPU time from process start to the first
                       timed request (wall: setup_wall_s)
    pass_cpu_s         median scaled CPU time of one pass over the
                       workload's request set (wall: pass_s)
    request_cpu_s_p50  median scaled CPU time of one request
                       (wall: request_s_p50)
    request_cpu_s_tail the highest percentile of the scaled request times
                       with at least ten samples beyond it; the percentile
                       and sample count are printed above
                       (wall: request_s_tail)
    peak_rss_mb        peak resident memory of the worker and its children

--trace 1 reports the per-layer metrics of a traced run (see tracing.py),
the tracing overhead, and the verdict and error fractions.  Both modes
print every metric, the provenance and the sample counts before the JSON
line, and write them to .perfbench-run/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
WORKLOADS = ("bundled_suite", "high_n_states", "cold_cli")
SETUP_SAMPLES = 3
# a run must end within 180 s; leave room for set-up and the last pass
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = ("setup_s", "pass_cpu_s", "request_cpu_s_p50", "request_cpu_s_tail",
              "peak_rss_mb")


PROBE_ITERATIONS = 300_000
# host_probe CPU seconds at the reference host speed, about its time on a
# 2-vCPU x86-64 VM with Python 3.11
PROBE_REF_S = 0.025


def host_probe() -> float:
    """CPU seconds of a fixed pure-Python loop that calls no tdho code.

    On a shared host the CPU time of the same work moves by tens of percent
    within a minute: on a 2-vCPU VM this probe took 18-31 ms, and its time
    tracked that of the requests next to it.  It is timed before and after
    every request (worker.Loop.run) and every set-up (start_worker), so
    that their CPU times can be scaled to one host speed.
    """
    t0 = time.process_time()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i
    return time.process_time() - t0


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    """The environment of every process the benchmark starts.

    The package comes from src/.  BLAS and OpenMP pools get one thread,
    within the cap of nproc: the program does no parallel BLAS work, and
    idle pool threads spinning added about 8 % run-to-run noise to the CPU
    time of a CLI process (1.42-1.64 s with two threads, 1.34-1.40 s with
    one, same wall time, 2 vCPUs).
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def start_worker(args, env, deadline, setup_only: bool):
    """Start a worker and wait for its "ready" line.

    Returns the process and its set-up time: wall time measured here from
    the start of the process, CPU time as the worker reports it, and the
    mean host_probe time around it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(RUN_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    before = host_probe()
    t0 = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    word, _, cpu = proc.stdout.readline().partition(" ")
    wall = clock() - t0
    if word != "ready":
        stop(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, {"wall": wall, "cpu": float(cpu), "probe": (before + host_probe()) / 2}


def stop(proc, deadline):
    try:
        proc.wait(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_worker(args, env, deadline) -> tuple[dict, list[dict]]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, env, deadline, setup_only=True)
        stop(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited {proc.returncode}")
        setups.append(setup)
    proc, setup = start_worker(args, env, deadline, setup_only=False)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples above it; with ten samples or fewer, the largest one."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 10  # samples at or below the reported value
    return xs[k - 1], 100.0 * k / n


def scaled(times: dict) -> tuple[list[float], list[float]]:
    """Request and pass CPU seconds scaled to the reference host speed.

    Each request's CPU time is divided by the host speed around it: the mean
    of the host_probe times just before and just after it, over PROBE_REF_S.
    """
    probe = times["probe"]
    requests = [cpu * 2.0 * PROBE_REF_S / (before + after)
                for cpu, before, after in zip(times["cpu"], probe, probe[1:])]
    per_pass = len(requests) // len(times["pass_cpu"])
    passes = [sum(requests[i:i + per_pass]) for i in range(0, len(requests), per_pass)]
    return requests, passes


def end_to_end(raw: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Every end-to-end figure, scaled CPU, raw CPU and wall, and its sample
    count."""
    times = raw["times"]
    metrics, samples = {}, {}
    series = (("cpu_s", *scaled(times)),
              ("raw_cpu_s", times["cpu"], times["pass_cpu"]),
              ("s", times["wall"], times["pass_wall"]))
    for suffix, requests, passes in series:
        metrics[f"pass_{suffix}"] = statistics.median(passes)
        metrics[f"request_{suffix}_p50"] = statistics.median(requests)
        value, pct = tail(requests)
        metrics[f"request_{suffix}_tail"] = value
        samples[f"pass_{suffix}"] = len(passes)
        samples[f"request_{suffix}_p50"] = len(requests)
        samples[f"request_{suffix}_tail"] = f"p{pct:.1f} of {len(requests)}"
    metrics["setup_s"] = statistics.median(s["cpu"] * PROBE_REF_S / s["probe"] for s in setups)
    metrics["setup_raw_cpu_s"] = statistics.median(s["cpu"] for s in setups)
    metrics["setup_wall_s"] = statistics.median(s["wall"] for s in setups)
    samples["setup_s"] = samples["setup_raw_cpu_s"] = samples["setup_wall_s"] = len(setups)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    samples["peak_rss_mb"] = 1
    metrics["wrong_verdict_frac"] = (raw["wrong_total"] / raw["verdicts"]
                                     if raw["verdicts"] else 0.0)
    metrics["error_frac"] = raw["failed"] / raw["attempted"]
    samples["wrong_verdict_frac"] = raw["verdicts"]
    samples["error_frac"] = raw["attempted"]
    return metrics, samples


def per_layer(raw: dict, e2e: dict) -> dict:
    metrics = dict(raw["layers"]["metrics"])
    traced = statistics.median(scaled(raw["traced_times"])[1])
    untraced = statistics.median(scaled(raw["times"])[1])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["wrong_verdict_frac"] = e2e["wrong_verdict_frac"]
    metrics["error_frac"] = e2e["error_frac"]
    return metrics


def declared_units(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tdho benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "tdho" / "__init__.py").is_file():
        print(f"error: no tdho package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = clock() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    env = worker_env()

    try:
        raw, setups = run_worker(args, env, deadline)
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    e2e, samples = end_to_end(raw, setups)
    if args.trace:
        metrics = per_layer(raw, e2e)
        samples["traced_passes"] = len(raw["traced_times"]["pass_cpu"])
        units = declared_units("per_layer")
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    provenance = {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": {v: worker_env()[v] for v in THREAD_VARS},
        **raw["provenance"],
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance,
        "samples": samples,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "verdicts": raw["verdicts"],
        "wrong_verdicts": raw["wrong"],
        "errors": raw["errors"],
        "correct": raw["correct"],
        "end_to_end": e2e,
        "setup_samples_s": setups,
        "times": raw["times"],
        "metrics": metrics,
    }
    if args.trace:
        # self time per traced pass by span name, and summed by module (the
        # first part of the name; "request" is the benchmark's own glue)
        report["self_s"] = raw["layers"]["self_s"]
        report["module_self_s"] = {}
        for name, value in report["self_s"].items():
            module = name.split(".")[0]
            report["module_self_s"][module] = report["module_self_s"].get(module, 0.0) + value
        report["traced_pass_cpu_s"] = statistics.median(scaled(raw["traced_times"])[1])
        report["trace_file"] = raw["trace_file"]
    out = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in provenance.items() if k != "threads"))
    print(f"# threads {provenance['threads']}")
    print(f"# requests attempted={raw['attempted']} failed={raw['failed']} "
          f"verdicts={raw['verdicts']} wrong={raw['wrong']}")
    for name, value in e2e.items():
        unit = "MB" if name == "peak_rss_mb" else "ratio" if name.endswith("frac") else "s"
        print(f"# e2e {name} = {value:.6g} {unit} (n={samples[name]})")
    if args.trace:
        for name in sorted(metrics):
            print(f"# layer {name} = {metrics[name]:.6g} {units[name]}")
        print(f"# traced pass {report['traced_pass_cpu_s']:.4g} s CPU; self time per pass "
              "by module: "
              + ", ".join(f"{k}={v:.4g}s" for k, v in sorted(report["module_self_s"].items())))
        top = sorted(report["self_s"].items(), key=lambda kv: -kv[1])[:8]
        print("# largest self times per pass: "
              + ", ".join(f"{k}={v:.4g}s" for k, v in top))
    for err in raw["errors"]:
        print(f"# error: {err}")
    print(json.dumps({
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
