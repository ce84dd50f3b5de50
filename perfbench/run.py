"""The eisenlat benchmark.

    python3 perfbench/run.py --workload verify-full|group-enum|query-mix \
        --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file, and eisenlat is
imported from ../src.  One closed-loop client: each pass runs in a fresh
child interpreter (cold caches), and passes repeat until S seconds have gone
by (at least one pass).  Set-up time is the median wall time of several
children that only import eisenlat and load the inputs.

The times of a pass (run_s, cpu_s, and each request's latency) are scaled
by the host-speed factor measured while it ran (hostspeed.py); set-up time
is not scaled, as it does not follow that factor.  The raw medians and the
factors of the passes are on the info line.

With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics of traced passes (plus, if time allows, one
untraced pass to measure the tracing overhead).  The line before it records
the machine and the inputs.  Exit status is 0 when a result was printed, even if some answer
was wrong (then "correct" is false and "failed" counts the operations).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # workloads counts a11 unknowns with eisenlat.discpoly

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
TRACE_EXTRA = {
    "ops_failed_frac": "ratio",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_frac": "ratio",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 8
DEADLINE_S = 150  # no further pass is started that would likely end later than this
TIME_LIMIT_S = 175  # a child still running then is killed and the run fails
WORKDIR = ROOT / ".perfbench_work"


def per_layer_units():
    return {**dict(tracer.layer_metric_names()), **TRACE_EXTRA}


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    env.pop("EISENLAT_CLOSURE_CAP", None)
    return env


def run_child(inputs_path, phase, started, trace=False):
    """Run child.py once; return (wall seconds, its JSON report)."""
    timeout = max(10.0, TIME_LIMIT_S - (time.perf_counter() - started))
    cmd = [sys.executable, str(HERE / "child.py"), "--inputs", str(inputs_path), "--phase", phase]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} child still running after {TIME_LIMIT_S} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{phase} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def machine(numpy_version):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_limits": {var: str(nproc()) for var in THREAD_VARS},
    }


def measure(inputs_path, seconds, trace, started):
    """Run the passes; return (metrics, reports of every pass, notes for the info line)."""

    def passes(trace_on):
        timed = []  # (wall seconds, report)
        t_loop = time.perf_counter()
        while not timed or time.perf_counter() - t_loop < seconds:
            if timed and time.perf_counter() - started + timed[-1][0] > DEADLINE_S:
                break
            timed.append(run_child(inputs_path, "run", started, trace_on))
        return timed

    if trace:
        timed = passes(True)
        traced = [r for _, r in timed]
        speed = [hostspeed.factor(p["kernel_s"]) for p in traced]
        # times taken during a pass (unit s) are scaled like run_s; counts and the
        # microbenchmark, which runs after the pass, are not
        layers = {
            name: statistics.median(p["layers"][name] * (f if unit == "s" else 1) for p, f in zip(traced, speed))
            for name, unit in tracer.layer_metric_names()
        }
        traced_run_s = statistics.median(p["run_s"] * f for p, f in zip(traced, speed))
        # the untraced reference pass comes after the traced ones, and only if it is
        # likely to end in time (it is no slower than a traced pass); otherwise the
        # untraced time is the traced time less the calibrated cost of the wrappers
        if time.perf_counter() - started + min(w for w, _ in timed) <= DEADLINE_S:
            untraced = [run_child(inputs_path, "run", started)[1]]
            untraced_run_s = untraced[0]["run_s"] * hostspeed.factor(untraced[0]["kernel_s"])
            notes = {"trace_overhead_from": "untraced pass"}
        else:
            untraced = []
            untraced_run_s = statistics.median((p["run_s"] - p["wrapper_s"]) * f for p, f in zip(traced, speed))
            notes = {"trace_overhead_from": "wrapper calibration"}
        notes["speed_factors"] = speed
        everything = traced + untraced
        layers.update(
            {
                "ops_failed_frac": sum(len(p["failures"]) for p in everything) / sum(p["attempted"] for p in everything),
                "trace.untraced_run_s": untraced_run_s,
                "trace.traced_run_s": traced_run_s,
                "trace.overhead_frac": traced_run_s / untraced_run_s - 1,
            }
        )
        units = per_layer_units()
        return {name: (value, units[name]) for name, value in layers.items()}, everything, notes

    # half the set-up probes before the passes and half after, so they see more host states
    setup = [run_child(inputs_path, "setup", started)[0] for _ in range(SETUP_PROBES // 2)]
    reports = [r for _, r in passes(False)]
    setup += [run_child(inputs_path, "setup", started)[0] for _ in range(SETUP_PROBES - len(setup))]
    speed = [hostspeed.factor(p["kernel_s"]) for p in reports]
    # every pass makes the same requests: take each request's median over the passes
    request_ms = [1000 * statistics.median(r) for r in zip(*(map(operator.mul, p["request_s"], p["request_factor"]) for p in reports))]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p["run_s"] * f for p, f in zip(reports, speed)),
        "cpu_s": statistics.median(p["cpu_s"] * f for p, f in zip(reports, speed)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in reports),
        "query_p50_ms": statistics.median(request_ms),
        "query_p90_ms": statistics.quantiles(request_ms, n=10, method="inclusive")[8] if len(request_ms) > 1 else request_ms[0],
    }
    notes = {
        "raw": {
            "run_s": statistics.median(p["run_s"] for p in reports),
            "cpu_s": statistics.median(p["cpu_s"] for p in reports),
        },
        "speed_factors": speed,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, reports, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind: subprocess.run kills the running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eisenlat" / "__init__.py").is_file():
        print(f"error: no eisenlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        inputs_path = workloads.write_inputs(inputs, workdir)
        metrics, reports, notes = measure(inputs_path, args.seconds, bool(args.trace), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only if no other run is using it
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in reports)
    failures = [f for p in reports for f in p["failures"]]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    info = {
        "machine": machine(reports[0]["numpy"]),
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(reports),
        "inputs": inputs.get("summary", {}),
        **notes,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
