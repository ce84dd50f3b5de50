"""One measured pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --inputs <inputs.json> --phase setup|run [--trace]

The setup phase imports eisenlat (CLI and check registry) and loads the
inputs, then exits; its wall time, taken by the parent, is the set-up cost.
The run phase does the same set-up, then one pass of the workload while a
hostspeed.Sampler thread times the kernel, and reports the pass's wall and
CPU time (the sampler's CPU time taken out), peak RSS, request latencies
with the host-speed factor of each, the kernel times, and the operations
attempted and failed; with --trace it also reports the layer spans and the
Z[w] microbenchmark.  The parent (run.py) caps the BLAS and OpenMP threads.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import numpy

    import eisenlat.cli  # noqa: F401  (the CLI and, below, the check registry)
    import eisenlat.verify  # noqa: F401
    import hostspeed
    import workloads

    inputs = workloads.load_inputs(args.inputs)
    if args.phase == "setup":
        print(json.dumps({"setup": "ok"}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        with hostspeed.Sampler() as sampler:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            spans, attempted, check = workloads.run_pass(inputs)
            run_s = time.perf_counter() - t0
            cpu_s = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu_s -= sampler.cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check()
    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "request_s": [seconds for _, seconds in spans],
        "request_factor": [sampler.factor_over(start, seconds) for start, seconds in spans],
        "kernel_s": sampler.samples,
        "attempted": attempted,
        "failures": failures,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from tracer import microbench, wrapper_cost_s

        result["layers"] = {**tracer.metrics(), **microbench()}
        result["wrapper_s"] = sum(tracer.calls.values()) * wrapper_cost_s()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
