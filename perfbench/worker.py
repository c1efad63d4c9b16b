"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py``, never by hand.  Prints ``READY`` once the seeded
inputs exist (the parent times set-up up to that line), then, unless
``--setup-only`` is given, one JSON line with the raw measurements.

One thread drives the loop: each case starts when the previous verdict
has returned, and a pass over the case list is started only if the
median pass so far still fits before the deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import toricfol  # noqa: E402

if Path(toricfol.__file__).resolve().parent != SRC / "toricfol":
    sys.exit(f"imported toricfol from {toricfol.__file__}, not from this checkout")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_passes(cases, seconds: float, reference=None) -> dict:
    """Closed-loop passes over ``cases`` for about ``seconds``.

    A case fails when it raises, when its check reports a problem, or
    when its machine JSON differs from ``reference`` (the first pass's
    output when no reference is given).  The host-speed kernel runs
    between cases; ``corrected[i]`` holds case i's latency in every pass,
    scaled by the mean of the kernel times just before and just after it.
    """
    walls, latencies, kernels, problems = [], [], [], []
    corrected = [[] for _ in cases]
    deadline = time.perf_counter() + seconds
    while True:
        outputs = []
        start = time.perf_counter()
        kernel_before = hostspeed.kernel_s()
        for i, case in enumerate(cases):
            problem = None
            t0 = time.perf_counter()
            try:
                out, obj = case.run()
            except Exception as exc:  # noqa: BLE001 - a failed case is counted, never fatal
                out, problem = None, f"raised {exc!r}"
            latency = time.perf_counter() - t0
            kernel_after = hostspeed.kernel_s()
            latencies.append(latency)
            kernels.append(kernel_after)
            corrected[i].append(latency * hostspeed.REFERENCE_S * 2 / (kernel_before + kernel_after))
            kernel_before = kernel_after
            outputs.append(out)
            if problem is None:
                try:
                    problem = case.check(out, obj)
                except Exception as exc:  # noqa: BLE001
                    problem = f"check raised {exc!r}"
            if problem is None and reference is not None and out != reference[i]:
                problem = "machine JSON differs from the reference run"
            if problem is not None:
                problems.append(f"{case.name}: {problem}")
        walls.append(time.perf_counter() - start)
        if reference is None:
            reference = outputs
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    return {
        "walls": walls,
        "latencies": latencies,
        "kernels": kernels,
        "corrected": corrected,
        "problems": problems,
        "reference": reference,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    cases = workloads.build(args.workload, args.seed, args.smoke, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(cases, seconds)
    result = {
        "walls": plain["walls"],
        "latencies": plain["latencies"],
        "kernels": plain["kernels"],
        "corrected": plain["corrected"],
        "problems": plain["problems"],
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = tracer.clock()
            traced_cases = workloads.build(args.workload, args.seed, args.smoke, args.workdir)
            result["generate_s"] = tracer.clock() - t0
            result["setup_layers"] = {k: dict(v) for k, v in tracer.records.items()}
            tracer.reset()
            t0 = tracer.clock()
            traced = run_passes(traced_cases, seconds, reference=plain["reference"])
            result["traced_program_s"] = tracer.clock() - t0
        finally:
            tracer.uninstall()
        result["traced_walls"] = traced["walls"]
        result["latencies"] += traced["latencies"]
        result["problems"] += traced["problems"]
        result["layers"] = {k: dict(v) for k, v in tracer.records.items()}
        result["absent"] = sorted(tracer.absent)
    result["attempted"] = len(result["latencies"])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
