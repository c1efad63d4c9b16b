"""toricfol benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload koszul-roundtrip --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics named in BENCHMARK.json, ``--trace 1`` the per-layer metrics;
``--smoke`` shrinks every workload to its smallest size.  Workloads,
seeds and the prediction table are described in perfbench/README.md.

Set-up is timed in fresh processes from spawn until the seeded inputs
exist, several times per run, and reported as the median.  The workload
itself runs in one more fresh process (see worker.py); its peak resident
memory is reported as ``peak_rss_mib``.  Every time among the end-to-end
metrics is corrected for the speed of a shared host (see hostspeed.py);
a ``#`` line gives the uncorrected figures beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # extra set-up-only processes; the measuring process adds one sample
TIMEOUT_S = 170  # every run must end within 180 s
# Labels whose counters come from the traced set-up rather than the traced passes.
SETUP_LABELS = ("casefile.render_case",)


class BenchError(RuntimeError):
    pass


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def _kernel_s() -> float:
    """Median of nine timings of the host-speed kernel: how fast the host is now."""
    return statistics.median(hostspeed.kernel_s() for _ in range(9))


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, workdir: str, setup_only: bool, deadline: float):
    """Start worker.py; return (seconds from spawn to READY, corrected for the
    host's speed just before the spawn, and the parsed result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    kernel = _kernel_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline)
        first = proc.stdout.readline()
        ready = (time.perf_counter() - start) * hostspeed.REFERENCE_S / kernel
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return ready, (None if setup_only else json.loads(out.strip().splitlines()[-1]))


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _layer_metrics(result, names) -> tuple[dict, list]:
    # Means per pass, like every per-layer counter, so self times add up to the wall.
    passes = len(result["traced_walls"])
    traced_wall = statistics.fmean(result["traced_walls"])
    layers, setup = result["layers"], result["setup_layers"]
    absent = []
    values = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(result["walls"]),
        "trace.unattributed_s": (
            result["traced_program_s"] - sum(r.get("self_s", 0.0) for r in layers.values())
        ) / passes,
        "setup.generate_s": result["generate_s"],
    }
    for name in names:
        if name in values:
            continue
        label, stat = name.rsplit(".", 1)
        if any(label == a or label.startswith(a + ".") for a in result["absent"]):
            absent.append(name)
            values[name] = 0
        elif label in SETUP_LABELS:
            values[name] = setup.get(label, {}).get(stat, 0.0)
        elif stat.endswith("_max"):
            values[name] = layers.get(label, {}).get(stat, 0)
        else:
            values[name] = layers.get(label, {}).get(stat, 0.0) / passes
    return values, absent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, for a quick schema check")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks stop the worker and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "toricfol" / "__init__.py").is_file():
        print("perfbench: src/toricfol is missing; run from the root of a toricfol checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": _loadavg(),
        "kernel_ms_start": _kernel_s() * 1000,
    }
    deadline = time.monotonic() + TIMEOUT_S
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work")
    try:
        setups = []
        for k in range(0 if args.trace else SETUP_PROBES):
            ready, _ = _spawn(args, os.path.join(workdir, f"probe{k}"), True, deadline)
            setups.append(ready)
        ready, result = _spawn(args, os.path.join(workdir, "main"), False, deadline)
        setups.append(ready)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    env["kernel_ms_end"] = _kernel_s() * 1000

    # Every latency is corrected for the host's speed (see hostspeed.py).
    corrected = result["corrected"]
    samples = [x for per_case in corrected for x in per_case]
    lat = result["latencies"]
    failed = len(result["problems"])
    attempted = result["attempted"]
    for problem in result["problems"][:20]:
        print(f"FAIL {problem}")
    absent = []
    if args.trace:
        values, absent = _layer_metrics(result, [m["name"] for m in wanted])
    else:
        values = {
            "wall_s": sum(statistics.median(per_case) for per_case in corrected),
            "case_p50_s": statistics.median(samples),
            "case_p90_s": _nearest_rank(samples, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        raw_cases = [lat[i :: len(corrected)] for i in range(len(corrected))]
        print(
            f"# passes={len(result['walls'])} cases={len(corrected)} case_samples={len(samples)} "
            f"beyond_p90={sum(x > values['case_p90_s'] for x in samples)} setup_samples={len(setups)}"
        )
        print(
            f"# uncorrected: wall_s={sum(statistics.median(c) for c in raw_cases):.6g} "
            f"case_p50_s={statistics.median(lat):.6g} case_p90_s={_nearest_rank(lat, 0.9):.6g} "
            f"kernel_ms_median={statistics.median(result['kernels']) * 1000:.4g} "
            f"reference_kernel_ms={hostspeed.REFERENCE_S * 1000:.4g}"
        )
        print(f"# fail_rate = {failed / attempted} ratio ({failed} of {attempted} failed)")
    print("# env " + json.dumps(env, sort_keys=True))
    if absent:
        print("# absent " + " ".join(absent))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
