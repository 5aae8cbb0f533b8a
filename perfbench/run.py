#!/usr/bin/env python3
"""entspace benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload scan-hs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there and nowhere else, and the run fails (non-zero exit, no result) when
it is missing.  BLAS/OpenMP pools are pinned to one thread here, in the
launcher, before numpy loads.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced loop iterations, then sweeps every
layer once at a tiny size, and reports the per-layer metrics.  The line
before it is ``{"report": ...}``: machine facts, behaviour digests, sample
counts, unscaled wall-clock figures, the error rate and the first
failures.  Timings are scaled to nominal machine speed (workloads.Stats);
README.md defines every metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 5, "tiny": 1}

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import entspace
import workloads
workloads.WORKLOADS[{name!r}]({seed}, {scale!r}).warmup()
setup = time.perf_counter() - t0
cal = sorted(workloads.calibration_seconds() for _ in range(5))[2]
print(setup, setup * workloads.CAL_NOMINAL_S / cal)
"""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def locate_program():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "entspace" / "__init__.py").is_file():
        raise SystemExit(f"error: no entspace sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import entspace

    if not Path(entspace.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: entspace was imported from {entspace.__file__}")


def percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(name, seed, scale):
    """Import plus first-call set-up, each in a fresh interpreter; returns
    (wall seconds, seconds at nominal machine speed) per interpreter."""
    code = _SETUP_CODE.format(
        src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, scale=scale
    )
    times = []
    for _ in range(SETUP_REPEATS[scale]):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True, cwd=ROOT,
        )
        wall, scaled = done.stdout.split()[-2:]
        times.append((float(wall), float(scaled)))
    return times


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def behaviour_digest(workload, seed):
    """sha256 of the CLI's stdout for the workload's digest command."""
    from entspace import cli

    argv = [a.replace("{seed}", str(seed)) for a in workload.digest_argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    try:
        known = json.loads((BENCH_DIR / "digests.json").read_text())
        reference = known.get(workload.name, {}).get(str(seed))
    except (OSError, ValueError):
        reference = None
    status = "unrecorded" if reference is None else ("match" if reference == sha else "changed")
    return {"command": "entspace " + " ".join(argv), "exit": code, "sha256": sha,
            "status": status}


def loop(workload, stats, seconds):
    """Closed loop: whole iterations until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        workload.iteration(stats)
        if time.perf_counter() >= deadline:
            return


def end_to_end(workload, stats, seconds, seed, scale, report):
    """Untraced run: the end-to-end metrics."""
    setup = measure_setup(workload.name, seed, scale)
    loop(workload, stats, seconds)
    workload.finish(stats)
    lat = stats.latencies_ms
    report["samples"] = {"setup": len(setup), "latency": len(lat),
                         "throughput_calls": len(stats.rates),
                         "throughput_units": stats.units}
    report["wall"] = {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "throughput_per_s": percentile(stats.raw_rates, 50),
        "latency_ms_p50": percentile(stats.raw_latencies_ms, 50),
        "latency_ms_p90": percentile(stats.raw_latencies_ms, 90),
        "calibration_ms_p50": 1e3 * percentile(stats.calibrations, 50),
    }
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "throughput_per_s": (percentile(stats.rates, 50), "1/s"),
        "latency_ms_p50": (percentile(lat, 50), "ms"),
        "latency_ms_p90": (percentile(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, stats, seconds, seed, scale, report):
    """Traced run: the per-layer metrics.

    Untraced and traced iterations alternate, so both see the same machine
    conditions.  A traced sweep of every workload at the tiny size follows,
    so every layer gets a measured figure.
    """
    import spans
    import workloads

    traced = workloads.Stats()
    sweep = workloads.Stats()
    recorder = spans.Recorder()
    deadline = time.perf_counter() + seconds
    iterations = 0
    while True:
        workload.iteration(stats)
        recorder.install()
        try:
            workload.iteration(traced)
        finally:
            recorder.uninstall()
        iterations += 1
        if time.perf_counter() >= deadline:
            break
    recorder.phase = "sweep"
    recorder.install()
    try:
        for cls in workloads.WORKLOADS.values():
            tiny = cls(seed, "tiny")
            tiny.iteration(sweep)
            tiny.finish(sweep)
    finally:
        recorder.uninstall()
    workload.finish(stats)

    check_names = [fn.__name__.removeprefix("_check_")
                   for _, fn in sys.modules["entspace.verify"].CHECKS]
    metrics = spans.layer_metrics(recorder.spans, check_names, iterations)
    overhead = percentile(stats.rates, 50) / percentile(traced.rates, 50) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "frac")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.json"
    recorder.dump(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["samples"] = {"spans": len(recorder.spans), "traced_iterations": iterations}
    stats.merge(traced)
    stats.merge(sweep)
    return metrics


def run(name, seed, seconds, trace, scale="full"):
    """One benchmark run; returns (result, report)."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, scale)
    workload.warmup()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "scale": scale, "machine": machine_facts(),
              "digest": behaviour_digest(workload, seed)}
    stats = workloads.Stats()
    measure = per_layer if trace else end_to_end
    metrics = measure(workload, stats, seconds, seed, scale, report)
    report["notes"] = workload.notes
    report["error_rate"] = stats.failed / stats.attempted
    report["failures"] = stats.failures
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-hs", "sample-hs", "chart", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_threads()
    locate_program()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
