#!/usr/bin/env python3
"""Self-test of the benchmark; not part of the tier-1 test suite.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks that

- every metric BENCHMARK.json names is emitted with its unit, that no other
  metric is, that every value is a finite number and every name matches
  ``[A-Za-z0-9_.-]+``;
- every function the tracer replaced is the original again afterwards;
- the error rate is 0 at the default seeds;

and that run.py exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
problem.
"""

import json
import math
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DEFAULT_SEEDS = (1, 2)
WORKLOADS = ("scan-hs", "sample-hs", "chart", "verify")


def check_metrics(result, spec, where):
    problems = []
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not NAME.fullmatch(name):
            problems.append(f"{where}: bad metric name {name!r}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    return problems


def check_without_program():
    """run.py must refuse to run where the program's sources are absent."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-hs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"run.py without sources: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main():
    run.pin_threads()
    run.locate_program()
    import spans

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    targets = spans.hook_targets()
    originals = [getattr(module, attr) for module, attr in targets]
    problems = []
    for name in WORKLOADS:
        for seed in DEFAULT_SEEDS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                where = f"{name} seed {seed} trace {int(trace)}"
                result, report = run.run(name, seed, 0.1, trace, scale="tiny")
                problems += check_metrics(result, spec[key], where)
                if result["failed"] or report["error_rate"] != 0:
                    problems.append(f"{where}: error rate {report['error_rate']}, "
                                    f"failures {report['failures']}")
                changed = [f"{m.__name__}.{a}" for (m, a), o in zip(targets, originals)
                           if getattr(m, a) is not o]
                if changed:
                    problems.append(f"{where}: not restored: {changed}")
                print(f"{where}: {result['attempted']} operations checked", flush=True)
    problems += check_without_program()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
