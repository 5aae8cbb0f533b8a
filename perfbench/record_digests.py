#!/usr/bin/env python3
"""Rewrite digests.json: the behaviour digest of every workload at seeds
1-10, for the checked-out program.

    python3 perfbench/record_digests.py
"""

import json
import sys

import run

SEEDS = range(1, 11)


def main():
    run.pin_threads()
    run.locate_program()
    import workloads

    digests = {
        name: {str(seed): run.behaviour_digest(cls(seed), seed)["sha256"] for seed in SEEDS}
        for name, cls in workloads.WORKLOADS.items()
    }
    path = run.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
