#!/usr/bin/env python3
"""Rewrite bench/pins.json from one pass of every workload.

    python3 bench/pin.py

Run it only when a change is meant to alter lapgraph's exact outputs, and
say why in that change: the pins are the benchmark's proof that an
optimisation left every output as it was.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        pins[name] = {}
        for job in workloads.build(name, 0, BENCH_DIR.parent):
            outcome = job.check(job.run())
            if outcome.wrong:
                print(f"{job.name}: {outcome.problem}; nothing pinned", file=sys.stderr)
                return 1
            if outcome.payload:
                pins[name][job.name] = workloads.digest(outcome.payload)
        pins[name] = dict(sorted(pins[name].items()))
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, pins.values()))} outputs in {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
