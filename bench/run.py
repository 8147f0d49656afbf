#!/usr/bin/env python3
"""Benchmark of lapgraph: run one workload in this process and print its metrics.

    python3 bench/run.py --workload tree-growth --seed 3 --seconds 30 --trace 0

Workloads are verify-corpus, tree-growth and mahler-ladder (see
bench/README.md).  One caller runs the workload's jobs one after another, a
closed loop with a single client in a single process and no threads, and
repeats the whole job list a fixed number of times that --seconds scales.
Nothing queues, so wait time is zero by construction.  Every output is
checked.  --trace 0 times are CPU seconds at a reference host speed, gauged
by bench/calibrate.py around and during every timed call.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job untraced
and traced back to back and reports per-layer metrics from the traced runs,
plus the tracing overhead; its spans are written to bench/out/.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-ups timed before each pass, so that they sample the whole run rather
# than its first second.
SETUPS_PER_PASS = 4
# Passes of the job list in a run of REFERENCE_SECONDS; --seconds scales
# them.  A fixed count rather than "until time is up" makes two commits
# measure the same samples, so job_tail_s is the same order statistic on both.
# On a 2-vCPU Xeon VM a pass took 3.7 to 5.9, 5.0 to 8.7 and 6.2 to 10 s of
# CPU time as the host drifted.  These counts keep a run within about 40 s at
# the slow end, so that all runs of a benchmark check fit its time limit, and
# put each tail inside the runs of one job or of two of like cost.
REFERENCE_SECONDS = 30
PASSES = {"verify-corpus": 6, "tree-growth": 3, "mahler-ladder": 3}
# Modules re-imported by every set-up, so that set-up time includes the import.
FRESH_MODULES = ("lapgraph", "workloads", "corpus")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lapgraph" / "__init__.py").is_file() or not (ROOT / "graphs").is_dir():
        print(f"bench: no lapgraph sources under {ROOT} (need src/lapgraph and graphs/)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(
        f"workload {args.workload}  seed {args.seed}  closed loop, one caller, one process, "
        "no threads: wait time is 0 s by construction"
    )
    result = traced_run(args) if args.trace else end_to_end_run(args)
    print(json.dumps(result))
    return 0


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def median_latencies(passes: list[dict[str, float]]) -> list[float]:
    """Each job's median latency over the passes, sorted."""
    return sorted(statistics.median(p[name] for p in passes) for name in passes[0])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its
    percentile (the largest sample when there are fewer than eleven)."""
    ordered = sorted(samples)
    i = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[i], 100 * (i + 1) / len(ordered)


def fresh_setup(workload: str, seed: int):
    """Import lapgraph afresh and build the jobs; returns (module, jobs)."""
    for name in [m for m in sys.modules if m.split(".")[0] in FRESH_MODULES]:
        del sys.modules[name]
    wl = importlib.import_module("workloads")
    return wl, wl.build(workload, seed, ROOT)


def cpu_time(fn) -> float:
    """Call fn(); return its CPU seconds."""
    start = time.thread_time()
    fn()
    return time.thread_time() - start


class Tally:
    """Latency samples and check results over every job run."""

    def __init__(self, wl, pins: dict[str, str]):
        self.wl = wl
        self.pins = pins
        self.attempted = 0
        self.failures: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.wrong = False
        self.digests: dict[str, str] = {}
        self.closed_form_err = 0.0

    def record(self, job, result, exc: Exception | None) -> None:
        self.attempted += 1
        if exc is not None:
            problem, wrong = f"raised {type(exc).__name__}: {exc}", True
        else:
            outcome = job.check(result)
            problem, wrong = outcome.problem, outcome.wrong
            if outcome.closed_form_err is not None:
                self.closed_form_err = max(self.closed_form_err, outcome.closed_form_err)
            if outcome.payload:
                digest = self.digests[job.name] = self.wl.digest(outcome.payload)
                pin = self.pins.get(job.name)
                if digest != pin:
                    problem, wrong = f"output digest {digest} differs from the pinned {pin}", True
        if problem is not None:
            self.failures[job.name] += 1
            self.reasons[job.name] = problem
            self.wrong = self.wrong or wrong

    def run_job(self, job, timer=cpu_time, tracer=None) -> float:
        """Run and check one job; returns its latency as ``timer`` gives it."""
        result = exc = None

        def call():
            nonlocal result, exc
            try:
                result = job.run()
            except Exception as e:  # a job that raises is a failed job; the loop goes on
                exc = e

        with tracer.span(f"job:{job.name}") if tracer else nullcontext():
            latency = timer(call)
        self.record(job, result, exc)
        return latency

    def report(self, metrics: dict[str, dict]) -> dict:
        attempted, failed = self.attempted, sum(self.failures.values())
        print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} job runs failed)")
        for name, count in sorted(self.failures.items()):
            print(f"FAILED {name} ({count}x): {self.reasons[name]}")
        outputs = "".join(f"{name}={d}\n" for name, d in sorted(self.digests.items()))
        print(f"output digest {self.wl.digest(outputs.encode())} over {len(self.digests)} jobs")
        return {"correct": not self.wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end_run(args) -> dict:
    import calibrate

    wl, jobs = fresh_setup(args.workload, args.seed)
    tally = Tally(wl, wl.load_pins().get(args.workload, {}))
    setups, cpu, walls = [], [], []

    def setups_then_pass():
        """Time SETUPS_PER_PASS set-ups, then run every job once; returns
        each job's latency."""
        setups.extend(gauge.time(lambda: fresh_setup(args.workload, args.seed)) for _ in range(SETUPS_PER_PASS))
        gc.collect()  # the discarded modules are garbage the pass should not pay for
        cpu_before, start = gauge.cpu_s, time.perf_counter()
        latencies = {job.name: tally.run_job(job, gauge.time) for job in jobs}
        walls.append(time.perf_counter() - start)
        cpu.append(gauge.cpu_s - cpu_before)
        return latencies

    with calibrate.Gauge() as gauge:
        passes = [setups_then_pass() for _ in range(pass_count(args.workload, args.seconds))]
    medians = median_latencies(passes)
    n = len(medians)
    samples = [t for p in passes for t in p.values()]
    tail_s, tail_pct = tail(samples)
    tail_job = next(name for p in passes for name, t in p.items() if t == tail_s)
    runs = f"each job's median of {len(passes)} runs"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (sum(medians), "s", f"sum over {n} jobs of {runs}"),
        "job_p50_s": (statistics.median(medians), "s", f"median of {n} jobs, {runs}"),
        "job_tail_s": (tail_s, "s", f"p{tail_pct:.1f} of all {len(samples)} job runs, a run of {tail_job}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:14s} {value:12.6f} {unit:3s} ({note})")
    reference = [sum(p.values()) for p in passes]
    for label, values in (
        ("pass CPU time (s)", cpu),
        ("pass CPU time at reference speed (s)", reference),
        ("host slowdown (their ratio)", [c / r for c, r in zip(cpu, reference)]),
        ("pass wall-clock time, calibration samples included (s)", walls),
    ):
        print(f"{label}: {' '.join(f'{v:.3f}' for v in values)}; median {statistics.median(values):.3f}")
    if args.workload == "mahler-ladder":
        print(f"mahler_max_err {tally.closed_form_err:.3e} (largest |value - closed form|)")
    return tally.report({name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()})


def traced_run(args) -> dict:
    import tracing

    wl, _ = fresh_setup(args.workload, args.seed)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        jobs = wl.build(args.workload, args.seed, ROOT)
    setup_spans, setup_counters = tracer.take()
    layers = [m for m in tracing.LAYERS if m not in tracing.SETUP_LAYERS]
    stats = tracing.layer_stats(setup_spans, setup_counters, tracing.SETUP_LAYERS)
    tally = Tally(wl, wl.load_pins().get(args.workload, {}))
    per_pass, phases = [], [setup_spans]

    def paired_pass(i: int) -> float:
        """Run each job untraced and traced back to back, in turns which
        first; returns the traced minus the untraced time of the pass."""
        overhead = 0.0
        for job in jobs:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    with tracer.installed():
                        overhead += tally.run_job(job, tracer=tracer)
                else:
                    overhead -= tally.run_job(job)
        spans, counters = tracer.take()
        per_pass.append(tracing.layer_stats(spans, counters, layers))
        phases.append(spans)
        return overhead

    overheads = [paired_pass(i) for i in range(pass_count(args.workload, args.seconds / 2))]
    for key in per_pass[0]:
        stats[key] = statistics.median(p[key] for p in per_pass)
    overhead = stats[tracing.OVERHEAD_METRIC] = statistics.median(overheads)
    q1, _, q3 = statistics.quantiles(overheads, n=4) if len(overheads) > 1 else (overhead,) * 3
    print(
        f"tracing overhead {overhead:.4f} s per pass: median over {len(overheads)} passes of traced minus "
        f"untraced time, each job run both ways back to back; quartiles {q1:.4f} to {q3:.4f}"
        + ("" if q3 - q1 < abs(overhead) else " (unresolved: the spread exceeds the value)")
    )
    self_times = sorted(((v, k) for k, v in stats.items() if k.endswith(".self_s")), reverse=True)
    for value, key in self_times[:6]:
        print(f"self time {key[: -len('.self_s')]:32s} {value:10.4f} s per pass")
    path = write_spans(args, phases)
    print(f"spans of the set-up and {len(per_pass)} traced passes written to {path.relative_to(ROOT)}")
    units = dict(tracing.metric_specs())
    return tally.report({name: {"value": stats[name], "unit": unit} for name, unit in units.items()})


def write_spans(args, phases) -> Path:
    """One line per span: phase (0 = set-up, k = traced pass k), index, name,
    start, end, parent index."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("phase\tindex\tname\tstart\tend\tparent\n")
        for phase, spans in enumerate(phases):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{phase}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
