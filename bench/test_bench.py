"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP_JOBS = {
    "verify-corpus": ("verify/file/k4", "verify/file/ladder", "verify/rank1/00", "verify/annulus/00"),
    "tree-growth": ("cover/ladder/8", "cover/circulant12/16", "torus/grid/4x4", "restriction/grid/8x8"),
    "mahler-ladder": ("mahler1/delta0/ladder", "mahler1/delta0/girder", "mahler1/lehmer"),
}


def _jobs(workload, seed):
    return {job.name: job for job in workloads.build(workload, seed, ROOT)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_job_list(workload):
    first = [(j.name, repr(j.input)) for j in workloads.build(workload, 11, ROOT)]
    again = [(j.name, repr(j.input)) for j in workloads.build(workload, 11, ROOT)]
    other = [(j.name, repr(j.input)) for j in workloads.build(workload, 12, ROOT)]
    assert first == again
    assert first != other
    assert sorted(n for n, _ in first) == sorted(n for n, _ in other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digests_are_stable_across_seeds_and_pinned(workload):
    pins = workloads.load_pins()[workload]
    for seed in (0, 5):
        jobs = _jobs(workload, seed)
        for name in CHEAP_JOBS[workload]:
            outcome = jobs[name].check(jobs[name].run())
            assert not outcome.wrong, (name, outcome.problem)
            if outcome.payload:
                assert workloads.digest(outcome.payload) == pins[name], name


def test_every_job_with_an_exact_output_is_pinned():
    pins = workloads.load_pins()
    for workload in ("verify-corpus", "tree-growth"):
        assert set(pins[workload]) == set(_jobs(workload, 0))
    assert {n for n in _jobs("mahler-ladder", 0) if "delta0" in n} == set(pins["mahler-ladder"])


def test_huge_counts_are_encoded_without_str():
    # str() refuses integers above 4300 digits; the digest must not.
    huge = 7 ** 20000
    assert workloads._count_check(huge)(huge).payload == hex(huge).encode()


def test_tree_closed_forms():
    assert [workloads._prism_trees(n) for n in (3, 4)] == [75, 384]
    assert workloads._circulant12_trees(5) == 125  # K5


def test_known_mahler_defect_is_a_failed_job_not_a_wrong_value():
    jobs = _jobs("mahler-ladder", 0)
    job = jobs["mahler1/(x^2-4x+1)^8"]
    outcome = job.check(job.run())
    assert outcome.problem is not None
    assert not outcome.wrong


def test_every_layer_function_exists():
    for mod, fns in tracing.LAYERS.items():
        module = importlib.import_module(f"lapgraph.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn)), f"lapgraph.{mod}.{fn}"
    quals = set(tracing.layer_functions())
    assert set(tracing.EXTRAS) <= quals


def _bindings():
    """Every (module, attribute) in lapgraph bound to a layer function."""
    originals = {
        id(getattr(importlib.import_module(f"lapgraph.{mod}"), fn)): f"{mod}.{fn}"
        for mod, fns in tracing.LAYERS.items()
        for fn in fns
    }
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "lapgraph" or name.startswith("lapgraph."):
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found[(name, attr)] = value
    return found


def test_tracing_off_leaves_every_binding_original():
    before = _bindings()
    assert ("lapgraph.spanning", "int_det") in before
    assert ("lapgraph.verify", "elementary_divisor") in before
    assert ("lapgraph", "det_laurent") in before
    tracer = tracing.Tracer()
    with tracer.installed():
        spanning = importlib.import_module("lapgraph.spanning")
        assert spanning.int_det is not before[("lapgraph.spanning", "int_det")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_nest_and_self_times_add_up():
    from lapgraph.library import ladder_quotient

    graphs = importlib.import_module("lapgraph.graphs")
    spanning = importlib.import_module("lapgraph.spanning")
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("job"):
        t = spanning.complexity(graphs.cover_graph(ladder_quotient(), graphs.SublatticeSpec.cyclic(5)))
    assert t == workloads._prism_trees(5)
    spans, counters = tracer.take()
    stats = tracing.layer_stats(spans, counters)
    assert stats["spanning.complexity.calls"] == 1
    assert stats["linalg.int_det.calls"] == 1
    assert stats["linalg.int_det.max_order"] == 9
    assert (stats["graphs.cover_graph.calls"], stats["graphs.cover_graph.vertices"]) == (1, 10)
    job = next(s for s in spans if s[0] == "job")
    total_self = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert total_self <= job[2] - job[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_without_lapgraph_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-growth", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(102, 0, -1)])
    assert (value, round(percentile, 1)) == (92.0, 90.2)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_pass_count_is_fixed_by_seconds():
    assert run.pass_count("mahler-ladder", run.REFERENCE_SECONDS) == run.PASSES["mahler-ladder"]
    assert run.pass_count("tree-growth", 0) == 1


def test_calibration_kernel_is_unchanged():
    # REF_S is the kernel's time on the reference host; a different kernel
    # would silently rescale every reported time.
    assert calibrate.kernel() == calibrate.CHECKSUM


def test_gauge_samples_inside_a_call_and_leaves_them_out():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with calibrate.Gauge() as gauge:
        reference = gauge.time(lambda: sum(range(3_000_000)))
        assert len(gauge._samples) >= 2 + int(gauge.cpu_s / calibrate.INTERVAL_S) // 2
    assert signal.getsignal(signal.SIGPROF) is before
    assert 0 < gauge.cpu_s and reference == gauge.reference_s
    assert gauge.cpu_s < run.cpu_time(lambda: sum(range(3_000_000))) * 2


def test_end_to_end_line_has_the_contract_keys(capsys):
    assert run.main(["--workload", "verify-corpus", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] == 103
