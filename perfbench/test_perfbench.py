"""Tests of the benchmark itself: statistics, span accounting, tiny runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import workloads
from tracing import Tracer, self_times, span_totals

HERE = Path(__file__).resolve().parent


def test_percentile_matches_inclusive_quartiles():
    values = sorted([0.3, 1.0, 7.5, 2.2, 9.1, 4.4, 5.0])
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert run.percentile(values, 25) == pytest.approx(q1)
    assert run.percentile(values, 50) == pytest.approx(q2)
    assert run.percentile(values, 75) == pytest.approx(q3)
    assert run.percentile(values, 100) == 9.1


@pytest.mark.parametrize(
    "distinct, expected",
    [(19, 50.0), (20, 50.0), (40, 75.0), (58, 75.0), (100, 90.0), (9999, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_inputs_beyond(distinct, expected):
    assert run.tail_percentile(distinct) == expected


def test_latency_is_the_median_of_speed_scaled_repetitions():
    ref = speed.REFERENCE_S
    m = run.Measurement(
        samples={0: [(3.0, 0), (1.0, 1), (2.0, 1)], 1: [(4.0, 1)]},
        bursts=[ref, ref, 3 * ref],  # the host at full speed, then at half speed on average
        sizes=[1, 1],
        attempted=4,
        wall=10.0,
    )
    assert m.latencies == [1.0, 2.0]  # input 0: median of 3.0, 0.5, 1.0
    assert m.raw_latencies == [2.0, 4.0]
    metrics, notes = run.end_to_end(m, [0.2], [0.3])
    assert metrics["latency_p50_s"][0] == 1.5
    assert metrics["throughput_ops_s"][0] == pytest.approx(2 / 3.0)
    assert notes["raw_latency_p50_s"] == 3.0 and notes["raw_setup_s"] == 0.3


def test_speed_bursts_surround_every_timed_op():
    m = run.measure(workloads.WORKLOADS["color-count"], TINY["color-count"](), 0.0)
    assert len(m.bursts) >= 2 and all(b > 0 for b in m.bursts)
    assert all(0 <= b < len(m.bursts) - 1 for s in m.samples.values() for _, b in s)
    assert speed.reference_task() == speed.reference_task()


def test_demo_round_is_fixed_and_the_seed_orders_it():
    a, b = workloads.demo_inputs(1), workloads.demo_inputs(2)
    assert len(a) == workloads.DEMO_TARGETS + len(workloads.KNOWN_FAILING_TARGETS) + 1
    assert a != b and sorted(a, key=str) == sorted(b, key=str)
    assert workloads.demo_inputs(1) == a


def test_reach_seed_rotates_pairs_about_the_pole():
    a, b = workloads.reach_inputs(1, n_pairs=50), workloads.reach_inputs(2, n_pairs=50)
    heights = [sorted((q.z, p.z) for q, p in pairs) for pairs in (a, b)]
    assert heights[0] == heights[1]
    assert {q.vec for q, _ in a}.isdisjoint(q.vec for q, _ in b)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("root", 20.0, 22.0, None, 1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 2.0]
    inclusive, own = span_totals(spans)
    assert inclusive == {"root": 12.0, "a": 3.0, "leaf": 1.0, "b": 1.0}
    assert own == {"root": 8.0, "a": 2.0, "leaf": 1.0, "b": 1.0}


TINY = {
    "demo-pipeline": lambda: workloads.demo_inputs(3, n_targets=2, generator=1),
    "reach-verify": lambda: workloads.reach_inputs(3, n_pairs=40),
    "color-count": lambda: workloads.color_inputs(3, pages=(4, 5), repeats=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_is_checked_and_reproducible(name):
    workload = workloads.WORKLOADS[name]
    inputs = TINY[name]()
    first = run.measure(workload, inputs, 0.0)
    second = run.measure(workload, inputs, 0.0)
    assert first.rounds == 1 and first.attempted == len(inputs)
    assert first.check_failures == 0
    assert first.digests and first.digests == second.digests
    assert first.failures == second.failures


def test_known_failures_are_counted_not_fatal():
    inputs = TINY["demo-pipeline"]()
    m = run.measure(workloads.WORKLOADS["demo-pipeline"], inputs, 0.0)
    kinds = {kind for kind, _ in m.failures}
    assert {"NotOrthogonal", "NotOnCircle"} <= kinds
    assert m.check_failures == 0
    assert len(m.latencies) == m.attempted - m.failed >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_wrappers_are_removed(name):
    targets = [("ksgeom.trace", "reach"), ("ksgeom.kernels", "solve_kernel"), ("ksgeom.demos", "side_of")]
    before = [getattr(importlib.import_module(m), a) for m, a in targets]
    workload = workloads.WORKLOADS[name]
    inputs = TINY[name]()
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            m = run.measure(workload, inputs, 0.0, tracer)
        counts.append(dict(tracer.counts))
        assert all(span is not None for span in tracer.spans)
        assert {span[4] for span in tracer.spans} <= set(range(m.attempted))
    assert counts[0] == counts[1] and counts[0]
    assert [getattr(importlib.import_module(m), a) for m, a in targets] == before


def test_per_layer_metrics_on_a_traced_demo_round():
    workload = workloads.WORKLOADS["demo-pipeline"]
    inputs = [None]
    reference = run.measure(workload, inputs, 0.0)
    with Tracer() as tracer:
        m = run.measure(workload, inputs, 0.0, tracer)
    metrics = run.per_layer(tracer, m, reference, [0.05])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        d["name"]: d["unit"] for d in bench["per_layer"]
    }
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["trace.dedup_probes"] >= value["trace.ray_index_calls"] > 0
    assert value["trace.rays"] == 653  # demo second's ray table
    assert value["coloring.oracle_cases"] == 2048
    assert value["reach.calls"] > 0 and value["serialize.trace_bytes"] > 0
    inclusive, own = span_totals(tracer.spans)
    assert own["trace.build"] == pytest.approx(inclusive["trace.build"] - inclusive["reach.reach"])
    assert value["trace.build_s"] == pytest.approx(own["trace.build"])


def test_result_line_has_the_contract_keys(capsys):
    assert run.main(["--workload", "color-count", "--seed", "5", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 54
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in bench["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "color-count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
