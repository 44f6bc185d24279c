"""The benchmark's own tests, on tiny workload sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q -s

The file is not named ``test_*.py``, so the repository's test run does not
collect it.  ``-s`` shows the tracing overhead each workload reports.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.parallel.pool import MapReport  # noqa: E402
from repro.netlist.multiplier import array_multiplier  # noqa: E402
from repro.placement.placer import place_netlist  # noqa: E402
from repro.timing.builder import default_variation_for  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, OpFailed, check_map_report, eco_rounds, exchange_candidates,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INSTANCES = ("m0_0", "m1_0", "m0_1", "m1_1")


def run_tiny(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def tiny_results():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = run_tiny(workload, trace)
            assert completed.returncode == 0, completed.stderr
            results[workload, trace] = json.loads(completed.stdout.strip().splitlines()[-1])
    return results


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(tiny_results, workload, trace):
    result = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_nest_and_self_times_are_not_negative(tiny_results, workload):
    trace = json.loads((HERE / "out" / ("trace-%s-seed1.json" % workload)).read_text())
    spans = {span["id"]: span for span in trace["spans"]}
    for span in spans.values():
        assert span["end"] >= span["start"]
        assert span["self_time"] >= -1e-9
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    for root in (s for s in spans.values() if s["parent"] is None and s["name"] == "flow"):
        subtree, frontier = [root], [root["id"]]
        while frontier:
            kids = [s for s in spans.values() if s["parent"] in frontier]
            subtree += kids
            frontier = [s["id"] for s in kids]
        total = sum(s["self_time"] for s in subtree)
        assert total == pytest.approx(root["end"] - root["start"], rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_runs_allocate_without_huge_pages(tiny_results, workload):
    trace = json.loads((HERE / "out" / ("trace-%s-seed1.json" % workload)).read_text())
    assert trace["meta"]["env"]["numpy_madvise_hugepage"] is False


def test_tracing_overhead_is_reported(tiny_results):
    for workload in WORKLOADS:
        untraced = tiny_results[workload, 0]["metrics"]["flow_s"]["value"]
        layers = tiny_results[workload, 1]["metrics"]
        traced = layers["trace.flow_s"]["value"]
        estimate = layers["trace.overhead_s"]["value"]
        print("%s: traced - untraced flow_s = %+.4f s; span recording estimate %.6f s"
              % (workload, traced - untraced, estimate))
        assert 0 < estimate < 0.01 * traced


def test_seed_changes_the_eco_op_sequence():
    netlist = array_multiplier(8, name="mult8")
    placement = place_netlist(netlist)
    partition = default_variation_for(netlist, placement).partition
    candidates = exchange_candidates(netlist, placement, partition, len(INSTANCES))
    assert all(candidates)
    first = eco_rounds(1, 0, candidates, INSTANCES)
    assert first == eco_rounds(1, 0, candidates, INSTANCES)
    assert first != eco_rounds(2, 0, candidates, INSTANCES)
    assert first != eco_rounds(1, 1, candidates, INSTANCES)
    # one pair from each topological run, every instance swapped once
    runs = [next(i for i, run in enumerate(candidates) if r.pair in run) for r in first]
    assert sorted(runs) == [0, 1, 2, 3]
    assert sorted(r.instance for r in first) == sorted(INSTANCES)


def test_unclean_map_reports_fail_the_op():
    check_map_report(MapReport("mc_delay_range", "process", tasks=2, attempts=2), "clean")
    degraded = MapReport(
        "mc_delay_range", "process", tasks=2, attempts=4, timeouts=2, degraded=2,
        fallback_reason="task timed out",
    )
    for report in (None, degraded):
        with pytest.raises(OpFailed):
            check_map_report(report, "sharded call")


def test_driver_is_spawn_safe():
    """Importing the driver the way a spawned pool worker does runs nothing."""
    completed = subprocess.run(
        [sys.executable, "-c",
         "import runpy; runpy.run_path('perfbench/run.py', run_name='__mp_main__')"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0 and completed.stdout == "", completed.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    completed = run_tiny("fig7_mult16", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
