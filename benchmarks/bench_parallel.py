"""Benchmarks of the zero-copy shared-memory process pool.

Shards the flattened Monte Carlo of c7552 across a persistent spawn pool
over one shared-memory :class:`GraphArrays` snapshot and records
serial-vs-parallel wall clock in ``BENCH_parallel.json`` (each entry
stamped with ``cpu_count`` and the worker count):

* **sharded Monte Carlo on c7552** — sample blocks are counter-keyed, so
  the parallel samples must be *bitwise* identical to the serial run;
  given that, the speedup floor scales with the worker count (>= 1.3x at
  2 workers, >= 2.5x at 4; ``REPRO_PARALLEL_SPEEDUP_MIN`` overrides,
  ``REPRO_PARALLEL_BENCH_WORKERS`` pins the pool size).  The serial
  reference runs on one thread (``thread_count`` patched to 1), because
  the in-process simulation itself spreads its sample range over the
  cores; the threaded in-process time is recorded beside it, ungated.
  Hosts with a single CPU still record the parity and timing numbers but
  skip the speedup assertion — there is no parallelism to measure.
* **sharded corner sweep on c7552** — one deterministic evaluation per
  corner; asserted bit-identical to the serial sweep (the per-corner
  propagation is far too cheap on c7552 for the pool to pay off, so no
  speedup is asserted — the entry records the snapshot cost instead).

Like the other benchmarks this file is run explicitly
(``pytest benchmarks/bench_parallel.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_bench
from repro.liberty.library import standard_library
from repro.montecarlo.flat import simulate_graph_delay
from repro.netlist.iscas85 import iscas85_surrogate
from repro.parallel import threads
from repro.parallel.pool import ShardedExecutor
from repro.placement.placer import place_netlist
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.sta import corner_sweep

MC_SAMPLES = 3072  # 24 counter blocks: divisible across 2 and 4 workers
CORNER_OFFSETS = np.linspace(-3.0, 3.0, 7)

#: Default speedup floor by worker count (overridden by the env knob).
SPEEDUP_FLOORS = {2: 1.3, 3: 1.8, 4: 2.5}


def _bench_workers(cpu_count: int) -> int:
    pinned = int(os.environ.get("REPRO_PARALLEL_BENCH_WORKERS", "0"))
    if pinned > 0:
        return pinned
    return min(4, cpu_count) if cpu_count >= 2 else 2


@pytest.fixture(scope="module")
def c7552_graph():
    netlist = iscas85_surrogate("c7552")
    library = standard_library()
    placement = place_netlist(netlist, library)
    variation = default_variation_for(netlist, placement)
    return build_timing_graph(netlist, library, placement, variation)


@pytest.fixture(scope="module")
def pool_executor():
    executor = ShardedExecutor(workers=_bench_workers(os.cpu_count() or 1), engine="auto")
    yield executor
    executor.close()


def _median_seconds(fn, repeats):
    seconds = []
    for _unused in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    seconds.sort()
    return seconds[len(seconds) // 2]


def test_sharded_monte_carlo_speedup_on_c7552(
    benchmark, c7552_graph, pool_executor, monkeypatch
):
    """Acceptance check: bit-identical sharded MC, near-linear scaling."""
    cpu_count = os.cpu_count() or 1
    workers = pool_executor.workers
    threshold = float(
        os.environ.get(
            "REPRO_PARALLEL_SPEEDUP_MIN", SPEEDUP_FLOORS.get(workers, 2.5)
        )
    )
    graph = c7552_graph
    if pool_executor.engine != "process":
        record_bench(
            "BENCH_parallel.json",
            "sharded_mc_c7552",
            {"fallback_reason": pool_executor.fallback_reason},
            workers=workers,
        )
        pytest.skip(
            "process engine unavailable: %s" % pool_executor.fallback_reason
        )

    def serial():
        with monkeypatch.context() as patch:
            patch.setattr(threads, "thread_count", lambda: 1)
            return simulate_graph_delay(graph, MC_SAMPLES, seed=11)

    def threaded():
        return simulate_graph_delay(graph, MC_SAMPLES, seed=11)

    def parallel():
        return simulate_graph_delay(
            graph, MC_SAMPLES, seed=11, executor=pool_executor
        )

    # Warm both paths once: the first parallel map pays the pool spawn and
    # the snapshot publish; steady-state is what the floor is about.
    reference = serial()
    sharded = parallel()
    # Parity is asserted unconditionally — including on single-CPU hosts.
    assert np.array_equal(reference.samples, sharded.samples)
    assert np.array_equal(reference.samples, threaded().samples)

    serial_seconds = _median_seconds(serial, 3)
    parallel_seconds = _median_seconds(parallel, 3)
    threaded_seconds = _median_seconds(threaded, 3)
    speedup = serial_seconds / parallel_seconds

    snapshot = next(iter(pool_executor._published.values()))[1]
    benchmark.extra_info["serial_s"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_seconds, 3)
    benchmark.extra_info["threaded_s"] = round(threaded_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["workers"] = workers
    record_bench(
        "BENCH_parallel.json",
        "sharded_mc_c7552",
        {
            "samples": MC_SAMPLES,
            "edges": graph.num_edges,
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "threaded_seconds": round(threaded_seconds, 4),
            "speedup": round(speedup, 2),
            "threshold": threshold,
            "bit_identical": True,
            "snapshot_bytes": snapshot.nbytes_report()["total"],
        },
        workers=workers,
    )

    benchmark(parallel)

    if cpu_count < 2:
        pytest.skip(
            "only %d CPU available: parity recorded, speedup assertion skipped"
            % cpu_count
        )
    assert speedup >= threshold, (
        "sharded Monte Carlo is only %.2fx faster than serial on c7552 "
        "(serial %.2f s, %d workers %.2f s, threshold %.1fx)"
        % (speedup, serial_seconds, workers, parallel_seconds, threshold)
    )


def test_sharded_corner_sweep_parity_on_c7552(benchmark, c7552_graph, pool_executor):
    """The sharded corner sweep is bit-identical to the serial sweep."""
    graph = c7552_graph
    serial = corner_sweep(CORNER_OFFSETS, graph=graph)
    serial_seconds = _median_seconds(
        lambda: corner_sweep(CORNER_OFFSETS, graph=graph), 3
    )
    if pool_executor.engine == "process":
        sharded = corner_sweep(CORNER_OFFSETS, graph=graph, executor=pool_executor)
        assert np.array_equal(serial, sharded)
        parallel_seconds = _median_seconds(
            lambda: corner_sweep(CORNER_OFFSETS, graph=graph, executor=pool_executor),
            3,
        )
    else:
        parallel_seconds = None

    benchmark.extra_info["corners"] = len(CORNER_OFFSETS)
    benchmark.extra_info["serial_s"] = round(serial_seconds, 4)
    record_bench(
        "BENCH_parallel.json",
        "sharded_corner_sweep_c7552",
        {
            "corners": len(CORNER_OFFSETS),
            "edges": graph.num_edges,
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": (
                None if parallel_seconds is None else round(parallel_seconds, 4)
            ),
            "bit_identical": pool_executor.engine == "process",
            "engine": pool_executor.engine,
        },
        workers=pool_executor.workers,
    )

    benchmark(lambda: corner_sweep(CORNER_OFFSETS, graph=graph))
