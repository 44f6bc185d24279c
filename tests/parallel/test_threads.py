"""Thread-count parity of the in-process threaded kernels.

:mod:`repro.parallel.threads` spreads the criticality edge chunks, the
multi-source Monte Carlo fold slices and the single-source Monte Carlo
sample spans over threads.  Each thread writes disjoint slices of the
results and nothing is reduced across threads, so the results must be
``np.array_equal`` for every thread count — checked here by
monkeypatching ``thread_count`` to 1, 2 and 3 (more threads than a 2-CPU
host has cores) with a shortened interpreter switch interval.  When BLAS
cannot be pinned to one thread, criticality and the single-source Monte
Carlo must run serially with the same values.
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.liberty import standard_library
from repro.model.criticality import edge_criticality_batch
from repro.montecarlo.flat import simulate_graph_delay, simulate_io_delays
from repro.netlist.iscas85 import iscas85_surrogate
from repro.parallel import threads
from repro.placement import place_netlist
from repro.timing import build_timing_graph
from repro.timing.allpairs import AllPairsTiming
from repro.timing.builder import default_variation_for

THREAD_COUNTS = (1, 2, 3)


def _surrogate_graph(name):
    netlist = iscas85_surrogate(name)
    library = standard_library()
    placement = place_netlist(netlist, library)
    return build_timing_graph(
        netlist, library, placement, default_variation_for(netlist, placement)
    )


@pytest.fixture(scope="module")
def c880_graph():
    """443 vertices, 729 edges, 60 inputs, 26 outputs."""
    return _surrogate_graph("c880")


@pytest.fixture(scope="module")
def c1908_analysis():
    """An all-pairs analysis whose chunk sizes vary with the thread count."""
    return AllPairsTiming.analyze(_surrogate_graph("c1908"))


@pytest.fixture
def run_threaded(monkeypatch):
    """Call ``fn`` with ``thread_count`` patched to ``count``."""

    def run(count, fn, *args, **kwargs):
        monkeypatch.setattr(threads, "thread_count", lambda: count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)

    return run


def _criticality_arrays(result):
    edge_ids = sorted(result.max_criticality)
    values = np.array([result.max_criticality[e] for e in edge_ids])
    pairs = np.array([result.argmax_pairs[e] for e in edge_ids])
    return values, pairs


class TestHelpers:
    def test_thread_count_is_one_in_daemonic_workers(self, monkeypatch):
        assert threads.thread_count() >= 1
        monkeypatch.setattr(
            threads.multiprocessing,
            "current_process",
            lambda: types.SimpleNamespace(daemon=True),
        )
        assert threads.thread_count() == 1

    @pytest.mark.parametrize("count", THREAD_COUNTS)
    def test_map_ordered_keeps_input_order(self, run_threaded, count):
        items = list(range(17))
        assert run_threaded(count, threads.map_ordered, lambda x: x * x, items) == [
            x * x for x in items
        ]

    def test_map_ordered_propagates_errors(self, run_threaded):
        def fail_on_three(item):
            if item == 3:
                raise ValueError("item 3")
            return item

        with pytest.raises(ValueError, match="item 3"):
            run_threaded(2, threads.map_ordered, fail_on_three, range(6))

    def test_single_blas_thread_pins_and_restores(self):
        setter, getter, reason = threads._openblas_controls()
        if setter is None:
            pytest.skip("BLAS cannot be pinned here: %s" % reason)
        before = getter()
        with threads.single_blas_thread() as pinned:
            assert pinned
            assert getter() == 1
        assert getter() == before

    def test_single_blas_thread_records_why_it_cannot_pin(self, monkeypatch):
        monkeypatch.setattr(
            threads, "_openblas_controls", lambda: (None, None, "no OpenBLAS")
        )
        context = threads.single_blas_thread()
        with context as pinned:
            assert not pinned
        assert context.reason == "no OpenBLAS"


class TestMonteCarloParity:
    @pytest.mark.parametrize("budget", [None, "20000"], ids=["default", "small"])
    def test_io_delays_identical_across_thread_counts(
        self, c880_graph, monkeypatch, run_threaded, process_executor, budget
    ):
        if budget is None:
            monkeypatch.delenv("REPRO_MC_CHUNK_BUDGET", raising=False)
        else:
            monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", budget)
        reference = run_threaded(1, simulate_io_delays, c880_graph, 300, seed=5)
        for count in THREAD_COUNTS:
            for kwargs in (
                {},
                {"chunk_size": 256},
                {"executor": process_executor},
            ):
                result = run_threaded(
                    count, simulate_io_delays, c880_graph, 300, seed=5, **kwargs
                )
                assert np.array_equal(result.valid, reference.valid)
                assert np.array_equal(result.means, reference.means, equal_nan=True)
                assert np.array_equal(result.stds, reference.stds, equal_nan=True)


class TestSingleSourceParity:
    @pytest.mark.parametrize("num_samples", [300, 1000])
    def test_graph_delay_identical_across_thread_counts(
        self, c880_graph, run_threaded, process_executor, num_samples
    ):
        # 300 and 1000 samples end in a partial block; chunk 64 cuts every
        # block, 130 straddles block boundaries and 1000 spans whole ones.
        reference = run_threaded(
            1, simulate_graph_delay, c880_graph, num_samples, seed=9
        ).samples
        for count in THREAD_COUNTS:
            for kwargs in (
                {},
                {"chunk_size": 64},
                {"chunk_size": 130},
                {"chunk_size": 1000},
                {"engine": "object"},
                {"executor": process_executor},
            ):
                result = run_threaded(
                    count, simulate_graph_delay, c880_graph, num_samples,
                    seed=9, **kwargs
                )
                assert np.array_equal(result.samples, reference), (count, kwargs)

    def test_unpinnable_blas_runs_one_span(
        self, c880_graph, monkeypatch, run_threaded
    ):
        reference = run_threaded(
            1, simulate_graph_delay, c880_graph, 1000, seed=9
        ).samples
        monkeypatch.setattr(
            threads, "_openblas_controls", lambda: (None, None, "no OpenBLAS")
        )
        mapped = []
        map_ordered = threads.map_ordered

        def spy(fn, items):
            items = list(items)
            mapped.append(len(items))
            return map_ordered(fn, items)

        monkeypatch.setattr(threads, "map_ordered", spy)
        result = run_threaded(2, simulate_graph_delay, c880_graph, 1000, seed=9)
        assert mapped == [1]
        assert np.array_equal(result.samples, reference)


class TestCriticalityParity:
    @pytest.mark.parametrize(
        "budget", [None, "3000", "1"], ids=["default", "small", "below-one-edge"]
    )
    def test_batch_identical_across_thread_counts(
        self, c1908_analysis, monkeypatch, run_threaded, budget
    ):
        if budget is None:
            monkeypatch.delenv("REPRO_CRITICALITY_CHUNK_PAIRS", raising=False)
        else:
            monkeypatch.setenv("REPRO_CRITICALITY_CHUNK_PAIRS", budget)
        values, pairs = _criticality_arrays(
            run_threaded(1, edge_criticality_batch, c1908_analysis)
        )
        for count in THREAD_COUNTS[1:]:
            got_values, got_pairs = _criticality_arrays(
                run_threaded(count, edge_criticality_batch, c1908_analysis)
            )
            assert np.array_equal(got_values, values)
            assert np.array_equal(got_pairs, pairs)

    def test_unpinnable_blas_runs_serially(
        self, c1908_analysis, monkeypatch, run_threaded
    ):
        values, pairs = _criticality_arrays(
            run_threaded(1, edge_criticality_batch, c1908_analysis)
        )
        monkeypatch.setattr(
            threads, "_openblas_controls", lambda: (None, None, "no OpenBLAS")
        )
        mapped = []
        map_ordered = threads.map_ordered

        def spy(fn, items):
            items = list(items)
            mapped.append(len(items))
            return map_ordered(fn, items)

        monkeypatch.setattr(threads, "map_ordered", spy)
        got_values, got_pairs = _criticality_arrays(
            run_threaded(2, edge_criticality_batch, c1908_analysis)
        )
        assert mapped == [1]
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_pairs, pairs)
