"""Memory contracts of the Monte Carlo kernels.

Multi-source
------------

``simulate_io_delays`` splits each sampled ``(E, chunk)`` block's
columns across the fold threads, and each thread folds its columns in
slices whose ``(slots, I, w)`` arrival state — one row per live slot of
the fold, not per vertex — and per-level candidate/accumulator blocks fit
its even share of the chunk budget
(:func:`~repro.montecarlo.flat.mc_chunk_budget`).  The threads allocate
those buffers inside each chunk's fold, so they are freed before the
block reductions.  Beyond the budget a run holds only the sampled delay
block and the ``(I, O, chunk)`` block of output arrivals, so its traced
peak is bounded by

    budget + (E, chunk) + (I, O, chunk) + slack

where the slack covers one more ``(E, chunk)`` copy (the sampler
concatenates a multi-block chunk from its per-block draws, and the
threads' ``(E, w)`` delay slices together span at most one chunk) plus
2 MiB of small per-block temporaries.  The bound is the same for one
fold thread and for two.  ``tracemalloc`` sees numpy's buffers, so the
bound is checked on allocated bytes, independently of the allocator and
the page cache.  A dense ``(V, I, chunk)`` arrival tensor — the
multi-source kernel before the sliced fold — breaks the bound several
times over.

Single-source
-------------
``simulate_graph_delay`` splits its sample range into one block-aligned
span per thread, and each thread draws and folds its span chunk by chunk
over buffers allocated once per call: the ``(E, chunk)`` delays, the
``(V, chunk)`` arrivals, three ``(max_level_rows, chunk)`` level-scratch
rows and one noise slab.  Its traced peak is bounded by

    threads * ((E + V + 3 * max_level_rows) * chunk + slab) + slack

with ``chunk`` the per-thread chunk and the same 2 MiB slack.  A fold
that takes a permuted ``(E, chunk)`` copy of the delays, or a sampler that
assembles the chunk from separately allocated block draws, breaks it.
"""

import tracemalloc

import pytest

from repro.liberty import standard_library
from repro.parallel import threads
from repro.core.batch import _NOISE_SLAB_FLOATS
from repro.montecarlo.flat import (
    MC_SAMPLE_BLOCK,
    _max_level_rows,
    mc_chunk_budget,
    simulate_graph_delay,
    simulate_io_delays,
)
from repro.netlist.iscas85 import iscas85_surrogate
from repro.placement import place_netlist
from repro.timing import build_timing_graph
from repro.timing.arrays import GraphArrays
from repro.timing.builder import default_variation_for

FLOAT_BYTES = 8
SMALL_SLACK_BYTES = 2 << 20
NUM_SAMPLES = 1024


@pytest.fixture(scope="module")
def mid_size_graph():
    """c880 surrogate: 443 vertices, 729 edges, 60 inputs, 26 outputs."""
    netlist = iscas85_surrogate("c880")
    library = standard_library()
    placement = place_netlist(netlist, library)
    return build_timing_graph(
        netlist, library, placement, default_variation_for(netlist, placement)
    )


def _traced_peak(graph, arrays, chunk_size, simulate=simulate_io_delays):
    tracemalloc.start()
    try:
        simulate(graph, NUM_SAMPLES, seed=3, chunk_size=chunk_size, arrays=arrays)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _bound(arrays, chunk):
    num_edges = arrays.edge_mean.shape[0]
    num_pairs = arrays.input_rows.shape[0] * arrays.output_rows.shape[0]
    delay_block = num_edges * chunk * FLOAT_BYTES
    output_block = num_pairs * chunk * FLOAT_BYTES
    slack = delay_block + SMALL_SLACK_BYTES
    return mc_chunk_budget() * FLOAT_BYTES + delay_block + output_block + slack


@pytest.mark.parametrize(
    "budget, chunk_size, num_threads",
    [("200000", None, 1), (None, 1024, 1), ("200000", None, 2), (None, 1024, 2)],
    ids=[
        "small-budget",
        "chunk-1024",
        "small-budget-2-threads",
        "chunk-1024-2-threads",
    ],
)
def test_traced_peak_stays_within_budget(
    mid_size_graph, monkeypatch, budget, chunk_size, num_threads
):
    monkeypatch.setattr(threads, "thread_count", lambda: num_threads)
    if budget is None:
        monkeypatch.delenv("REPRO_MC_CHUNK_BUDGET", raising=False)
    else:
        monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", budget)
    arrays = GraphArrays.from_graph(mid_size_graph)
    chunk = MC_SAMPLE_BLOCK if chunk_size is None else chunk_size
    dense_state = arrays.num_vertices * arrays.input_rows.shape[0] * chunk
    bound = _bound(arrays, chunk)
    # The dense (V, I, chunk) tensor alone would not fit.
    assert dense_state * FLOAT_BYTES > bound
    peak = _traced_peak(mid_size_graph, arrays, chunk_size)
    assert peak <= bound, "traced peak %.1f MB over the %.1f MB bound" % (
        peak / 1e6,
        bound / 1e6,
    )


@pytest.mark.parametrize(
    "chunk_size, num_threads",
    [(None, 1), (1024, 1), (None, 2), (1024, 2)],
    ids=["auto", "chunk-1024", "auto-2-threads", "chunk-1024-2-threads"],
)
def test_single_source_traced_peak_stays_within_thread_buffers(
    mid_size_graph, monkeypatch, chunk_size, num_threads
):
    monkeypatch.setattr(threads, "thread_count", lambda: num_threads)
    monkeypatch.delenv("REPRO_MC_CHUNK_BUDGET", raising=False)
    arrays = GraphArrays.from_graph(mid_size_graph)
    # c880 auto-sizes to whole-run chunks, so each thread's chunk is its
    # span: the run's blocks split evenly over the threads.
    blocks = -(-NUM_SAMPLES // MC_SAMPLE_BLOCK)
    chunk = -(-blocks // num_threads) * MC_SAMPLE_BLOCK
    per_thread = (
        arrays.edge_mean.shape[0]
        + arrays.num_vertices
        + 3 * _max_level_rows(arrays)
    ) * chunk + _NOISE_SLAB_FLOATS
    bound = num_threads * per_thread * FLOAT_BYTES + SMALL_SLACK_BYTES
    peak = _traced_peak(mid_size_graph, arrays, chunk_size, simulate_graph_delay)
    assert peak <= bound, "traced peak %.1f MB over the %.1f MB bound" % (
        peak / 1e6,
        bound / 1e6,
    )
