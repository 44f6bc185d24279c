"""Property-based parity suite of the levelized Monte Carlo engine.

The level-scheduled kernels replace only the *order* in which per-sample
longest-path candidates are folded — ``+`` and ``max`` are exact, so on
*any* graph the levelized engines must produce **bit-identical** samples to
the object-level reference for the same seed and chunk size.  Asserted
here on hypothesis-randomized layered DAGs (including dangling inputs,
unreachable vertices and single-IO corners), on the multi-source kernel
against the one-propagation-per-input reference at every fold width the
budget can select (1, non-divisors of the 128-sample block, a whole
block), and on the empty-IO / unreachable regressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import registry, reset_backend_state
from repro.core.canonical import CanonicalForm
from repro.errors import TimingGraphError
from repro.montecarlo.flat import (
    AUTO_LEVELIZED_MIN_EDGES,
    MC_MAX_CHUNK,
    MC_MIN_CHUNK,
    MC_SAMPLE_BLOCK,
    _fold_width,
    _longest_paths_multi_source,
    _longest_paths_object,
    _resolve_engine,
    _slot_plan_for,
    auto_chunk_size,
    simulate_graph_delay,
    simulate_io_delays,
)
from repro.parallel import threads
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph

NUM_LOCALS = 2


def _build_graph(
    seed, num_inputs, num_outputs, num_internal, irregular=False,
    fanout_outputs=False,
):
    """A random layered DAG with designated inputs/outputs.

    Every non-input vertex receives 1-3 fanin edges from topologically
    earlier non-output vertices, so each output is reachable while some
    inputs (and internal vertices) may dangle — which exercises the
    ``-inf`` masking and the structural validity masks of both engines.
    ``irregular`` adds two undriven internal vertices to the fanin pool
    and gives some inputs a fanin edge from the previous input, so inputs
    must keep their 0.0 seed through the fold and unreachable drivers must
    stay at ``-inf``.  ``fanout_outputs`` shuffles the outputs in among
    the internal vertices and lets them drive later ones, so outputs are
    read mid-fold yet must stay live to the end.
    """
    rng = np.random.default_rng(seed)
    graph = TimingGraph("mc%d" % seed, NUM_LOCALS)
    inputs = ["i%d" % position for position in range(num_inputs)]
    outputs = ["o%d" % position for position in range(num_outputs)]
    internal = ["v%d" % position for position in range(num_internal)]
    for name in inputs:
        graph.mark_input(name)
    for name in outputs:
        graph.mark_output(name)
    undriven = ["u0", "u1"] if irregular else []
    for name in undriven:
        graph.add_vertex(name)
    driven = internal + outputs
    if fanout_outputs:
        driven = [driven[int(k)] for k in rng.permutation(len(driven))]
    # Without fanout_outputs the outputs come last and stay pure sinks.
    sources = inputs + undriven + driven

    def _delay():
        return CanonicalForm(
            float(rng.uniform(1.0, 20.0)),
            float(rng.uniform(0.0, 1.5)),
            [float(value) for value in rng.uniform(-1.0, 1.0, NUM_LOCALS)],
            float(rng.uniform(0.0, 1.5)),
        )

    if irregular:
        for position in range(1, num_inputs):
            if rng.random() < 0.5:
                graph.add_edge(inputs[position - 1], inputs[position], _delay())
    for position, name in enumerate(driven):
        limit = num_inputs + len(undriven) + (
            position if fanout_outputs else min(position, num_internal)
        )
        for _unused in range(int(rng.integers(1, 4))):
            graph.add_edge(sources[int(rng.integers(0, limit))], name, _delay())
    return graph


def _assert_io_identical(a, b):
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.means, b.means, equal_nan=True)
    assert np.array_equal(a.stds, b.stds, equal_nan=True)


class TestRandomizedParity:
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=0, max_value=24),
        chunk=st.sampled_from([None, 7, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_graph_delay_engines_bit_identical(
        self, seed, num_inputs, num_outputs, num_internal, chunk
    ):
        graph = _build_graph(seed, num_inputs, num_outputs, num_internal)
        levelized = simulate_graph_delay(
            graph, 50, seed=seed, chunk_size=chunk, engine="levelized"
        )
        reference = simulate_graph_delay(
            graph, 50, seed=seed, chunk_size=chunk, engine="object"
        )
        assert np.array_equal(levelized.samples, reference.samples)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_io_delay_engines_bit_identical(
        self, seed, num_inputs, num_outputs, num_internal
    ):
        graph = _build_graph(seed, num_inputs, num_outputs, num_internal)
        levelized = simulate_io_delays(graph, 40, seed=seed, engine="levelized")
        reference = simulate_io_delays(graph, 40, seed=seed, engine="object")
        _assert_io_identical(levelized, reference)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        width=st.sampled_from([1, 3, 5, 23, 64]),
        irregular=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_source_kernel_matches_per_input_reference(
        self, seed, width, irregular
    ):
        graph = _build_graph(seed, 4, 3, 12, irregular)
        arrays = GraphArrays.from_graph(graph)
        rng = np.random.default_rng(seed)
        delays = arrays.edge_batch.sample(rng, 23)
        input_rows = arrays.input_rows
        all_rows = np.arange(arrays.num_vertices)
        multi = _longest_paths_multi_source(
            arrays, delays, input_rows, all_rows, width
        )
        for position, row in enumerate(input_rows):
            reference = _longest_paths_object(
                arrays, delays, np.asarray([row], dtype=np.int64)
            )
            assert np.array_equal(multi[position], reference)

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=0, max_value=24),
        width=st.sampled_from([1, 3, 5, MC_SAMPLE_BLOCK]),
        num_samples=st.sampled_from([40, 200, 300]),
        chunk=st.sampled_from([None, 1000]),
        irregular=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_io_delays_bit_identical_across_fold_widths(
        self, seed, num_inputs, num_outputs, num_internal, width, num_samples,
        chunk, irregular,
    ):
        # The budget sets the fold width: on one fold thread, ``width``
        # sample columns of the (slots + 2 * max_level_rows, I) per-column
        # state fit it exactly.
        graph = _build_graph(
            seed, num_inputs, num_outputs, num_internal, irregular
        )
        arrays = GraphArrays.from_graph(graph)
        max_level_rows = max(
            level.vertex_rows.shape[0] for level in arrays.forward_levels()
        )
        num_slots = _slot_plan_for(
            arrays, arrays.input_rows, arrays.output_rows
        ).num_slots
        per_column = (num_slots + 2 * max_level_rows) * num_inputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(threads, "thread_count", lambda: 1)
            patch.setenv("REPRO_MC_CHUNK_BUDGET", str(width * per_column))
            assert _fold_width(arrays, num_inputs, MC_SAMPLE_BLOCK) == width
            levelized = simulate_io_delays(
                graph, num_samples, seed=seed, chunk_size=chunk,
                engine="levelized",
            )
        reference = simulate_io_delays(
            graph, num_samples, seed=seed, chunk_size=chunk, engine="object"
        )
        _assert_io_identical(levelized, reference)


class TestSlotPlan:
    """The multi-source fold keeps state only for live vertices (slots)."""

    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        num_inputs=st.integers(min_value=1, max_value=5),
        num_outputs=st.integers(min_value=1, max_value=4),
        num_internal=st.integers(min_value=8, max_value=40),
        width=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_slot_reuse_is_bit_identical(
        self, seed, num_inputs, num_outputs, num_internal, width
    ):
        # Inputs with fanin, undriven non-inputs and outputs that fan out
        # all share the slot plan with vertices whose slots get reused.
        graph = _build_graph(
            seed, num_inputs, num_outputs, num_internal, irregular=True,
            fanout_outputs=True,
        )
        arrays = GraphArrays.from_graph(graph)
        rng = np.random.default_rng(seed)
        delays = arrays.edge_batch.sample(rng, 29)
        input_rows = arrays.input_rows
        references = [
            _longest_paths_object(
                arrays, delays, np.asarray([row], dtype=np.int64)
            )
            for row in input_rows
        ]
        for sink_rows in (arrays.output_rows, np.arange(arrays.num_vertices)):
            numpy_tier = _longest_paths_multi_source(
                arrays, delays, input_rows, sink_rows, width, backend="numpy"
            )
            # The compiled kernel's body, run uncompiled through the real
            # backend="numba" dispatch: it indexes is_source by slot.
            with pytest.MonkeyPatch.context() as patch:
                reset_backend_state()
                patch.setattr(registry, "_NUMBA_STATE", ((lambda fn: fn), None))
                try:
                    compiled_tier = _longest_paths_multi_source(
                        arrays, delays, input_rows, sink_rows, width,
                        backend="numba",
                    )
                finally:
                    reset_backend_state()
            for position, reference in enumerate(references):
                assert np.array_equal(numpy_tier[position], reference[sink_rows])
                assert np.array_equal(
                    compiled_tier[position], reference[sink_rows]
                )
        levelized = simulate_io_delays(graph, 200, seed=seed, engine="levelized")
        reference = simulate_io_delays(graph, 200, seed=seed, engine="object")
        _assert_io_identical(levelized, reference)

    def test_io_designation_change_rebuilds_the_plan(self):
        # Marking outputs keeps the levels (and the cached schedule), but
        # the new outputs must stay live to the end of the fold.
        graph = _build_graph(7, 3, 2, 20, irregular=True)
        arrays = GraphArrays.from_graph(graph)
        simulate_io_delays(graph, 64, seed=1, engine="levelized", arrays=arrays)
        plan = _slot_plan_for(arrays, arrays.input_rows, arrays.output_rows)
        assert plan.num_slots < arrays.num_vertices
        for position in range(20):
            graph.mark_output("v%d" % position)
        reused = simulate_io_delays(
            graph, 64, seed=1, engine="levelized", arrays=arrays
        )
        fresh = simulate_io_delays(graph, 64, seed=1, engine="object")
        _assert_io_identical(reused, fresh)

    def test_chain_needs_two_slots(self):
        graph = TimingGraph("chain")
        graph.mark_input("a")
        graph.mark_output("z")
        names = ["a"] + ["v%d" % k for k in range(20)] + ["z"]
        for source, sink in zip(names[:-1], names[1:]):
            graph.add_edge(source, sink, CanonicalForm.constant(1.0))
        arrays = GraphArrays.from_graph(graph)
        # Each vertex is read only by the next level, so two slots
        # alternate down the chain and the output keeps the last one.
        plan = _slot_plan_for(arrays, arrays.input_rows, arrays.output_rows)
        assert plan.num_slots == 2
        stats = simulate_io_delays(graph, 16, seed=0, engine="levelized")
        assert stats.mean("a", "z") == pytest.approx(21.0)


class TestAcceptanceCircuits:
    def test_engines_bit_identical_on_parity_modules(self, parity_module):
        graph = parity_module[0]
        levelized = simulate_graph_delay(graph, 200, seed=9, engine="levelized")
        reference = simulate_graph_delay(graph, 200, seed=9, engine="object")
        assert np.array_equal(levelized.samples, reference.samples)
        lev_io = simulate_io_delays(graph, 60, seed=9, engine="levelized")
        ref_io = simulate_io_delays(graph, 60, seed=9, engine="object")
        _assert_io_identical(lev_io, ref_io)

    def test_prebuilt_arrays_reuse_is_bit_identical(self, parity_module):
        graph = parity_module[0]
        arrays = GraphArrays.from_graph(graph)
        rebuilt = simulate_graph_delay(graph, 200, seed=9, engine="levelized")
        reused = simulate_graph_delay(
            graph, 200, seed=9, engine="levelized", arrays=arrays
        )
        assert np.array_equal(rebuilt.samples, reused.samples)
        rebuilt_io = simulate_io_delays(graph, 60, seed=9, engine="levelized")
        reused_io = simulate_io_delays(
            graph, 60, seed=9, engine="levelized", arrays=arrays
        )
        _assert_io_identical(rebuilt_io, reused_io)


class TestRegressions:
    def test_missing_io_raises(self):
        graph = TimingGraph("no_io")
        graph.add_edge("a", "b", CanonicalForm.constant(1.0))
        with pytest.raises(TimingGraphError):
            simulate_graph_delay(graph, 10, engine="levelized")
        with pytest.raises(TimingGraphError):
            simulate_io_delays(graph, 10, engine="levelized")
        graph.mark_input("a")  # outputs still missing
        with pytest.raises(TimingGraphError):
            simulate_graph_delay(graph, 10, engine="levelized")

    def test_unknown_engine_rejected(self, adder_graph):
        with pytest.raises(ValueError):
            simulate_graph_delay(adder_graph, 10, engine="turbo")

    def test_auto_selects_by_edge_count(self):
        assert _resolve_engine("auto", AUTO_LEVELIZED_MIN_EDGES) == "levelized"
        assert _resolve_engine("auto", AUTO_LEVELIZED_MIN_EDGES - 1) == "object"
        assert _resolve_engine("levelized", 1) == "levelized"
        assert _resolve_engine("object", 10 ** 6) == "object"

    def test_unreachable_vertices_stay_masked(self):
        """Dangling inputs and unreachable outputs must not poison stats."""
        graph = TimingGraph("partial")
        graph.mark_input("a")
        graph.mark_input("b")  # dangling: drives nothing
        graph.mark_output("y")
        graph.mark_output("z")  # unreachable: driven by nothing
        graph.add_edge("a", "m", CanonicalForm.constant(3.0))
        graph.add_edge("m", "y", CanonicalForm.constant(4.0))
        graph.add_vertex("orphan")
        for engine in ("levelized", "object"):
            stats = simulate_io_delays(graph, 32, seed=1, engine=engine)
            assert stats.valid.tolist() == [[True, False], [False, False]]
            assert stats.mean("a", "y") == pytest.approx(7.0)
            assert np.isnan(stats.mean("b", "y"))
            assert np.isnan(stats.mean("a", "z"))
            result = simulate_graph_delay(graph, 32, seed=1, engine=engine)
            assert np.all(result.samples == pytest.approx(7.0))

    def test_io_statistics_reject_unknown_names(self):
        graph = TimingGraph("tiny_io")
        graph.mark_input("a")
        graph.mark_output("z")
        graph.add_edge("a", "z", CanonicalForm.constant(2.0))
        stats = simulate_io_delays(graph, 16, seed=0)
        assert stats.mean("a", "z") == pytest.approx(2.0)
        assert stats.std("a", "z") == pytest.approx(0.0)
        with pytest.raises(ValueError):
            stats.mean("nope", "z")
        with pytest.raises(ValueError):
            stats.std("a", "nope")

    def test_input_that_is_also_output(self):
        graph = TimingGraph("through")
        graph.mark_input("a")
        graph.mark_output("a")
        graph.mark_output("z")
        graph.add_edge("a", "z", CanonicalForm.constant(5.0))
        for engine in ("levelized", "object"):
            result = simulate_graph_delay(graph, 16, seed=2, engine=engine)
            assert np.all(result.samples == pytest.approx(5.0))


class TestAutoChunkSize:
    def test_bounds_and_clipping(self):
        assert auto_chunk_size(10, 10) == MC_MAX_CHUNK
        assert auto_chunk_size(10, 10, num_samples=100) == 100
        # A huge multi-source working set drops below the floor: the
        # budget outranks MC_MIN_CHUNK but never the sample block — the
        # sampler materialises whole blocks regardless, so a smaller chunk
        # only adds redundant draws.
        assert auto_chunk_size(10 ** 6, 10 ** 6, num_sources=500) == (
            MC_SAMPLE_BLOCK
        )

    def test_budget_always_bounds_the_working_set(self):
        # At every extreme geometry the chosen chunk's working set honours
        # the float budget whenever a whole-block chunk can (one sample
        # block is the hard floor: the sampler's own working set), and the
        # chunk covers whole sample blocks so no block is drawn twice.
        from repro.montecarlo.flat import mc_chunk_budget

        budget = mc_chunk_budget()
        for edges, vertices, sources in [
            (10 ** 6, 5 * 10 ** 5, 1),
            (10 ** 6, 10 ** 6, 32),
            (10 ** 5, 10 ** 5, 500),
            (10, 10, 1),
        ]:
            chunk = auto_chunk_size(edges, vertices, num_sources=sources)
            per_sample = edges + (vertices + edges) * sources
            assert chunk >= MC_SAMPLE_BLOCK
            assert chunk % MC_SAMPLE_BLOCK == 0
            assert chunk * per_sample <= max(
                budget, MC_SAMPLE_BLOCK * per_sample
            )

    def test_budget_env_override_shrinks_chunk(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", "100")
        assert auto_chunk_size(10 ** 4, 10 ** 4) == MC_SAMPLE_BLOCK
        monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", "bogus")
        with pytest.raises(ValueError):
            auto_chunk_size(10, 10)

    def test_million_edge_chunk_stays_block_aligned(self):
        # Regression for the 10^6-edge throughput collapse: the budget
        # used to drive the chunk to 1 here, so every chunk re-drew its
        # whole 128-sample block for one column (~27x redundant sampling
        # at the BENCH_scaling 10^6-edge shape).
        assert auto_chunk_size(10 ** 6, 5 * 10 ** 5) == MC_SAMPLE_BLOCK
        # num_samples still clips last: short runs keep one exact chunk.
        assert auto_chunk_size(10 ** 6, 5 * 10 ** 5, num_samples=16) == 16

    def test_multi_source_axis_shrinks_the_chunk(self):
        single = auto_chunk_size(5000, 3000, num_sources=1)
        multi = auto_chunk_size(5000, 3000, num_sources=100)
        assert multi < single

    def test_explicit_chunk_size_wins(self, adder_graph):
        explicit = simulate_graph_delay(adder_graph, 64, seed=4, chunk_size=64)
        again = simulate_graph_delay(adder_graph, 64, seed=4, chunk_size=64)
        assert np.array_equal(explicit.samples, again.samples)
        with pytest.raises(ValueError):
            simulate_graph_delay(adder_graph, 64, seed=4, chunk_size=0)

    def test_auto_chunk_is_deterministic(self, adder_graph):
        a = simulate_graph_delay(adder_graph, 300, seed=6)
        b = simulate_graph_delay(adder_graph, 300, seed=6)
        assert np.array_equal(a.samples, b.samples)
