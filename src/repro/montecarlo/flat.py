"""Vectorized Monte Carlo timing simulation on a statistical timing graph.

The simulator samples all edge delays jointly straight from the
:class:`~repro.core.batch.CanonicalBatch` view of the graph's edge arrays —
one shared standard-normal draw per correlated component (global plus local
PCA variables) and private noise per edge — then computes per-sample
longest paths.

Sampling is **counter-based per block**: the sample axis is divided into
fixed :data:`MC_SAMPLE_BLOCK`-sample blocks and block ``b`` is drawn from
its own keyed stream ``(seed, 2, b)``.  A block's draws therefore depend
only on the seed and the block index — never on the chunk size, the number
of workers or threads, or which process or thread draws it — so the
one-shot simulators are bit-identical across chunkings and across any
sharding of the sample axis (see :mod:`repro.parallel`); the single-source
simulator spreads block-aligned sample spans over the cores' threads.
Per-pair moments accumulate per block in ascending block order for the
same reason.

Two propagation engines share the public API, mirroring the levelized /
object split of :mod:`repro.timing.propagation`:

* the **levelized engine** (default for non-trivial graphs) walks the
  Kahn level schedules of :class:`~repro.timing.arrays.GraphArrays`: per
  level it gathers every fanin edge's source-arrival and delay block in
  one shot and reduces them into the sink rows with a sorted-segment
  ``np.maximum.reduceat`` — no per-vertex Python work at all.  The same
  kernel generalises to a third *source* axis, so
  :func:`simulate_io_delays` computes the per-input longest paths of all
  ``|I|`` inputs in one pass over one shared sampled delay matrix instead
  of ``|I|`` full propagations per chunk, folding it in budget-sized
  sample-column slices, spread over the cores' threads, over a
  ``(slots, I, width)`` state that holds only the live frontier of the
  fold (:class:`_SlotPlan`);
* the **object-level engine** (``engine="object"``) is the original
  per-vertex loop over ``fanin_edges``, kept as the readable reference
  and as the parity baseline (both engines produce bit-identical samples
  for the same seed — ``max`` and ``+`` are exact, so the fold order does
  not matter).

On top of the one-shot simulators, :class:`MonteCarloSession` keeps the
sampled ``(E, S)`` edge-delay matrix alive as a cache keyed to the graph's
revisioned change journal: after an ECO, only the rows named by the
coalesced retime window are resampled (structural windows migrate the
surviving rows, journal overflow / IO changes fall back to a full
resample) and only the affected sample cone is repropagated.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.backend import flat_fold_schedule, get_kernel
from repro.core.batch import _NOISE_SLAB_FLOATS
from repro.errors import TimingGraphError
from repro.parallel import threads
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph
from repro.timing.propagation import AUTO_BATCH_MIN_EDGES

__all__ = [
    "AUTO_LEVELIZED_MIN_EDGES",
    "MC_ARRIVALS_CACHE_MAX_FLOATS",
    "MC_CHUNK_BUDGET_FLOATS",
    "MC_SAMPLE_BLOCK",
    "MonteCarloRefresh",
    "MonteCarloResult",
    "MonteCarloSession",
    "IoDelayStatistics",
    "auto_chunk_size",
    "mc_chunk_budget",
    "simulate_graph_delay",
    "simulate_io_delays",
]

_NEG_INF = -np.inf

#: Below this edge count the object-level loop is selected by ``"auto"``:
#: the levelized engine's fixed per-level call overhead needs a few dozen
#: edges per level to amortise (same shape of heuristic as the propagation
#: and criticality engines, scaled to the Monte Carlo kernels' costs).
AUTO_LEVELIZED_MIN_EDGES = AUTO_BATCH_MIN_EDGES // 16

#: Working-set budget (in float64 elements) of the Monte Carlo kernels.
#: It sets two sizes.  The *sampling chunk* (:func:`auto_chunk_size`) is
#: the number of samples drawn as one ``(E, chunk)`` delay block; it never
#: drops below one whole :data:`MC_SAMPLE_BLOCK`, so on wide multi-source
#: graphs the block alone may exceed the budget.  The single-source
#: simulation runs one sample span per thread, each with its own delay and
#: arrival chunk, so there each thread's chunk is sized from its even share
#: of the budget (``budget // threads``).  The *fold width* of the
#: multi-source kernel (:func:`_fold_width`) is the number of sample
#: columns one fold thread folds at once.  The budget is split evenly
#: across the fold threads, and each thread's ``(slots, I, width)``
#: arrival state — one row per live slot of the fold, not per vertex —
#: plus its ``(max_level_rows, I, width)`` candidate and accumulator
#: blocks fit its share (one column is the floor).  4M floats (32 MiB) keeps
#: that working set last-level-cache resident on typical hardware
#: (measured on c7552: ~40 us/sample at chunk 256 vs ~56 us at 1024).
#: Overridable per run via the ``REPRO_MC_CHUNK_BUDGET`` environment
#: variable (see :func:`mc_chunk_budget`).
MC_CHUNK_BUDGET_FLOATS = 1 << 22

#: Environment variable overriding :data:`MC_CHUNK_BUDGET_FLOATS`.
MC_CHUNK_BUDGET_ENV = "REPRO_MC_CHUNK_BUDGET"

#: Bounds of the auto-sized chunk (an explicit ``chunk_size`` still wins).
MC_MIN_CHUNK = 16
MC_MAX_CHUNK = 8192

#: Samples per counter-based sampling block: block ``b`` of a run is drawn
#: from the keyed stream ``(seed, 2, b)`` (domain constant 2 — disjoint
#: from :class:`MonteCarloSession`'s ``(seed, 0)`` correlated and
#: ``(seed, 1, edge_id)`` per-edge streams).  Chunks and worker shards are
#: block-aligned so each block is always drawn whole by exactly one owner.
MC_SAMPLE_BLOCK = 128


def mc_chunk_budget() -> int:
    """The active chunk working-set budget (float64 elements).

    Reads ``REPRO_MC_CHUNK_BUDGET`` on every call so tests and batch jobs
    can retune chunking without touching code; raises a clear
    ``ValueError`` on a non-integer or non-positive override.
    """
    raw = os.environ.get(MC_CHUNK_BUDGET_ENV)
    if raw is None:
        return MC_CHUNK_BUDGET_FLOATS
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (MC_CHUNK_BUDGET_ENV, raw)
        ) from None
    if budget <= 0:
        raise ValueError(
            "%s must be positive, got %d" % (MC_CHUNK_BUDGET_ENV, budget)
        )
    return budget

#: Largest ``V x S`` arrival matrix a :class:`MonteCarloSession` caches by
#: default for dirty-cone repropagation (512 MiB of float64).  Larger
#: sessions fall back to chunked full repropagation on refresh.
MC_ARRIVALS_CACHE_MAX_FLOATS = 1 << 26


def auto_chunk_size(
    num_edges: int,
    num_vertices: int,
    num_sources: int = 1,
    num_samples: Optional[int] = None,
) -> int:
    """Sampling-chunk size: how many samples one delay block draws.

    Sizes the chunk so that ``delays (E, chunk)`` plus ``num_sources``
    arrival and candidate blocks (``(V, chunk)`` and ``~(E, chunk)`` each)
    would stay within the active budget (:func:`mc_chunk_budget`), clipped
    to ``[MC_MIN_CHUNK, MC_MAX_CHUNK]`` and to ``num_samples``.  That
    models the single-source kernel, whose arrival state is
    ``(V, chunk)``.  :func:`simulate_graph_delay` spreads its sample range
    over the threads and applies this rule to each thread's even share of
    the budget (``mc_chunk_budget() // threads``), since every thread holds
    its own chunk of delays and arrivals.  The multi-source kernel of
    :func:`simulate_io_delays` folds each chunk in narrower sample-column
    slices sized by the same budget (:func:`_fold_width`), so its arrival
    state never scales with the chunk; there the rule only sets how many
    samples are drawn at a time.

    The chunk is **block-aligned**: the counter-based sampler always
    materialises whole :data:`MC_SAMPLE_BLOCK`-sample blocks and slices the
    requested window out (see :func:`_sample_delay_range`), so a sub-block
    chunk redraws the same ``(E, block)`` matrix once per chunk instead of
    once per block.  At million-edge scale the budget used to resolve the
    chunk to 1, turning one block draw into up to 128 — a ~27x Monte Carlo
    throughput collapse (BENCH_scaling.json, 10^6 edges).  One whole block
    is therefore the working-set floor (it is already the peak allocation
    the sampler makes regardless of the chunk), and larger budget-sized
    chunks round down to block multiples; ``num_samples`` clips last, so
    short runs still use a single exact-sized chunk.
    """
    return _budget_chunk_size(
        mc_chunk_budget(), num_edges, num_vertices, num_sources, num_samples
    )


def _budget_chunk_size(
    budget: int,
    num_edges: int,
    num_vertices: int,
    num_sources: int,
    num_samples: Optional[int],
) -> int:
    """The :func:`auto_chunk_size` rule for an explicit float ``budget``."""
    per_sample = num_edges + (num_vertices + num_edges) * max(int(num_sources), 1)
    budget_chunk = int(budget // max(per_sample, 1))
    chunk = min(MC_MAX_CHUNK, max(MC_MIN_CHUNK, budget_chunk))
    chunk = min(chunk, max(budget_chunk, 1))
    if chunk < MC_SAMPLE_BLOCK:
        chunk = MC_SAMPLE_BLOCK
    else:
        chunk -= chunk % MC_SAMPLE_BLOCK
    if num_samples is not None:
        chunk = min(chunk, int(num_samples))
    return max(chunk, 1)


def _check_chunk_size(chunk_size: Optional[int]) -> None:
    """Raise on a non-positive ``chunk_size`` or, for ``None``, a bad budget."""
    if chunk_size is None:
        mc_chunk_budget()
    elif chunk_size <= 0:
        raise ValueError("chunk_size must be positive")


def _resolve_chunk_size(
    chunk_size: Optional[int],
    arrays: GraphArrays,
    num_sources: int,
    num_samples: int,
    shares: int = 1,
) -> int:
    """An explicit ``chunk_size`` wins; ``None`` auto-sizes from the graph.

    The auto rule gets one of ``shares`` even shares of
    :func:`mc_chunk_budget` (one share per thread).
    """
    if chunk_size is not None:
        _check_chunk_size(chunk_size)
        return int(chunk_size)
    return _budget_chunk_size(
        mc_chunk_budget() // shares,
        arrays.edge_mean.shape[0],
        arrays.num_vertices,
        num_sources,
        num_samples,
    )


def _resolve_engine(engine: str, num_edges: int) -> str:
    """Resolve ``engine`` to ``"levelized"`` or ``"object"``."""
    if engine == "auto":
        return "levelized" if num_edges >= AUTO_LEVELIZED_MIN_EDGES else "object"
    if engine not in ("levelized", "object"):
        raise ValueError("unknown Monte Carlo engine %r" % engine)
    return engine


@dataclass
class MonteCarloResult:
    """Samples of a circuit delay distribution plus summary statistics.

    ``map_report`` is the sharded run's
    :class:`~repro.parallel.pool.MapReport` (``None`` on the serial path):
    the samples are bit-identical either way, but the report says whether
    the pool had to retry, respawn or degrade to finish.
    """

    samples: np.ndarray
    elapsed_seconds: float
    _sorted_samples: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    map_report: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def num_samples(self) -> int:
        """Number of Monte Carlo iterations."""
        return int(self.samples.shape[0])

    @property
    def sorted_samples(self) -> np.ndarray:
        """The samples in ascending order (sorted once, then cached)."""
        if self._sorted_samples is None:
            self._sorted_samples = np.sort(self.samples)
        return self._sorted_samples

    @property
    def mean(self) -> float:
        """Sample mean of the circuit delay."""
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        """Sample standard deviation of the circuit delay."""
        return float(np.std(self.samples, ddof=1)) if self.num_samples > 1 else 0.0

    def quantile(self, q: float) -> float:
        """Empirical quantile of the circuit delay."""
        return float(np.quantile(self.samples, q))

    def cdf(self, values: np.ndarray) -> np.ndarray:
        """Empirical CDF evaluated at ``values`` (uses the cached sort)."""
        ranks = np.searchsorted(
            self.sorted_samples, np.asarray(values, dtype=float), side="right"
        )
        return ranks / float(self.num_samples)

    def histogram(self, bins: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of the sampled delays."""
        return np.histogram(self.samples, bins=bins)


@dataclass
class IoDelayStatistics:
    """Monte Carlo statistics of every input-to-output delay of a module.

    ``valid`` marks the structurally connected pairs (output reachable from
    the input through the graph); ``means``/``stds`` hold NaN elsewhere.
    """

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    valid: np.ndarray
    num_samples: int
    elapsed_seconds: float
    _input_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    _output_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    #: MapReport of the sharded run (None on the serial path).
    map_report: Optional[object] = field(default=None, repr=False, compare=False)

    def _pair(self, input_name: str, output_name: str) -> Tuple[int, int]:
        if self._input_index is None:
            self._input_index = {name: i for i, name in enumerate(self.inputs)}
            self._output_index = {name: j for j, name in enumerate(self.outputs)}
        try:
            return self._input_index[input_name], self._output_index[output_name]
        except KeyError as exc:
            raise ValueError("unknown input/output name %s" % exc) from None

    def mean(self, input_name: str, output_name: str) -> float:
        """Mean delay of one input/output pair."""
        i, j = self._pair(input_name, output_name)
        return float(self.means[i, j])

    def std(self, input_name: str, output_name: str) -> float:
        """Standard deviation of one input/output pair delay."""
        i, j = self._pair(input_name, output_name)
        return float(self.stds[i, j])


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The keyed stream of one sampling block (domain constant 2)."""
    return np.random.default_rng((int(seed), 2, int(block)))


def _sample_delay_range(
    arrays: GraphArrays,
    seed: int,
    num_samples: int,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
    slab: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sampled edge delays of samples ``[start, stop)``, ``(E, stop-start)``.

    Assembled from whole counter-based blocks: block ``b`` always draws its
    full ``min(MC_SAMPLE_BLOCK, num_samples - b * MC_SAMPLE_BLOCK)`` columns
    from its own stream and the requested window is sliced out, so the
    values of any sample depend only on ``(seed, num_samples)`` — never on
    the chunking or sharding that requested them.

    The draws are written into ``out`` (allocated when omitted): a block
    the window covers whole is drawn straight into its columns by
    :meth:`~repro.core.batch.CanonicalBatch._sample_into`, with the private
    noise staged through the flat ``slab`` buffer, so a caller that reuses
    ``out`` and ``slab`` draws without allocating.  A block the window cuts
    (a sub-block chunk) is drawn whole into a temporary and the window is
    copied out.
    """
    batch = arrays.edge_batch
    if out is None:
        out = np.empty((len(batch), stop - start))
    if slab is None:
        slab = np.empty(_NOISE_SLAB_FLOATS)
    block = start // MC_SAMPLE_BLOCK
    last = (stop - 1) // MC_SAMPLE_BLOCK
    while block <= last:
        low = block * MC_SAMPLE_BLOCK
        high = min(low + MC_SAMPLE_BLOCK, num_samples)
        window = slice(max(start, low) - start, min(stop, high) - start)
        rng = _block_rng(seed, block)
        if low >= start and high <= stop:
            batch._sample_into(rng, out[:, window], slab)
        else:
            draws = batch.sample(rng, high - low)
            shift = start - low
            out[:, window] = draws[:, window.start + shift : window.stop + shift]
        block += 1
    return out


# ----------------------------------------------------------------------
# Longest-path kernels
# ----------------------------------------------------------------------
def _longest_paths_object(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
) -> np.ndarray:
    """Per-sample longest paths: the original per-vertex reference loop.

    Returns a ``(V, num_samples)`` matrix; vertices unreachable from every
    source hold ``-inf``.
    """
    graph = arrays.graph
    index = arrays.vertex_index
    num_samples = delays.shape[1]
    arrivals = np.full((graph.num_vertices, num_samples), _NEG_INF)
    arrivals[source_rows] = 0.0

    for vertex in arrays.topo_order:
        vertex_row = index[vertex]
        for edge in graph.fanin_edges(vertex):
            edge_row = arrays.edge_rows[edge.edge_id]
            source_row = arrays.edge_source[edge_row]
            source_arrival = arrivals[source_row]
            candidate = source_arrival + delays[edge_row]
            np.maximum(arrivals[vertex_row], candidate, out=arrivals[vertex_row])
    return arrivals


def _level_fanin(
    arrays: GraphArrays, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_rows, segment_starts)`` of the fanin edges of ``rows``.

    ``edge_rows`` lists every fanin edge of the given vertex rows grouped
    per vertex (CSR order); ``segment_starts[k]`` is the offset of vertex
    ``rows[k]``'s group, ready for a ``reduceat`` segment reduction.  All
    rows of a forward level have at least one fanin edge, so no segment is
    empty.
    """
    edge_rows = arrays.in_edges_of(rows)
    counts = arrays.fanin_counts()[rows]
    starts = np.zeros(rows.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return edge_rows, starts


# ``(vertex_rows, ((source_rows, offset, count), ...))`` per forward level.
_FoldLevels = Tuple[Tuple[np.ndarray, Tuple[Tuple[np.ndarray, int, int], ...]], ...]


@dataclass(frozen=True)
class _SlotPlan:
    """Frontier-sized state layout of the multi-source fold.

    The fold keeps one ``(I, w)`` state row per *slot* instead of per
    vertex.  A vertex needs its row only over its live range: from the
    level that defines it (before the first level for rows the fold never
    writes, and for the seeded ``source_rows``) to the last level that
    reads it.  Slots come from a greedy interval assignment over those
    ranges; a slot freed after level ``k`` is reused from level ``k + 1``
    on, so even a kernel that writes each vertex as soon as it is folded
    never overwrites a row a later vertex of the same level still reads.
    ``sink_rows`` stay live to the end, and so do sources with fanin: they
    keep their slot for the whole fold, so ``is_source`` can be indexed by
    slot.

    ``levels``/``seeded`` mirror :attr:`_ForwardSchedule.levels` with
    every vertex row replaced by its slot; ``start_slots`` are the slots
    each sample slice resets to ``-inf`` before seeding ``source_slots``.
    """

    source_rows: np.ndarray
    sink_rows: np.ndarray
    num_slots: int
    slot_of: np.ndarray  # (V,) slot of each vertex row
    levels: _FoldLevels
    seeded: Tuple[Optional[Tuple[np.ndarray, np.ndarray]], ...]
    start_slots: np.ndarray
    source_slots: np.ndarray
    sink_slots: np.ndarray
    is_source: np.ndarray  # (num_slots,) sources with fanin


def _slot_plan(
    arrays: GraphArrays,
    levels: _FoldLevels,
    source_rows: np.ndarray,
    sink_rows: np.ndarray,
) -> _SlotPlan:
    """The :class:`_SlotPlan` of the fold ``levels`` for these sources and sinks."""
    num_vertices = arrays.num_vertices
    end = len(levels)
    born = np.full(num_vertices, -1, dtype=np.int64)
    for index, (rows, _rounds) in enumerate(levels):
        born[rows] = index
    has_fanin = born >= 0
    last = born.copy()
    for index, (_rows, rounds) in enumerate(levels):
        for source, _offset, _count in rounds:
            last[source] = index  # levels ascend: the final write is the max
    born[source_rows] = -1
    last[sink_rows] = end
    last[source_rows[has_fanin[source_rows]]] = end

    # Greedy interval assignment, level by level: vertices born at level
    # k take freed slots first, then fresh ones; vertices last read at k
    # free theirs for level k + 1.
    by_born = np.argsort(born, kind="stable")
    born_bounds = np.searchsorted(born[by_born], np.arange(-1, end + 1))
    by_last = np.argsort(last, kind="stable")
    last_bounds = np.searchsorted(last[by_last], np.arange(-1, end + 1))
    slot_of = np.empty(num_vertices, dtype=np.int64)
    free: list = []
    num_slots = 0
    for position in range(end + 1):
        group = by_born[born_bounds[position] : born_bounds[position + 1]]
        reuse = min(group.shape[0], len(free))
        fresh = group.shape[0] - reuse
        taken = free[len(free) - reuse :]
        del free[len(free) - reuse :]
        slot_of[group] = np.concatenate(
            [
                np.asarray(taken, dtype=np.int64),
                np.arange(num_slots, num_slots + fresh),
            ]
        )
        num_slots += fresh
        dying = by_last[last_bounds[position] : last_bounds[position + 1]]
        free.extend(slot_of[dying].tolist())

    is_source = np.zeros(num_slots, dtype=bool)
    is_source[slot_of[source_rows[has_fanin[source_rows]]]] = True
    is_source_row = np.zeros(num_vertices, dtype=bool)
    is_source_row[source_rows] = True
    slot_levels = []
    seeded = []
    for rows, rounds in levels:
        slot_levels.append(
            (
                slot_of[rows],
                tuple(
                    (slot_of[source], offset, count)
                    for source, offset, count in rounds
                ),
            )
        )
        positions = np.flatnonzero(is_source_row[rows])
        seeded.append(
            (positions, slot_of[rows[positions]]) if positions.size else None
        )
    return _SlotPlan(
        source_rows=source_rows,
        sink_rows=sink_rows,
        num_slots=num_slots,
        slot_of=slot_of,
        levels=tuple(slot_levels),
        seeded=tuple(seeded),
        start_slots=slot_of[born < 0],
        source_slots=slot_of[source_rows],
        sink_slots=slot_of[sink_rows],
        is_source=is_source,
    )


@dataclass(frozen=True)
class _ForwardSchedule:
    """Round-scheduled fold plan of the forward levels (Monte Carlo view).

    ``perm`` lists every edge row once, in fold order (level by level,
    round by round): round ``r`` of a level reads the delay rows
    ``perm[offset : offset + count]``.  ``levels[k]`` is ``(vertex_rows, rounds)``
    with ``rounds`` a list of ``(source_rows, offset, count)``: round
    ``r`` folds the ``r``-th fanin edge of the level's leading ``count``
    vertices (vertices are pre-sorted by descending degree, so round
    participants are always a prefix — the same trick as the batched SSTA
    engine's :func:`~repro.timing.propagation._fold_rounds`).  ``slots``
    is the multi-source fold's state layout (:class:`_SlotPlan`), built on
    first use by :func:`_slot_plan_for`, so single-source runs never pay
    for it.
    """

    perm: np.ndarray
    levels: _FoldLevels
    slots: Optional[_SlotPlan] = None


def _forward_schedule(arrays: GraphArrays) -> _ForwardSchedule:
    """The fold schedule of ``arrays`` (cached on the levelized schedules).

    Keyed to the identity of the cached ``forward_levels()`` list, which
    :meth:`GraphArrays.refresh` invalidates on any structural window — so
    the schedule follows the arrays through incremental maintenance for
    free.
    """
    levels = arrays.forward_levels()
    cached = getattr(arrays, "_mc_forward_schedule", None)
    if cached is not None and cached[0] is levels:
        return cached[1]

    edge_source = arrays.edge_source
    perm_parts = []
    schedule_levels = []
    offset = 0
    for level in levels:
        edge_matrix = level.edge_matrix
        round_counts = level.round_counts
        rounds = []
        for round_index in range(edge_matrix.shape[1]):
            count = int(round_counts[round_index])
            if count == 0:
                break  # counts are non-increasing
            edge_rows = edge_matrix[:count, round_index]
            perm_parts.append(edge_rows)
            rounds.append((edge_source[edge_rows], offset, count))
            offset += count
        schedule_levels.append((level.vertex_rows, tuple(rounds)))
    perm = (
        np.concatenate(perm_parts)
        if perm_parts
        else np.empty(0, dtype=np.int64)
    )
    schedule = _ForwardSchedule(perm, tuple(schedule_levels))
    arrays._mc_forward_schedule = (levels, schedule)
    return schedule


def _slot_plan_for(
    arrays: GraphArrays, source_rows: np.ndarray, sink_rows: np.ndarray
) -> _SlotPlan:
    """The slot plan of these sources and sinks, cached with the schedule.

    A plan built for other rows is replaced: an I/O-designation change
    keeps the levels, and with them the cached schedule.
    """
    schedule = _forward_schedule(arrays)
    plan = schedule.slots
    if (
        plan is not None
        and np.array_equal(plan.source_rows, source_rows)
        and np.array_equal(plan.sink_rows, sink_rows)
    ):
        return plan
    plan = _slot_plan(arrays, schedule.levels, source_rows, sink_rows)
    arrays._mc_forward_schedule = (
        arrays.forward_levels(),
        replace(schedule, slots=plan),
    )
    return plan


def _longest_paths_levelized(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
    backend: Optional[str] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-scheduled longest paths from a single set of sources.

    Bit-identical to :func:`_longest_paths_object` (``+`` and ``max`` are
    exact, so the per-vertex fold order is immaterial), but each level's
    fanin edges are folded as whole prefix rounds instead of a per-vertex
    Python loop.  Each round gathers its source arrivals and its delay
    rows (``_ForwardSchedule.perm`` names them) straight from the
    unpermuted ``(E, S)`` block into level-sized scratch, so no permuted
    copy of the block is made.  When the compiled backend resolves, the
    whole propagation runs as one fused nopython sweep over the flat fold
    plan instead — still bitwise identical.

    The ``(V, S)`` arrivals are written into ``out`` and the level scratch
    lives in ``scratch`` (``(3, max_level_rows * S)`` floats, see
    :func:`_fold_scratch`); both are allocated when omitted.
    """
    num_vertices = arrays.num_vertices
    num_samples = delays.shape[1]
    arrivals = np.empty((num_vertices, num_samples)) if out is None else out
    arrivals.fill(_NEG_INF)
    arrivals[source_rows] = 0.0
    is_source = np.zeros(num_vertices, dtype=bool)
    is_source[source_rows] = True
    kernel = get_kernel("mc_longest_paths", backend)
    if kernel.backend == "numba":
        flat = flat_fold_schedule(arrays, "forward")
        kernel.function(
            flat.level_ptr, flat.vertices, flat.edge_ptr, flat.edge_rows,
            arrays.edge_source, delays,
            arrivals.reshape(num_vertices, 1, num_samples), is_source,
        )
        return arrivals
    schedule = _forward_schedule(arrays)
    perm = schedule.perm
    if scratch is None:
        scratch = _fold_scratch(arrays, num_samples)
    acc_buffer, cand_buffer, delay_buffer = scratch

    for rows, rounds in schedule.levels:
        acc = acc_buffer[: rows.shape[0] * num_samples].reshape(-1, num_samples)
        # Round 0 covers every vertex of the level, so it initialises acc.
        for round_index, (round_sources, offset, count) in enumerate(rounds):
            candidates = acc
            if round_index:
                candidates = cand_buffer[: count * num_samples].reshape(
                    count, num_samples
                )
            gathered = delay_buffer[: count * num_samples].reshape(
                count, num_samples
            )
            np.take(arrivals, round_sources, axis=0, out=candidates, mode="clip")
            np.take(
                delays, perm[offset : offset + count], axis=0, out=gathered,
                mode="clip",
            )
            candidates += gathered
            if round_index:
                np.maximum(acc[:count], candidates, out=acc[:count])
        seeded = is_source[rows]
        if seeded.any():
            # An input vertex with fanin keeps its 0.0 seed in the fold.
            acc[seeded] = np.maximum(acc[seeded], arrivals[rows[seeded]])
        arrivals[rows] = acc
    return arrivals


def _max_level_rows(arrays: GraphArrays) -> int:
    """Vertex rows of the widest forward level."""
    return max(
        (level.vertex_rows.shape[0] for level in arrays.forward_levels()),
        default=0,
    )


def _fold_scratch(arrays: GraphArrays, num_samples: int) -> np.ndarray:
    """Level scratch of :func:`_longest_paths_levelized` for ``num_samples``.

    Three ``max_level_rows * num_samples`` rows: the level accumulator, a
    later round's candidates and the round's gathered delay rows.
    """
    return np.empty((3, _max_level_rows(arrays) * num_samples))


def _fold_width(arrays: GraphArrays, num_sources: int, chunk: int) -> int:
    """Sample columns per multi-source fold slice, sized by the budget.

    The budget (:func:`mc_chunk_budget`) is split evenly across the fold
    threads (:func:`~repro.parallel.threads.thread_count`).  One thread's
    slice holds the ``(slots, I, w)`` arrival state — ``slots`` the live
    frontier of the slot plan (:class:`_SlotPlan`), not ``V`` — plus the
    ``(max_level_rows, I, w)`` candidate and accumulator blocks, so ``w``
    is the per-thread budget over their per-column floats, clipped to
    ``[1, chunk]``.
    """
    num_slots = _slot_plan_for(
        arrays, arrays.input_rows, arrays.output_rows
    ).num_slots
    per_column = (num_slots + 2 * _max_level_rows(arrays)) * num_sources
    budget = mc_chunk_budget() // threads.thread_count()
    return int(min(max(budget // per_column, 1), chunk))


def _fold_slice(state, delays, plan, cand_buffer, acc_buffer):
    """Fold one ``(slots, I, w)`` sample slice level by level, in place.

    ``delays`` is the slice's ``(E, w)`` delay block in fold order
    (``_ForwardSchedule.perm``); ``plan`` is the :class:`_SlotPlan` whose
    slot-mapped levels drive the fold.  Each round gathers into a reused
    buffer view; round 0 covers every row of the level, so it initialises
    the accumulator.
    """
    row_floats = state.shape[1] * state.shape[2]
    for (slots, rounds), seeded in zip(plan.levels, plan.seeded):
        acc = acc_buffer[: slots.shape[0] * row_floats].reshape(
            (slots.shape[0],) + state.shape[1:]
        )
        for round_index, (source_slots, offset, count) in enumerate(rounds):
            candidates = acc
            if round_index:
                candidates = cand_buffer[: count * row_floats].reshape(
                    (count,) + state.shape[1:]
                )
            np.take(state, source_slots, axis=0, out=candidates, mode="clip")
            candidates += delays[offset : offset + count, np.newaxis]
            if round_index:
                np.maximum(acc[:count], candidates, out=acc[:count])
        if seeded is not None:
            # An input vertex with fanin keeps its 0.0 seed in the fold.
            positions, seed_slots = seeded
            acc[positions] = np.maximum(acc[positions], state[seed_slots])
        state[slots] = acc


def _longest_paths_multi_source(
    arrays: GraphArrays,
    delays: np.ndarray,
    source_rows: np.ndarray,
    sink_rows: np.ndarray,
    width: int,
    backend: Optional[str] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All per-source longest paths to ``sink_rows``; returns ``(I, K, S)``.

    ``out[k, j, :]`` is exactly the ``sink_rows[j]`` row of the matrix
    the single-source kernel produces for ``source_rows[k]`` alone.  The
    source axis shares every gather of the sampled delay matrix across all
    ``|I|`` propagations, so the per-input Table-I reference costs one pass
    per chunk instead of ``|I|``.

    The ``(E, S)`` delay block's sample columns are split into contiguous
    spans, one per fold thread (:func:`~repro.parallel.threads.thread_count`),
    and each thread folds its span in slices of ``width`` columns over its
    own rows of buffers allocated for this call: the ``(slots, I, width)``
    arrival state of the slot plan (:class:`_SlotPlan`), the slice's
    ``(E, width)`` delays and, on the numpy tier, the
    ``(max_level_rows, I, width)`` candidate and accumulator blocks.  Only
    the sink slots of each slice are kept, written to the thread's own
    columns of ``out``, so the working set is bounded by ``width`` per
    thread instead of ``S`` (see :func:`_fold_width`).  Each slice resets
    the slots live before the first level and reseeds the sources; every
    other slot is written by its level before any read.  The compiled
    backend runs each slice as one fused nopython sweep over the same
    slot-mapped plan (bitwise identical: ``+`` and ``max`` are exact, so
    no thread count, span or width changes a value).
    """
    num_sources = source_rows.shape[0]
    num_edges, num_samples = delays.shape
    if out is None:
        out = np.empty((num_sources, sink_rows.shape[0], num_samples))
    width = max(1, min(int(width), num_samples))
    source_columns = np.arange(num_sources)
    plan = _slot_plan_for(arrays, source_rows, sink_rows)
    num_slots = plan.num_slots

    kernel = get_kernel("mc_longest_paths", backend)
    compiled = kernel.backend == "numba"
    if compiled:
        flat = flat_fold_schedule(arrays, "forward")
        vertex_slots = plan.slot_of[flat.vertices]
        edge_source_slots = plan.slot_of[arrays.edge_source]
    else:
        perm = _forward_schedule(arrays).perm
        max_level_rows = _max_level_rows(arrays)

    num_threads = min(threads.thread_count(), num_samples)
    bounds = [num_samples * thread // num_threads for thread in range(num_threads + 1)]
    width = min(width, bounds[1] - bounds[0])
    # One row of each buffer per thread, allocated here on the calling
    # thread: allocations made inside worker threads land in per-thread
    # malloc arenas that keep the freed pages resident (+30 MB peak RSS
    # on c7552).
    state_rows = np.empty((num_threads, num_slots * num_sources * width))
    delay_rows = np.empty((num_threads, num_edges * width))
    if not compiled:
        cand_rows = np.empty((num_threads, max_level_rows * num_sources * width))
        acc_rows = np.empty_like(cand_rows)

    def fold_span(thread: int) -> None:
        low, high = bounds[thread], bounds[thread + 1]
        for start in range(low, high, width):
            cols = min(width, high - start)
            state = state_rows[thread, : num_slots * num_sources * cols].reshape(
                num_slots, num_sources, cols
            )
            state[plan.start_slots] = _NEG_INF
            state[plan.source_slots, source_columns] = 0.0
            delay_slice = delay_rows[thread, : num_edges * cols].reshape(
                num_edges, cols
            )
            if compiled:
                np.copyto(delay_slice, delays[:, start : start + cols])
                kernel.function(
                    flat.level_ptr, vertex_slots, flat.edge_ptr, flat.edge_rows,
                    edge_source_slots, delay_slice, state, plan.is_source,
                )
            else:
                np.take(
                    delays[:, start : start + cols], perm, axis=0,
                    out=delay_slice, mode="clip",
                )
                _fold_slice(
                    state, delay_slice, plan, cand_rows[thread], acc_rows[thread]
                )
            # Row by row: a gathered (K, I, cols) copy per thread would not
            # fit the memory bound.
            for position, slot in enumerate(plan.sink_slots):
                out[:, position, start : start + cols] = state[slot]

    threads.map_ordered(fold_span, range(num_threads))
    return out


def _reachable_from(arrays: GraphArrays, source_rows: np.ndarray) -> np.ndarray:
    """``(V, I)`` boolean reachability from each source (sources included).

    The structural analogue of the longest-path kernels: one boolean
    segment reduction per level instead of per-sample finiteness checks.
    """
    num_sources = source_rows.shape[0]
    reach = np.zeros((arrays.num_vertices, num_sources), dtype=bool)
    reach[source_rows, np.arange(num_sources)] = True
    edge_source = arrays.edge_source

    for level in arrays.forward_levels():
        rows = level.vertex_rows
        edge_rows, starts = _level_fanin(arrays, rows)
        reduced = np.logical_or.reduceat(
            reach[edge_source[edge_rows]], starts, axis=0
        )
        reach[rows] |= reduced
    return reach


# ----------------------------------------------------------------------
# One-shot simulators
# ----------------------------------------------------------------------
def _simulate_delay_range(
    arrays: GraphArrays,
    seed: int,
    num_samples: int,
    start: int,
    stop: int,
    chunk_size: Optional[int],
    levelized: bool = True,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Circuit-delay samples ``[start, stop)`` of a ``num_samples`` run.

    The unit of work of the sharded delay simulation: per-sample values are
    exact (``max`` and ``+`` have no rounding), so any partitioning of the
    sample axis into ranges — and any chunking within a range — reproduces
    the same values bit for bit (backends included).

    The range is split into block-aligned spans, one per thread
    (:func:`~repro.parallel.threads.thread_count`), and each thread draws
    and folds its span chunk by chunk into its own samples.  Every
    :data:`MC_SAMPLE_BLOCK`-sample block has its own keyed stream, so no
    two threads share a generator.  Each thread reuses buffers allocated
    here, on the calling thread: the ``(E, chunk)`` delays, the
    ``(V, chunk)`` arrivals, the level scratch and a noise slab.  An
    explicit ``chunk_size`` wins; ``None`` applies the
    :func:`auto_chunk_size` rule to each thread's even share of the
    budget.  The sampler's matmul is BLAS, so the spans run with BLAS
    pinned to one thread; when it cannot be pinned the range runs as one
    span.
    """
    from repro.parallel.shard import partition_samples

    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    num_edges = arrays.edge_mean.shape[0]
    num_vertices = arrays.num_vertices
    samples = np.empty(stop - start, dtype=float)
    with threads.single_blas_thread() as pinned:
        spans = [
            (start + low, start + high)
            for low, high in partition_samples(
                stop - start,
                threads.thread_count() if pinned else 1,
                MC_SAMPLE_BLOCK,
            )
        ]
        longest = spans[0][1] - spans[0][0]
        chunk = min(
            longest,
            _resolve_chunk_size(chunk_size, arrays, 1, longest, len(spans)),
        )
        # One row of each buffer per thread, allocated here on the calling
        # thread: allocations made inside worker threads land in per-thread
        # malloc arenas that keep the freed pages resident.
        delay_rows = np.empty((len(spans), num_edges * chunk))
        slab_rows = np.empty((len(spans), _NOISE_SLAB_FLOATS))
        if levelized:
            _forward_schedule(arrays)  # built once, before the threads read it
            arrival_rows = np.empty((len(spans), num_vertices * chunk))
            scratch_rows = [_fold_scratch(arrays, chunk) for _span in spans]

        def run_span(thread: int) -> None:
            low, high = spans[thread]
            for done in range(low, high, chunk):
                cols = min(chunk, high - done)
                delays = _sample_delay_range(
                    arrays, seed, num_samples, done, done + cols,
                    out=delay_rows[thread, : num_edges * cols].reshape(
                        num_edges, cols
                    ),
                    slab=slab_rows[thread],
                )
                if levelized:
                    arrivals = _longest_paths_levelized(
                        arrays, delays, input_rows, backend,
                        out=arrival_rows[thread, : num_vertices * cols].reshape(
                            num_vertices, cols
                        ),
                        scratch=scratch_rows[thread],
                    )
                else:
                    arrivals = _longest_paths_object(arrays, delays, input_rows)
                samples[done - start : done - start + cols] = arrivals[
                    output_rows
                ].max(axis=0)

        threads.map_ordered(run_span, range(len(spans)))
    return samples


def _check_shardable_engine(engine: str) -> None:
    """The object-level reference cannot be sharded (workers see no graph)."""
    if engine == "object":
        raise ValueError(
            "engine='object' cannot run with workers > 1; use the levelized "
            "engine (bit-identical) or drop the worker count"
        )


def simulate_graph_delay(
    graph: TimingGraph,
    num_samples: int = 10000,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    engine: str = "auto",
    workers: Optional[int] = None,
    executor=None,
    backend: Optional[str] = None,
    arrays: Optional[GraphArrays] = None,
) -> MonteCarloResult:
    """Monte Carlo distribution of the graph's input-to-output delay.

    The delay of one sample is the maximum, over all designated outputs, of
    the longest path from any designated input with that sample's edge
    delays.  ``chunk_size=None`` auto-sizes the sample chunks from the
    graph size (see :func:`auto_chunk_size`); ``engine`` selects the
    levelized kernel, the object-level reference loop or a size-based
    choice (``"auto"``).  Sampling is counter-based per block, so the
    samples depend only on ``(seed, num_samples)`` — both engines, every
    chunk size, thread count and worker count produce bit-identical
    samples.

    In-process, the sample range is split into block-aligned spans, one
    per thread (:func:`~repro.parallel.threads.thread_count`), run with
    BLAS pinned to one thread (serially when it cannot be pinned).  Each
    thread draws and folds its span over buffers allocated once per call
    — ``(E, chunk)`` delays, ``(V, chunk)`` arrivals, level scratch and a
    noise slab — with an auto chunk sized from its share of the budget
    (:func:`mc_chunk_budget` ``// threads``); see
    :func:`_simulate_delay_range`.

    ``workers`` (or the ``REPRO_WORKERS`` environment variable, or an
    explicit :class:`~repro.parallel.pool.ShardedExecutor` via
    ``executor``) shards block-aligned sample ranges across a process pool
    over a shared-memory snapshot of the graph arrays; when shared memory
    is unavailable or only one worker resolves, the run falls back to this
    serial path with identical results.

    Passing prebuilt ``arrays`` (the :func:`propagate_arrival_times_batch`
    pattern) skips the per-call :meth:`GraphArrays.from_graph` rebuild —
    at million-edge scale that rebuild plus the levelized schedule costs
    several times the sampling-and-propagation work itself, so repeated
    callers should build once and reuse.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not graph.inputs or not graph.outputs:
        raise TimingGraphError("Monte Carlo needs designated inputs and outputs")

    from repro.parallel.pool import maybe_executor

    start = time.perf_counter()
    if arrays is None:
        arrays = GraphArrays.from_graph(graph)
    # Each range resolves an auto chunk (None) from its own thread count.
    _check_chunk_size(chunk_size)
    executor = maybe_executor(workers, executor)
    if executor is not None and executor.engine != "process":
        executor = None  # graceful serial fallback (bit-identical)
    map_report = None
    if executor is not None:
        _check_shardable_engine(engine)
        from repro.parallel.shard import partition_samples

        ranges = partition_samples(num_samples, executor.workers, MC_SAMPLE_BLOCK)
        payloads = [
            (seed, num_samples, lo, hi, chunk_size) for lo, hi in ranges
        ]
        parts, map_report = executor.run_with_report(
            "mc_delay_range", payloads, arrays
        )
        samples = np.concatenate(parts)
    else:
        levelized = _resolve_engine(engine, graph.num_edges) == "levelized"
        samples = _simulate_delay_range(
            arrays, seed, num_samples, 0, num_samples, chunk_size, levelized,
            backend,
        )
    elapsed = time.perf_counter() - start
    return MonteCarloResult(
        samples=samples, elapsed_seconds=elapsed, map_report=map_report
    )


def _io_block_moments(
    arrays: GraphArrays,
    seed: int,
    num_samples: int,
    start: int,
    stop: int,
    chunk_size: int,
    levelized: bool = True,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block IO moment partials of samples ``[start, stop)``.

    ``start``/``stop`` must be block-aligned (``stop`` may be the final
    partial block's end).  Returns ``(sums, square_sums)`` stacks of shape
    ``(blocks, I, O)``: entry ``k`` holds the output-arrival moment sums of
    the ``k``-th covered block.  The per-block partial is the canonical
    accumulation unit — a fixed-length reduction over one whole block — so
    it is invariant to the chunking that computed it, and summing the
    stacks in ascending block order reproduces the serial statistics bit
    for bit no matter how the blocks were sharded.
    """
    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    num_inputs = input_rows.shape[0]
    num_outputs = output_rows.shape[0]
    # Chunks must cover whole blocks so every block's reduction happens in
    # one piece; round the requested chunk down to a block multiple.
    chunk_size = max(
        MC_SAMPLE_BLOCK, chunk_size // MC_SAMPLE_BLOCK * MC_SAMPLE_BLOCK
    )
    if levelized:
        width = _fold_width(arrays, num_inputs, chunk_size)
        block_buffer = np.empty(
            num_inputs * num_outputs * min(chunk_size, stop - start)
        )
    sums_parts = []
    square_parts = []
    done = start
    while done < stop:
        chunk = min(chunk_size, stop - done)
        if levelized:
            # The sampled block is handed over without a local reference, so
            # it is freed when the fold returns, before the next draw.
            finite = _longest_paths_multi_source(
                arrays,
                _sample_delay_range(arrays, seed, num_samples, done, done + chunk),
                input_rows,
                output_rows,
                width,
                backend,
                out=block_buffer[: num_inputs * num_outputs * chunk].reshape(
                    num_inputs, num_outputs, chunk
                ),
            )
            np.nan_to_num(finite, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            for offset in range(0, chunk, MC_SAMPLE_BLOCK):
                block = finite[:, :, offset : offset + MC_SAMPLE_BLOCK]
                sums_parts.append(block.sum(axis=2))
                square_parts.append((block * block).sum(axis=2))
        else:
            delays = _sample_delay_range(arrays, seed, num_samples, done, done + chunk)
            blocks = range(0, chunk, MC_SAMPLE_BLOCK)
            chunk_sums = np.empty((len(blocks), num_inputs, num_outputs))
            chunk_squares = np.empty_like(chunk_sums)
            for input_position in range(num_inputs):
                source_rows = input_rows[input_position : input_position + 1]
                arrivals = _longest_paths_object(arrays, delays, source_rows)
                output_arrivals = arrivals[output_rows]  # (O, chunk)
                finite = np.where(np.isfinite(output_arrivals), output_arrivals, 0.0)
                for position, offset in enumerate(blocks):
                    block = finite[:, offset : offset + MC_SAMPLE_BLOCK]
                    chunk_sums[position, input_position] = block.sum(axis=1)
                    chunk_squares[position, input_position] = (block * block).sum(
                        axis=1
                    )
            sums_parts.extend(chunk_sums)
            square_parts.extend(chunk_squares)
        done += chunk
    shape = (len(sums_parts), num_inputs, num_outputs)
    if not sums_parts:
        return np.zeros(shape), np.zeros(shape)
    return np.stack(sums_parts), np.stack(square_parts)


def simulate_io_delays(
    graph: TimingGraph,
    num_samples: int = 10000,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    engine: str = "auto",
    workers: Optional[int] = None,
    executor=None,
    backend: Optional[str] = None,
    arrays: Optional[GraphArrays] = None,
) -> IoDelayStatistics:
    """Monte Carlo mean and sigma of every input-to-output delay.

    This is the reference used for the ``merr``/``verr`` columns of Table I.
    The levelized engine computes all ``|I|`` per-input propagations of a
    chunk in one pass sharing a single sampled delay matrix; the
    object-level reference (``engine="object"``) runs the original
    one-propagation-per-input loop.  Sampling is counter-based per block
    and moments accumulate per block in ascending order, so the statistics
    are bit-identical across engines, chunk sizes, fold widths, thread
    counts and worker counts for the same ``(seed, num_samples)``.  The
    ``valid`` mask is derived structurally from per-input reachability, so
    a pair is NaN exactly when no path connects it.

    Two sizes bound the memory.  The *sampling chunk* is the number of
    samples drawn as one ``(E, chunk)`` delay block: an explicit
    ``chunk_size`` sets it (rounded down to whole 128-sample blocks, at
    least one) and ``None`` auto-sizes it (:func:`auto_chunk_size`).  The
    *fold width* is the number of sample columns one fold thread folds at
    once: each chunk's columns are split across the threads
    (:func:`~repro.parallel.threads.thread_count`), and the chunk budget
    (:func:`mc_chunk_budget`) is split evenly between them so that each
    thread's ``(slots, I, width)`` arrival state — the fold's live slots,
    not ``V`` — and its per-level candidate and accumulator blocks fit its
    share.  Beyond the budget, a run holds the delay block and one
    ``(I, O, chunk)`` block of output arrivals.  Sampling stays on the
    calling thread, so no BLAS call runs inside the threaded fold.
    ``workers`` / ``executor`` shard block ranges exactly like
    :func:`simulate_graph_delay`, and each worker folds within the same
    bound; so do prebuilt ``arrays``.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not graph.inputs or not graph.outputs:
        raise TimingGraphError("Monte Carlo needs designated inputs and outputs")

    from repro.parallel.pool import maybe_executor

    start = time.perf_counter()
    if arrays is None:
        arrays = GraphArrays.from_graph(graph)
    num_inputs = len(graph.inputs)
    num_outputs = len(graph.outputs)
    input_rows = arrays.input_rows
    output_rows = arrays.output_rows
    chunk_size = _resolve_chunk_size(chunk_size, arrays, num_inputs, num_samples)
    executor = maybe_executor(workers, executor)
    if executor is not None and executor.engine != "process":
        executor = None  # graceful serial fallback (bit-identical)

    # Structural validity: a pair is connected iff the output is reachable
    # from the input, independently of any sampled delay values.
    reachable = np.ascontiguousarray(_reachable_from(arrays, input_rows)[output_rows].T)

    map_report = None
    if executor is not None:
        _check_shardable_engine(engine)
        from repro.parallel.shard import partition_samples

        ranges = partition_samples(num_samples, executor.workers, MC_SAMPLE_BLOCK)
        payloads = [
            (seed, num_samples, lo, hi, chunk_size) for lo, hi in ranges
        ]
        parts, map_report = executor.run_with_report(
            "mc_io_blocks", payloads, arrays
        )
        stacks = [part[0] for part in parts], [part[1] for part in parts]
        sums_stack = np.concatenate(stacks[0])
        square_stack = np.concatenate(stacks[1])
    else:
        levelized = _resolve_engine(engine, graph.num_edges) == "levelized"
        sums_stack, square_stack = _io_block_moments(
            arrays, seed, num_samples, 0, num_samples, chunk_size, levelized,
            backend,
        )

    # Sequential per-block accumulation in ascending block order: the exact
    # same sequence of additions as any other partitioning of the blocks.
    sums = np.zeros((num_inputs, num_outputs), dtype=float)
    square_sums = np.zeros((num_inputs, num_outputs), dtype=float)
    for position in range(sums_stack.shape[0]):
        sums += sums_stack[position]
        square_sums += square_stack[position]

    means = sums / float(num_samples)
    variances = np.maximum(square_sums / float(num_samples) - means * means, 0.0)
    stds = np.sqrt(variances) * np.sqrt(
        num_samples / max(num_samples - 1, 1)
    )
    means = np.where(reachable, means, np.nan)
    stds = np.where(reachable, stds, np.nan)
    elapsed = time.perf_counter() - start
    return IoDelayStatistics(
        inputs=graph.inputs,
        outputs=graph.outputs,
        means=means,
        stds=stds,
        valid=reachable,
        num_samples=num_samples,
        elapsed_seconds=elapsed,
        map_report=map_report,
    )


# ----------------------------------------------------------------------
# Incremental Monte Carlo sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MonteCarloRefresh:
    """What one :meth:`MonteCarloSession.refresh` call actually did.

    ``kind`` is ``"initial"`` (first full sample), ``"noop"`` (empty
    journal window), ``"rows"`` (retime-only window: only the named edge
    rows were resampled), ``"structure"`` (surviving rows migrated, added
    and retimed rows sampled) or ``"full"`` (journal overflow or an IO
    designation change: complete resample).  ``resampled_rows`` counts the
    matrix rows that were drawn fresh; ``revision`` is the graph revision
    the sample matrix now reflects.
    """

    kind: str
    resampled_rows: int
    revision: int


class MonteCarloSession:
    """An incrementally maintained Monte Carlo simulation of one graph.

    Where :func:`simulate_graph_delay` resamples and repropagates from
    scratch on every call, a session attaches to one graph's revisioned
    change journal and keeps the sampled ``(E, S)`` edge-delay matrix —
    plus, when it fits the memory budget, the propagated ``(V, S)``
    arrival matrix — alive as caches keyed to the graph revision:

    * a retime-only journal window resamples **only the retimed rows** and
      repropagates only the samples' structural fan-out cone;
    * a structural window migrates the surviving rows of the delay matrix
      (added/retimed rows are drawn fresh) and repropagates fully;
    * journal overflow or an input/output designation change falls back to
      a full resample.

    Sampling is **counter-based per edge**: the correlated component draws
    are keyed to ``(seed, 0)`` and each edge's private noise stream to
    ``(seed, 1, edge_id)``, so a patched matrix is identical to the matrix a
    cold session would sample from the edited graph — warm revalidation
    matches a cold run to floating-point round-off (asserted at 1e-9 by
    the parity tests).  Note this per-edge stream layout differs from the
    one-shot simulators' per-block streams (``(seed, 2, block)``): a
    session and :func:`simulate_graph_delay` agree in distribution, not
    sample by sample.
    """

    def __init__(
        self,
        graph: TimingGraph,
        num_samples: int = 10000,
        seed: int = 0,
        chunk_size: Optional[int] = None,
        cache_arrivals: Optional[bool] = None,
    ) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not graph.inputs or not graph.outputs:
            raise TimingGraphError("Monte Carlo needs designated inputs and outputs")
        graph.enable_journal()
        self._graph = graph
        self._arrays = GraphArrays.from_graph(graph)
        self._num_samples = int(num_samples)
        self._seed = int(seed)
        self._chunk_size = chunk_size
        if cache_arrivals is None:
            cache_arrivals = (
                self._arrays.num_vertices * self._num_samples
                <= MC_ARRIVALS_CACHE_MAX_FLOATS
            )
        self._cache_arrivals = bool(cache_arrivals)
        self._correlated_draws: Optional[np.ndarray] = None
        self._delays: Optional[np.ndarray] = None
        self._arrivals: Optional[np.ndarray] = None
        # Sink rows whose arrivals a warm repropagation must recompute.
        self._dirty_sink_rows: Dict[int, None] = {}
        # Whether the next propagation must cover every vertex (initial
        # pass, structural window, full resample, or cold arrival cache).
        self._needs_full_propagate = True
        self._matrix_serial = 0
        self._result: Optional[MonteCarloResult] = None
        self._result_serial = -1
        self.last_refresh: Optional[MonteCarloRefresh] = None
        #: Why the last :meth:`load` fell back to a cold rebuild (``None``
        #: when the snapshot attached warm).
        self.store_fallback_reason: Optional[str] = None
        self.refresh()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TimingGraph:
        """The graph this session is attached to."""
        return self._graph

    @property
    def arrays(self) -> GraphArrays:
        """The session's (incrementally maintained) array view."""
        return self._arrays

    @property
    def num_samples(self) -> int:
        """Number of Monte Carlo iterations of the cached matrix."""
        return self._num_samples

    @property
    def seed(self) -> int:
        """Base seed of the session's counter-based sample streams."""
        return self._seed

    @property
    def revision(self) -> int:
        """Graph revision the cached sample matrix currently reflects."""
        return self._arrays.revision

    @property
    def edge_delay_samples(self) -> np.ndarray:
        """The cached ``(E, S)`` sampled edge-delay matrix (synchronised)."""
        self.refresh()
        return self._delays

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the session caches: per cache plus total.

        Mirrors :meth:`repro.parallel.shm.SharedArraysHandle.nbytes_report`:
        the sampled ``(E, S)`` delay matrix, the optional ``(V, S)``
        arrival cache, the shared correlated draws and the underlying
        :class:`GraphArrays` working set.  No refresh is performed — the
        report describes the caches as currently held (0 before the first
        pass populates them).
        """
        report = {
            "delay_samples": int(self._delays.nbytes) if self._delays is not None else 0,
            "arrival_cache": int(self._arrivals.nbytes) if self._arrivals is not None else 0,
            "correlated_draws": (
                int(self._correlated_draws.nbytes)
                if self._correlated_draws is not None
                else 0
            ),
            "graph_arrays": int(self._arrays.nbytes_report()["total"]),
        }
        report["total"] = sum(report.values())
        return report

    # ------------------------------------------------------------------
    # Snapshots (see repro.store)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The session's cached sample state as store columns plus metadata.

        Synchronises with the journal first, so the snapshot is keyed at
        the graph's current revision.  Captures everything warm: the
        ``(E, S)`` delay matrix, the shared correlated draws, the pending
        dirty cone, the optional arrival cache and the cached result —
        a restored session answers :meth:`revalidate` without resampling.
        """
        self.refresh()
        columns: Dict[str, np.ndarray] = {
            "mc.delays": self._delays,
            "mc.correlated_draws": self._correlated(),
            "mc.dirty_sink_rows": np.fromiter(
                self._dirty_sink_rows, np.int64, len(self._dirty_sink_rows)
            ),
        }
        if self._arrivals is not None:
            columns["mc.arrivals"] = self._arrivals
        if self._result is not None:
            columns["mc.result_samples"] = self._result.samples
        meta: Dict[str, Any] = {
            "num_samples": self._num_samples,
            "seed": self._seed,
            "chunk_size": None if self._chunk_size is None else int(self._chunk_size),
            "cache_arrivals": self._cache_arrivals,
            "needs_full_propagate": self._needs_full_propagate,
            "matrix_serial": self._matrix_serial,
            "has_arrivals": self._arrivals is not None,
            "has_result": self._result is not None,
            "result_serial": self._result_serial,
            "result_elapsed": (
                float(self._result.elapsed_seconds) if self._result is not None else 0.0
            ),
        }
        return columns, meta

    @classmethod
    def from_snapshot(
        cls,
        graph: TimingGraph,
        arrays: GraphArrays,
        columns: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> "MonteCarloSession":
        """Reattach a session from stored columns without resampling.

        The delay and arrival matrices are copied (the session patches
        them in place); the correlated draws and the cached result samples
        are never mutated, so those keep the read-only (possibly memory-
        mapped) views the store handed over.
        """
        session = cls.__new__(cls)
        graph.enable_journal()
        session._graph = graph
        session._arrays = arrays
        session._num_samples = int(meta["num_samples"])
        session._seed = int(meta["seed"])
        chunk_size = meta.get("chunk_size")
        session._chunk_size = None if chunk_size is None else int(chunk_size)
        session._cache_arrivals = bool(meta["cache_arrivals"])
        session._correlated_draws = np.asarray(
            columns["mc.correlated_draws"], dtype=float
        )
        session._delays = np.array(columns["mc.delays"], dtype=float)
        session._arrivals = (
            np.array(columns["mc.arrivals"], dtype=float)
            if meta.get("has_arrivals")
            else None
        )
        session._dirty_sink_rows = {
            int(row): None for row in columns["mc.dirty_sink_rows"]
        }
        session._needs_full_propagate = bool(meta["needs_full_propagate"])
        session._matrix_serial = int(meta["matrix_serial"])
        if meta.get("has_result"):
            session._result = MonteCarloResult(
                samples=np.asarray(columns["mc.result_samples"], dtype=float),
                elapsed_seconds=float(meta.get("result_elapsed", 0.0)),
            )
            session._result_serial = int(meta["result_serial"])
        else:
            session._result = None
            session._result_serial = -1
        session.last_refresh = None
        session.store_fallback_reason = None
        return session

    def save(self, path) -> None:
        """Persist the session as one revision-keyed store entry."""
        from repro.store import save_montecarlo_session

        save_montecarlo_session(self, path)

    @classmethod
    def load(
        cls, path, graph: Optional[TimingGraph] = None, on_overflow: str = "error"
    ) -> "MonteCarloSession":
        """Restore a session saved by :meth:`save` (see ``repro.store``)."""
        from repro.store import load_montecarlo_session

        return load_montecarlo_session(path, graph=graph, on_overflow=on_overflow)

    # ------------------------------------------------------------------
    # Counter-based sampling
    # ------------------------------------------------------------------
    def _correlated(self) -> np.ndarray:
        """The shared correlated-component draws, ``(1 + K, S)`` (cached).

        Keyed to the seed alone: the correlated variables belong to the
        process, not to any edge, so they survive every graph edit.
        """
        if self._correlated_draws is None:
            rng = np.random.default_rng((self._seed, 0))
            self._correlated_draws = rng.standard_normal(
                (self._arrays.num_corr, self._num_samples)
            )
        return self._correlated_draws

    def _sample_block(self, rows: np.ndarray) -> np.ndarray:
        """Freshly drawn delay samples of the given edge rows, ``(R, S)``.

        Deterministic per edge: the private noise of edge ``edge_id`` comes
        from the stream ``(seed, 1, edge_id)``, so the same edge with the
        same coefficients always samples the same values no matter when —
        or in which refresh — its row is drawn.
        """
        arrays = self._arrays
        block = arrays.edge_corr[rows] @ self._correlated()
        block += arrays.edge_mean[rows, np.newaxis]
        sigma = np.sqrt(np.maximum(arrays.edge_randvar[rows], 0.0))
        for position, row in enumerate(rows):
            if sigma[position] > 0.0:
                noise = np.random.default_rng(
                    (self._seed, 1, int(arrays.edge_ids[row]))
                ).standard_normal(self._num_samples)
                block[position] += sigma[position] * noise
        return block

    def _resample_all(self) -> int:
        num_edges = self._arrays.edge_mean.shape[0]
        self._delays = self._sample_block(np.arange(num_edges, dtype=np.int64))
        self._arrivals = None
        self._dirty_sink_rows = {}
        self._needs_full_propagate = True
        self._matrix_serial += 1
        return num_edges

    # ------------------------------------------------------------------
    # Refresh: sync the sample matrix with the graph journal
    # ------------------------------------------------------------------
    def refresh(self) -> MonteCarloRefresh:
        """Synchronise the cached sample matrix with the graph revision.

        Raises :class:`~repro.errors.TimingGraphError` when the session is
        stale (attached to a graph behind its sync revision).
        """
        if self._delays is None:
            self._arrays.refresh()
            resampled = self._resample_all()
            refresh = MonteCarloRefresh("initial", resampled, self.revision)
            self.last_refresh = refresh
            return refresh

        old_row_of_id = self._arrays.edge_rows  # the pre-refresh dict object
        old_delays = self._delays
        arrays_refresh = self._arrays.refresh()
        delta = arrays_refresh.delta

        if arrays_refresh.kind == "rebuild" or (
            delta is not None and delta.io_changed
        ):
            # Journal overflow / IO designation change: full resample (the
            # counter-based streams make this value-identical for rows
            # whose edge survived unchanged — the fallback costs time, not
            # reproducibility).
            refresh = MonteCarloRefresh("full", self._resample_all(), self.revision)
        elif arrays_refresh.kind == "none":
            refresh = MonteCarloRefresh("noop", 0, self.revision)
        elif arrays_refresh.kind == "delay":
            rows = arrays_refresh.retimed_edge_rows
            if rows is None or rows.shape[0] == 0:
                refresh = MonteCarloRefresh("noop", 0, self.revision)
            else:
                self._delays[rows] = self._sample_block(rows)
                for row in self._arrays.edge_sink[rows]:
                    self._dirty_sink_rows[int(row)] = None
                self._matrix_serial += 1
                refresh = MonteCarloRefresh("rows", rows.shape[0], self.revision)
        else:  # "structure"
            refresh = MonteCarloRefresh(
                "structure", self._migrate(delta, old_row_of_id, old_delays),
                self.revision,
            )
        self.last_refresh = refresh
        return refresh

    def _migrate(self, delta, old_row_of_id: Dict[int, int], old_delays: np.ndarray) -> int:
        """Rebuild the delay matrix through a structural window.

        Surviving, un-retimed edges keep their sampled rows (one vectorized
        gather); added and retimed edges are drawn fresh from their
        counter-based streams, so the migrated matrix is exactly what a
        cold session on the edited graph would sample.  The arrival cache
        is dropped — the levelized schedules changed shape.
        """
        arrays = self._arrays
        num_edges = arrays.edge_mean.shape[0]
        retimed = set(delta.retimed_edges) if delta is not None else set()
        old_rows = np.fromiter(
            (
                -1 if int(edge_id) in retimed
                else old_row_of_id.get(int(edge_id), -1)
                for edge_id in arrays.edge_ids
            ),
            np.int64,
            num_edges,
        )
        keep = old_rows >= 0
        self._delays = np.empty((num_edges, self._num_samples), dtype=float)
        self._delays[keep] = old_delays[old_rows[keep]]
        fresh = np.nonzero(~keep)[0]
        if fresh.shape[0]:
            self._delays[fresh] = self._sample_block(fresh)
        self._arrivals = None
        self._dirty_sink_rows = {}
        self._needs_full_propagate = True
        self._matrix_serial += 1
        return int(fresh.shape[0])

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _chunk(self) -> int:
        return _resolve_chunk_size(
            self._chunk_size, self._arrays, 1, self._num_samples
        )

    def _propagate_full(self) -> np.ndarray:
        """Chunked levelized propagation of the whole cached matrix."""
        arrays = self._arrays
        input_rows = arrays.input_rows
        output_rows = arrays.output_rows
        samples = np.empty(self._num_samples, dtype=float)
        if self._cache_arrivals and (
            self._arrivals is None
            or self._arrivals.shape != (arrays.num_vertices, self._num_samples)
        ):
            self._arrivals = np.empty(
                (arrays.num_vertices, self._num_samples), dtype=float
            )
        chunk_size = self._chunk()
        done = 0
        while done < self._num_samples:
            chunk = min(chunk_size, self._num_samples - done)
            arrivals = _longest_paths_levelized(
                arrays, self._delays[:, done : done + chunk], input_rows
            )
            if self._cache_arrivals:
                self._arrivals[:, done : done + chunk] = arrivals
            samples[done : done + chunk] = arrivals[output_rows].max(axis=0)
            done += chunk
        if not self._cache_arrivals:
            self._arrivals = None
        return samples

    def _propagate_dirty(self, seed_rows: np.ndarray) -> np.ndarray:
        """Recompute only the structural fan-out cone of the retimed edges.

        ``seed_rows`` are the sink rows of the resampled delay rows; every
        vertex reachable from them is recomputed level by level from the
        cached arrivals of its (possibly clean) predecessors — the same
        fold as the full kernel, so the refreshed cache is bit-identical
        to a full repropagation of the patched matrix.
        """
        arrays = self._arrays
        mask = np.zeros(arrays.num_vertices, dtype=bool)
        mask[seed_rows] = True
        edge_source = arrays.edge_source
        is_input = np.zeros(arrays.num_vertices, dtype=bool)
        is_input[arrays.input_rows] = True

        levels = []
        for level in arrays.forward_levels():
            rows = level.vertex_rows
            edge_rows, starts = _level_fanin(arrays, rows)
            dirty = mask[rows]
            incoming = np.logical_or.reduceat(mask[edge_source[edge_rows]], starts)
            dirty |= incoming
            if not dirty.any():
                continue
            mask[rows[dirty]] = True
            rows_d = rows[dirty]
            edge_rows_d, starts_d = _level_fanin(arrays, rows_d)
            levels.append((rows_d, edge_rows_d, starts_d, is_input[rows_d]))

        chunk_size = self._chunk()
        done = 0
        while done < self._num_samples:
            hi = min(done + chunk_size, self._num_samples)
            for rows_d, edge_rows_d, starts_d, seeded in levels:
                candidates = (
                    self._arrivals[edge_source[edge_rows_d], done:hi]
                    + self._delays[edge_rows_d, done:hi]
                )
                reduced = np.maximum.reduceat(candidates, starts_d, axis=0)
                if seeded.any():
                    # Input vertices with fanin keep their 0.0 seed.
                    reduced[seeded] = np.maximum(reduced[seeded], 0.0)
                self._arrivals[rows_d, done:hi] = reduced
            done = hi
        return self._arrivals[arrays.output_rows].max(axis=0)

    def revalidate(self) -> MonteCarloResult:
        """The circuit-delay distribution, re-simulated incrementally.

        Synchronises with the journal first; a no-op window returns the
        cached result without touching the sample matrix, a retime-only
        window resamples the named rows and (with the arrival cache warm)
        repropagates only their structural fan-out cone, anything heavier
        repropagates the patched matrix fully.
        """
        self.refresh()
        if self._result is not None and self._result_serial == self._matrix_serial:
            return self._result
        start = time.perf_counter()
        warm = (
            not self._needs_full_propagate
            and self._cache_arrivals
            and self._arrivals is not None
            and self._dirty_sink_rows
        )
        if warm:
            seed_rows = np.fromiter(
                self._dirty_sink_rows, np.int64, len(self._dirty_sink_rows)
            )
            samples = self._propagate_dirty(seed_rows)
        else:
            samples = self._propagate_full()
        # Arrivals are warm again (when cached): subsequent retime windows
        # may repropagate just their fan-out cone.
        self._dirty_sink_rows = {}
        self._needs_full_propagate = not self._cache_arrivals
        elapsed = time.perf_counter() - start
        self._result = MonteCarloResult(samples=samples, elapsed_seconds=elapsed)
        self._result_serial = self._matrix_serial
        return self._result

    def __repr__(self) -> str:
        return "MonteCarloSession(%r, samples=%d, revision=%d)" % (
            self._graph.name,
            self._num_samples,
            self.revision,
        )
