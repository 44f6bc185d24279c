"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload is a closed loop with one client: the next request is sent
only after the previous one has been answered.  A workload object has

* ``prepare_inputs()`` — untimed one-off preparation (the eco bundle);
* ``setup()`` — everything before the first analysis call (netlist,
  placement, variation, graph build, pool start, store load), repeated by
  the driver so set-up time is a median;
* ``flow(record)`` — one timed repetition of the analysis calls.  Its
  requests ("ops") are reported to ``record`` with their latency and any
  failed correctness check;
* ``finish(record)`` — correctness checks after the timed phase;
* ``counts()`` — exact structural work counts (traced runs only);
* ``close()`` — releases pools.

Every layer call sits in a tracer span named after the per-layer metric
it feeds (``allpairs`` feeds ``allpairs.s``, and so on).  The eco what-if
loop (``Eco``) is not a workload of its own: its run-to-run spread was
wider than any bound, so one batch of it runs in fig7's traced runs and
feeds only per-layer metrics.  The Monte Carlo
accuracy references use the paper configuration's fixed seed
(``DEFAULT_CONFIG.seed``), so the accuracy metrics compare one reference
across runs and commits; ``--seed`` drives what a user of each flow
varies (see ``BENCHMARK.json`` and ``README.md``).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.distributions import EmpiricalDistribution
from repro.analysis.metrics import max_cdf_gap, max_relative_matrix_error, relative_error
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.figure7 import MultiplierModule, build_multiplier_design
from repro.hier.analysis import CorrelationMode, DesignTimer, analyze_hierarchical_design
from repro.liberty.library import standard_library
from repro.model.criticality import compute_edge_criticalities
from repro.model.extraction import extract_timing_model
from repro.model.reduction import reduce_graph
from repro.model.serialization import load_timing_model, save_timing_model
from repro.montecarlo.flat import MonteCarloSession, simulate_graph_delay, simulate_io_delays
from repro.montecarlo.hierarchical import build_flat_timing_graph
from repro.netlist.generators import design_for_edge_count
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.parallel.pool import ShardedExecutor
from repro.placement.placer import Placement, place_netlist
from repro.timing.allpairs import AllPairsTiming
from repro.timing.arrays import GraphArrays
from repro.timing.builder import build_timing_graph, synthetic_timing_graph
from repro.timing.propagation import circuit_delay, propagate_arrival_times_batch
from repro.variation.grid import GridPartition
from repro.variation.model import VariationModel

from counts import structural_counts

#: Seed of every Monte Carlo accuracy reference (the paper configuration's).
REFERENCE_SEED = DEFAULT_CONFIG.seed
#: Generator seed of the ladder design (the scaling benchmark's).
LADDER_DESIGN_SEED = 13
#: Relative and absolute tolerance of the repo's engine parity contract.
PARITY_TOL = 1e-9
#: Extraction threshold of the eco loop's alternative block model: the
#: "more aggressively compressed" candidate of examples/incremental_eco.py
#: and benchmarks/bench_incremental.py.
ALTERNATIVE_THRESHOLD = 0.2

#: Workload sizes.  ``full`` is the benchmark; ``tiny`` is the smoke size
#: the self-test runs.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "table1_c7552": {"circuit": "c7552", "samples": 2000},
        "fig7_mult16": {"bits": 16, "samples": 10000},
        "ladder_1e5": {"edges": 100_000, "samples": 2000, "workers": 2},
        # the eco batch of fig7's traced runs
        "eco_mult16": {"bits": 16, "samples": 2000, "rounds": 16},
    },
    "tiny": {
        "table1_c7552": {"circuit": "c432", "samples": 256},
        "fig7_mult16": {"bits": 4, "samples": 512},
        "ladder_1e5": {"edges": 3000, "samples": 256, "workers": 2},
        "eco_mult16": {"bits": 6, "samples": 256, "rounds": 4},
    },
}


class OpFailed(Exception):
    """A correctness check of one op failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def finite(*values: float) -> bool:
    return all(math.isfinite(float(value)) for value in values)


def check_map_report(report, what: str, sharded: bool = True) -> None:
    """A sharded call must finish on the pool without any recovery action.

    A degraded or timed-out run still returns bit-identical samples, only
    slower: it is exactly the silent failure mode of a driver that spawned
    workers cannot import, so it fails the op instead of passing as a slow
    success.  ``sharded=False`` accepts a serial run (no report), as when
    no worker count is configured.
    """
    if report is None:
        check(not sharded, "%s ran serially: no MapReport (pool unavailable)" % what)
        return
    check(
        report.clean and report.fallback_reason is None,
        "%s needed recovery: %r" % (what, report),
    )


def gaussian_accuracy(mean: float, std: float, samples: np.ndarray) -> Dict[str, float]:
    """Errors of a Gaussian delay estimate against Monte Carlo samples."""
    distribution = EmpiricalDistribution(samples)
    return {
        "mean_err_pct": 100.0 * relative_error(mean, float(np.mean(samples))),
        "std_err_pct": 100.0 * relative_error(std, float(np.std(samples, ddof=1))),
        "cdf_gap": max_cdf_gap(distribution, mean, std),
    }


def characterize(tracer, library, netlist_fn, name: str):
    """Netlist, placement, variation and graph build, as Table I does."""
    config = DEFAULT_CONFIG
    with tracer.span("netlist"):
        netlist = netlist_fn()
    with tracer.span("placement"):
        placement = place_netlist(netlist, library)
    with tracer.span("variation"):
        partition = GridPartition.for_cell_count(
            placement.die, netlist.num_gates, config.max_cells_per_grid
        )
        variation = VariationModel(
            partition,
            config.correlation(),
            config.sigma_fraction(),
            config.random_variance_share,
        )
    with tracer.span("timing.build"):
        graph = build_timing_graph(netlist, library, placement, variation, name=name)
    return netlist, placement, variation, graph


def timed(tracer, name: str, fn):
    """``fn()`` inside a span, plus its wall time in seconds."""
    with tracer.span(name):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    return result, elapsed


class Workload:
    """Shared plumbing; subclasses implement ``setup`` and ``flow``."""

    name = ""

    def __init__(self, params: Dict[str, object], seed: int, tracer, root: Path) -> None:
        self.params = params
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.library = standard_library()
        #: Per-layer values that are not span times (counts, ratios, bytes).
        self.facts: Dict[str, float] = {}
        self._observed: Dict[str, List[float]] = {}

    def observe(self, name: str, value: float) -> None:
        """Record one flow's value of a per-layer rate; the fact is the median."""
        series = self._observed.setdefault(name, [])
        series.append(value)
        self.facts[name] = float(np.median(series))

    def prepare_inputs(self) -> None:
        """Untimed preparation before the first set-up (like a build)."""

    def finish(self, record) -> None:
        pass

    def counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class Table1(Workload):
    """One Table I row: characterize, all-pairs, criticality, extract, MC."""

    name = "table1_c7552"

    def setup(self) -> None:
        circuit = str(self.params["circuit"])
        _, _, self.variation, self.graph = characterize(
            self.tracer, self.library, lambda: iscas85_surrogate(circuit), circuit
        )

    def flow(self, record) -> Dict[str, float]:
        tracer, graph, samples = self.tracer, self.graph, int(self.params["samples"])
        with tracer.span("allpairs"):
            analysis = AllPairsTiming.analyze(graph)
        with tracer.span("criticality"):
            criticalities = compute_edge_criticalities(graph, analysis)
        with tracer.span("extract"):
            model = extract_timing_model(
                graph,
                self.variation,
                DEFAULT_CONFIG.criticality_threshold,
                analysis=analysis,
                criticalities=criticalities,
            )
        io, io_seconds = timed(
            tracer, "mc_io", lambda: simulate_io_delays(graph, samples, seed=REFERENCE_SEED)
        )
        with tracer.span("timing.propagate"):
            model_delay = circuit_delay(model.graph)
        mc, mc_seconds = timed(
            tracer, "mc", lambda: simulate_graph_delay(graph, samples, seed=REFERENCE_SEED)
        )

        self.io_valid = io.valid
        stats = model.stats
        self.facts["allpairs.bytes"] = float(analysis.nbytes_report()["total"])
        self.facts["extract.model_edges"] = float(stats.model_edges)
        self.observe("mc_io.samples_per_s", samples / io_seconds)
        self.observe("mc.edge_samples_per_s", graph.num_edges * samples / mc_seconds)
        quality = gaussian_accuracy(model_delay.mean, model_delay.std, mc.samples)
        quality.update({
            # Table I's merr/verr: worst relative error over the I/O pairs
            "mean_err_pct": 100.0 * max_relative_matrix_error(model.delay_matrix_means(), io.means),
            "std_err_pct": 100.0 * max_relative_matrix_error(model.delay_matrix_stds(), io.stds),
            "model_edge_ratio": stats.edge_ratio,
        })
        check(finite(*quality.values()), "non-finite accuracy %r" % quality)
        check(stats.model_edges <= stats.original_edges, "model larger than circuit")
        check(bool(np.isfinite(io.means[io.valid]).all()), "non-finite MC I/O means")
        check_map_report(io.map_report, "simulate_io_delays", sharded=False)
        check_map_report(mc.map_report, "simulate_graph_delay", sharded=False)
        return quality

    def counts(self) -> Dict[str, float]:
        arrays = GraphArrays.from_graph(self.graph)
        counts, _ = structural_counts(arrays, int(self.params["samples"]))
        counts["timing.arrays_bytes"] = float(arrays.nbytes_report()["total"])
        return counts

    def finish(self, record) -> None:
        def reachability() -> None:
            _, pair_valid = structural_counts(
                GraphArrays.from_graph(self.graph), int(self.params["samples"])
            )
            check(np.array_equal(self.io_valid, pair_valid),
                  "simulate_io_delays valid mask differs from graph reachability")

        record.check("mc_io valid mask is consistent with structural reachability", reachability)


# ----------------------------------------------------------------------
class Fig7(Workload):
    """Fig. 7: extract the module, hierarchical analysis, flattened MC.

    A traced run then runs one eco batch (see ``Eco``) on the same design,
    warm-loaded from its store bundle, for the eco and store layers.
    """

    name = "fig7_mult16"

    def setup(self) -> None:
        bits = int(self.params["bits"])
        name = "mult%d" % bits
        self.netlist, self.placement, self.variation, self.graph = characterize(
            self.tracer, self.library, lambda: array_multiplier(bits, name=name), name
        )

    def flow(self, record) -> Dict[str, float]:
        tracer, samples = self.tracer, int(self.params["samples"])
        with tracer.span("extract"):
            model = extract_timing_model(
                self.graph, self.variation, DEFAULT_CONFIG.criticality_threshold
            )
        design = build_multiplier_design(
            MultiplierModule(self.netlist, self.placement, self.variation, model, 0.0)
        )
        with tracer.span("hier.replacement"):
            proposed = analyze_hierarchical_design(design, CorrelationMode.REPLACEMENT)
        with tracer.span("hier.global_only"):
            global_only = analyze_hierarchical_design(design, CorrelationMode.GLOBAL_ONLY)
        # monte_carlo_hierarchical is exactly these two public calls; they
        # are made separately so the flattening gets its own span.
        with tracer.span("mc_hier.flatten"):
            flat = build_flat_timing_graph(design, self.library)
        mc, mc_seconds = timed(
            tracer, "mc", lambda: simulate_graph_delay(flat, samples, seed=REFERENCE_SEED)
        )

        stats = model.stats
        self.facts["extract.model_edges"] = float(stats.model_edges)
        self.observe("mc.edge_samples_per_s", flat.num_edges * samples / mc_seconds)
        quality = gaussian_accuracy(proposed.mean, proposed.std, mc.samples)
        quality["model_edge_ratio"] = stats.edge_ratio
        check(finite(*quality.values()), "non-finite accuracy %r" % quality)
        check(finite(global_only.mean, global_only.std), "non-finite global-only result")
        check(stats.model_edges <= stats.original_edges, "model larger than module")
        return quality

    def finish(self, record) -> None:
        if not self.tracer.enabled:
            return
        params = dict(SCALES[str(self.params["scale"])][Eco.name], scale=self.params["scale"])
        eco = Eco(params, self.seed, self.tracer, self.root)
        with self.tracer.span("eco"):
            eco.prepare_inputs()
            eco.setup()
            record.check("eco batch", lambda: eco.flow(record))
            eco.finish(record)
        for name in ("store.bytes_read", "incremental.cone_frac", "eco.mc_retimed_edges"):
            self.facts[name] = eco.facts.get(name, 0.0)
        self.facts["eco.iteration_ms"] = float(np.median(record.op_ms)) if record.op_ms else 0.0

    def counts(self) -> Dict[str, float]:
        arrays = GraphArrays.from_graph(self.graph)
        return {"timing.arrays_bytes": float(arrays.nbytes_report()["total"])}


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EcoRound:
    """One what-if iteration of the eco loop (see ``Eco``)."""

    pair: Tuple[str, str]  # interchangeable gates of the source instance
    instance: str  # instance that tries the alternative model


def exchange_candidates(netlist, placement, partition, slices: int) -> List[List[Tuple[str, str]]]:
    """Pairs of interchangeable gates in different variation grids, per slice.

    Two gates are interchangeable when they map to the same library cell
    with the same fan-out: their arcs then have the same nominal delays,
    and exchanging their placements exchanges exactly their grids.  The
    gates are split into ``slices`` equal runs of topological order; an
    edit's cost depends on where its gates sit in that order, so taking
    one pair from each run keeps a batch's work alike from seed to seed.
    A run without a pair draws from every pair.
    """
    gates = [g for g in netlist.topological_gate_order() if len(set(g.inputs)) == len(g.inputs)]
    keys = [(g.function, g.num_inputs, netlist.fanout_count(g.output)) for g in gates]
    grids = [partition.grid_index_at(*placement.location(g.name)) for g in gates]
    runs = []
    for run in np.array_split(np.arange(len(gates)), slices):
        runs.append([
            (gates[i].name, gates[j].name)
            for n, i in enumerate(run) for j in run[n + 1:]
            if keys[i] == keys[j] and grids[i] != grids[j]
        ])
    every = [pair for run in runs for pair in run]
    if not every:
        raise ValueError("%s has no interchangeable gates in different grids" % netlist.name)
    return [run or every for run in runs]


def eco_rounds(seed: int, batch: int, candidates: Sequence[Sequence[Tuple[str, str]]],
               instances: Sequence[str]) -> List[EcoRound]:
    """The seeded iterations of one eco batch: one per candidate run.

    The seed picks each run's pair, the instance each iteration swaps
    (every instance in turn when there are as many runs as instances) and
    the order of the iterations.
    """
    rng = np.random.default_rng([seed, batch])
    swaps = list(instances)
    rng.shuffle(swaps)
    rounds = [
        EcoRound(tuple(run[int(rng.integers(len(run)))]), swaps[index % len(swaps)])
        for index, run in enumerate(candidates)
    ]
    return [rounds[index] for index in rng.permutation(len(rounds))]


def source_digest(root: Path) -> str:
    """Hash of the library and benchmark sources (keys the eco bundle cache)."""
    digest = hashlib.sha256()
    for base in ("src/repro", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Eco(Workload):
    """What-if loop on a warm-loaded DesignTimer bundle of the Fig. 7 design.

    Not a workload of its own: fig7's traced runs run one batch of it.
    One client op is one iteration that runs every op kind of the loop
    once, so its latency describes a single kind of request:

    1. module edit: exchange the placements of two interchangeable gates
       of instance ``m0_0`` (a placement ECO).  Their module-graph edges
       are retimed, ``reextract_instance`` installs the re-extracted model
       together with the edited placement, and the design is queried;
    2. ``revalidate_monte_carlo``: the re-flattened design differs from the
       session graph by the exchanged gates' delays, so the session
       redraws those rows and repropagates their cone;
    3. block swap: one instance tries the alternative model, is queried,
       swaps back and is queried again, which must restore the delay.

    The exchanges of a batch accumulate.  The batch ends by reverting
    them all, which must give back the loaded design delay.
    """

    name = "eco_mult16"
    source_instance = "m0_0"

    def _netlist(self):
        bits = int(self.params["bits"])
        return array_multiplier(bits, name="mult%d" % bits)

    def prepare(self, target: Path) -> None:
        """Write the bundle the set-up loads (runs in a child process)."""
        netlist, placement, variation, graph = characterize(
            self.tracer, self.library, self._netlist, "mult%d" % int(self.params["bits"])
        )
        model = extract_timing_model(graph, variation, DEFAULT_CONFIG.criticality_threshold)
        alternative = extract_timing_model(
            graph.copy(), variation, ALTERNATIVE_THRESHOLD, name=netlist.name + "_alt"
        )
        design = build_multiplier_design(
            MultiplierModule(netlist, placement, variation, model, 0.0)
        )
        timer = DesignTimer(design)
        timer.circuit_delay()
        source = build_timing_graph(netlist, self.library, placement, variation, name=netlist.name)
        timer.attach_module_source(self.source_instance, source, variation).extract(
            DEFAULT_CONFIG.criticality_threshold
        )
        timer.revalidate_monte_carlo(
            int(self.params["samples"]), REFERENCE_SEED, library=self.library
        )
        target.mkdir(parents=True)
        save_timing_model(model, target / "model.json")
        save_timing_model(alternative, target / "alternative.json")
        timer.save(target / "bundle")

    def _bundle_dir(self) -> Path:
        """The prepared bundle, written by a child process on first use."""
        cache = self.root / "perfbench" / "out" / "cache"
        key = "%s-%s-%s" % (
            self.name, self.params["bits"], source_digest(self.root)[:16]
        )
        target = cache / key
        if not (target / "bundle" / "design.npz").exists():
            for stale in cache.glob("%s-%s-*" % (self.name, self.params["bits"])):
                shutil.rmtree(stale, ignore_errors=True)
            staging = cache / (key + ".tmp")
            shutil.rmtree(staging, ignore_errors=True)
            subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", self.name, "--prepare", str(staging),
                 "--scale", self.params["scale"]],
                check=True, timeout=600,
            )
            staging.rename(target)
        return target

    def prepare_inputs(self) -> None:
        self.prepared = self._bundle_dir()
        netlist = self._netlist()
        self.candidates = exchange_candidates(
            netlist,
            place_netlist(netlist, self.library),
            load_timing_model(self.prepared / "model.json").variation.partition,
            int(self.params["rounds"]),
        )

    def setup(self) -> None:
        prepared = self.prepared
        with self.tracer.span("netlist"):
            self.netlist = self._netlist()
        with self.tracer.span("placement"):
            self.placement = place_netlist(self.netlist, self.library)
        with self.tracer.span("store.load"):
            model = load_timing_model(prepared / "model.json")
            self.alternative = load_timing_model(prepared / "alternative.json")
            self.design = build_multiplier_design(
                MultiplierModule(self.netlist, self.placement, model.variation, model, 0.0)
            )
            self.timer = DesignTimer.load(prepared / "bundle", self.design, library=self.library)
        self.facts["store.bytes_read"] = float(
            sum(path.stat().st_size for path in prepared.rglob("*") if path.is_file())
        )
        self.locations = dict(self.placement.locations)
        self.applied: List[Tuple[str, str]] = []

    def _query(self, cones: List[float]):
        with self.tracer.span("eco.query"):
            delay = self.timer.circuit_delay()
        stats = self.timer.timer.last_update
        cones.append(
            stats.forward_recomputed / self.timer.graph.num_vertices if stats else 0.0
        )
        check(finite(delay.mean, delay.std), "non-finite design delay")
        return delay

    def _gate_edges(self, source, gate_name: str):
        gate = self.netlist.gate(gate_name)
        fanin = {edge.source: edge for edge in source.fanin_edges(gate.output)}
        return [fanin[net] for net in gate.inputs]

    def _exchange(self, pair: Tuple[str, str]) -> None:
        """Exchange two interchangeable gates' placements in the module graph.

        Each gate's arcs take the other's delay forms, which is what
        re-characterizing the module at the exchanged placement gives.
        Exchanging a pair twice restores it.
        """
        source = self.timer.extraction_session(self.source_instance).graph
        first, second = (self._gate_edges(source, name) for name in pair)
        check(any(a.delay != b.delay for a, b in zip(first, second)),
              "exchanging %s and %s changes no delay" % pair)
        for a, b in zip(first, second):
            delay_a, delay_b = a.delay, b.delay
            source.replace_edge_delay(a, delay_b)
            source.replace_edge_delay(b, delay_a)
        x, y = pair
        self.locations[x], self.locations[y] = self.locations[y], self.locations[x]

    def _reextract(self) -> None:
        """Re-extract the edited module; the instance takes the edited
        placement too, so the flattened design (the Monte Carlo ground
        truth) sees the same edit."""
        with self.tracer.span("eco.reextract"):
            self.timer.reextract_instance(
                self.source_instance,
                netlist=self.netlist,
                placement=Placement(self.placement.die, self.locations),
            )

    def _revalidate(self):
        session = self.timer.monte_carlo_session
        revision = session.graph.revision
        with self.tracer.span("eco.revalidate_mc"):
            mc = self.timer.revalidate_monte_carlo(
                int(self.params["samples"]), REFERENCE_SEED, library=self.library
            )
        check(self.timer.monte_carlo_session is session, "the Monte Carlo session was rebound")
        delta = session.graph.changes_since(revision)
        retimed = len(delta.retimed_edges) if delta is not None else 0
        check(retimed > 0, "the Monte Carlo session saw no edit")
        self.retimed.append(retimed)
        check(bool(np.isfinite(mc.samples).all()), "non-finite MC samples")
        check_map_report(mc.map_report, "revalidate_monte_carlo", sharded=False)
        return mc

    def _round(self, round_: EcoRound, cones: List[float]) -> None:
        timer = self.timer
        self._exchange(round_.pair)
        self.applied.append(round_.pair)
        self._reextract()
        edited = self._query(cones)
        self._revalidate()

        instance = self.design.instance(round_.instance)
        current, views = instance.model, {"netlist": instance.netlist, "placement": instance.placement}
        with self.tracer.span("eco.swap"):
            timer.swap_instance_model(round_.instance, self.alternative, **views)
        self._query(cones)
        with self.tracer.span("eco.swap"):
            timer.swap_instance_model(round_.instance, current, **views)
        after = self._query(cones)
        check(after.is_close(edited, rtol=PARITY_TOL, atol=PARITY_TOL),
              "swap-back did not restore the design delay")

    def _restore(self, loaded, cones: List[float]) -> None:
        """Revert the batch's exchanges; the loaded design delay must return."""
        for pair in reversed(self.applied):
            self._exchange(pair)
        self.applied.clear()
        self._reextract()
        restored = self._query(cones)
        check(restored.is_close(loaded, rtol=PARITY_TOL, atol=PARITY_TOL),
              "reverting the exchanges did not restore the design delay")
        self._revalidate()

    def _rounds(self, batch: int) -> List[EcoRound]:
        return eco_rounds(self.seed, batch, self.candidates,
                          [instance.name for instance in self.design.instances])

    def flow(self, record) -> None:
        """One batch: an iteration per candidate run, then the revert."""
        cones: List[float] = []
        self.retimed: List[int] = []
        loaded = self.timer.circuit_delay()
        for round_ in self._rounds(0):
            record.op("round", lambda: self._round(round_, cones))
        record.check("reverting a batch restores the loaded design",
                     lambda: self._restore(loaded, cones))
        self.facts["incremental.cone_frac"] = float(np.mean(cones)) if cones else 0.0
        self.facts["eco.mc_retimed_edges"] = float(np.median(self.retimed)) if self.retimed else 0.0

    def finish(self, record) -> None:
        """Warm state against cold analyses, on a design left edited."""
        self.retimed = []

        def timing_parity() -> None:
            self._exchange(self._rounds(0)[0].pair)
            self._reextract()
            cold = DesignTimer(self.design, mode=self.timer.mode)
            warm_arrivals = self.timer.output_arrivals()
            cold_arrivals = cold.output_arrivals()
            check(warm_arrivals.keys() == cold_arrivals.keys(), "output sets differ")
            for output, arrival in cold_arrivals.items():
                check(warm_arrivals[output].is_close(arrival, rtol=PARITY_TOL, atol=PARITY_TOL),
                      "warm arrival at %s differs from a cold DesignTimer" % output)

        def monte_carlo_parity() -> None:
            warm = self._revalidate()
            cold = MonteCarloSession(
                build_flat_timing_graph(self.design, self.library),
                num_samples=int(self.params["samples"]),
                seed=REFERENCE_SEED,
            ).revalidate()
            check(np.array_equal(cold.samples, warm.samples),
                  "warm Monte Carlo samples differ from a cold session")

        record.check("edited warm timer matches a cold DesignTimer", timing_parity)
        record.check("edited warm Monte Carlo matches a cold session", monte_carlo_parity)



# ----------------------------------------------------------------------
class Ladder(Workload):
    """The 10^5-edge generated pipeline: propagation, all-pairs, sharded MC."""

    name = "ladder_1e5"

    def setup(self) -> None:
        self.close()
        edges = int(self.params["edges"])
        with self.tracer.span("netlist"):
            netlist = design_for_edge_count("pipeline", edges, seed=LADDER_DESIGN_SEED)
        with self.tracer.span("timing.build"):
            self.graph = synthetic_timing_graph(netlist, seed=LADDER_DESIGN_SEED)
            self.arrays = GraphArrays.from_graph(self.graph)
            self.arrays.forward_levels()
        with self.tracer.span("parallel.start"):
            self.executor = ShardedExecutor(int(self.params["workers"]), engine="process")
            _, report = self.executor.run_with_report(
                "worker_probe", [{"env": {}}] * self.executor.workers
            )
        self.probe_report = report

    def flow(self, record) -> Dict[str, float]:
        check_map_report(self.probe_report, "pool start-up probe")
        tracer, graph, arrays = self.tracer, self.graph, self.arrays
        samples = int(self.params["samples"])
        times, propagate_seconds = timed(
            tracer, "timing.propagate", lambda: propagate_arrival_times_batch(graph, None, arrays)
        )
        rows = [row for row in arrays.output_rows if times.valid[row]]
        delay = times.batch.gather(rows).max_over()
        with tracer.span("allpairs"):
            analysis = AllPairsTiming.analyze(graph, engine="blocked")
        mc, mc_seconds = timed(
            tracer, "mc",
            lambda: simulate_graph_delay(
                graph, samples, seed=REFERENCE_SEED, arrays=arrays, executor=self.executor
            ),
        )
        with tracer.span("extract"):
            # the lossless serial/parallel reduction; criticality pruning
            # (about 1.25e9 terms here) is out of this workload's budget
            reduced = graph.copy()
            reduce_graph(reduced)

        self.samples = mc.samples
        report = mc.map_report
        self.facts["allpairs.bytes"] = float(analysis.nbytes_report()["total"])
        self.facts["extract.model_edges"] = float(reduced.num_edges)
        self.observe("timing.propagate_edges_per_s", graph.num_edges / propagate_seconds)
        self.observe("mc.edge_samples_per_s", graph.num_edges * samples / mc_seconds)
        self.observe("parallel.dispatch_s", mc_seconds)
        if report is not None:
            for field in ("retries", "timeouts", "respawns", "degraded"):
                self.facts["parallel." + field] = float(getattr(report, field))
        check_map_report(report, "sharded simulate_graph_delay")
        quality = gaussian_accuracy(delay.mean, delay.std, mc.samples)
        quality["model_edge_ratio"] = reduced.num_edges / float(graph.num_edges)
        check(finite(*quality.values()), "non-finite accuracy %r" % quality)
        check(bool(analysis.matrix_valid.any()), "all-pairs matrix has no valid pair")
        check(reduced.num_edges <= graph.num_edges, "reduction grew the graph")
        return quality

    def finish(self, record) -> None:
        if not self.tracer.enabled:
            return

        def serial_reference() -> None:
            serial, serial_seconds = timed(
                self.tracer, "mc.serial_reference",
                lambda: simulate_graph_delay(
                    self.graph, int(self.params["samples"]), seed=REFERENCE_SEED,
                    arrays=self.arrays,
                ),
            )
            self.facts["parallel.efficiency"] = serial_seconds / (
                self.executor.workers * self.facts["parallel.dispatch_s"]
            )
            check(np.array_equal(serial.samples, self.samples),
                  "sharded samples differ from serial samples")

        record.check("sharded samples equal serial samples", serial_reference)

    def counts(self) -> Dict[str, float]:
        counts, _ = structural_counts(self.arrays, int(self.params["samples"]))
        return {
            "allpairs.edge_folds": counts["allpairs.edge_folds"],
            "timing.arrays_bytes": float(self.arrays.nbytes_report()["total"]),
        }

    def close(self) -> None:
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()
            self.executor = None


WORKLOADS = {cls.name: cls for cls in (Table1, Fig7, Ladder)}
