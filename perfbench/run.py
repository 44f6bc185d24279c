"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_c7552 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json`` (measured
without span recording); with ``--trace 1`` they are its per-layer
metrics, taken from spans recorded around every layer call.  Each run also
appends a record stamped with the environment to
``perfbench/out/records.jsonl``, and a traced run writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The library is imported from ``src/`` of the checkout this file sits in;
the run fails when it is not there.  Everything that runs lives under the
``__main__`` guard, because the sharded workloads spawn pool workers that
import this file.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: numpy asks the kernel for transparent huge pages on large arrays.
#: Whether it gets them depends on how fragmented the host's memory is: in
#: six interleaved runs on a 2-vCPU host the c7552 flow took 15.5-20.1 s
#: with huge pages and 18.9-21.7 s without.  Faster, but less steady, so
#: every run (and every pool worker and child, which inherit the
#: environment) allocates with ordinary pages.  Set before numpy is imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
#: Set-up repeats: the minimum before the first flow, then more while they
#: fit the budget, a slice after each flow and the rest after the last one.
#: The host's speed drifts over seconds, so spreading the repetitions over
#: the run keeps one slow or fast stretch from setting the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_SECONDS = 5.0
SETUP_SLICE_SECONDS = 1.0

#: Span name -> per-layer metric: summed per set-up, median over set-ups.
SETUP_LAYERS = {
    "netlist": "netlist.s",
    "placement": "placement.s",
    "variation": "variation.s",
    "timing.build": "timing.build_s",
    "parallel.start": "parallel.start_s",
}
#: Span name -> per-layer metric: summed per flow, median over flows.
FLOW_LAYERS = {
    "timing.propagate": "timing.propagate_s",
    "allpairs": "allpairs.s",
    "criticality": "criticality.s",
    "extract": "extract.s",
    "mc_io": "mc_io.s",
    "mc": "mc.s",
    "mc_hier.flatten": "mc_hier.flatten_s",
    "hier.replacement": "hier.replacement_s",
    "hier.global_only": "hier.global_only_s",
}
#: Span name -> per-layer metric: median single call, in seconds.
CALL_LAYERS_S = {
    "store.load": "store.load_s",
    "mc.serial_reference": "mc.serial_reference_s",
}
#: Span name -> per-layer metric: median single call, in milliseconds.
CALL_LAYERS_MS = {
    "eco.reextract": "eco.reextract_ms",
    "eco.swap": "eco.swap_ms",
    "eco.query": "eco.query_ms",
    "eco.revalidate_mc": "eco.revalidate_mc_ms",
}


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError("repro was imported from %s, not from %s" % (location, src))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp() -> Dict[str, object]:
    import numpy
    from numpy._core.multiarray import _get_madvise_hugepage

    from repro.core.backend import resolve_backend
    from workloads import source_digest

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = resolve_backend()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(ROOT),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy_blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "numpy_madvise_hugepage": bool(_get_madvise_hugepage()),
        "kernel_backend": backend.backend,
        "kernel_backend_fallback": backend.fallback_reason,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Record:
    """Ops attempted, their latencies and the failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.op_ms: List[float] = []
        self.failures: List[str] = []

    def check(self, label: str, fn: Callable[[], object]):
        """Run one checked unit of work; a raise counts it as failed.

        This is the loop's error boundary: the failure is recorded with
        its traceback and the run goes on to report it.
        """
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - recorded and reported as a failed op
            self.failures.append("%s: %s" % (label, traceback.format_exc(limit=4)))
            return None

    def op(self, label: str, fn: Callable[[], object]):
        """One client request (an eco iteration): checked and timed."""
        start = time.perf_counter()
        result = self.check(label, fn)
        self.op_ms.append(1000.0 * (time.perf_counter() - start))
        return result


def median_of(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def check_counts_repeat(workload, counts: Dict[str, float]) -> None:
    """The structural counts must repeat on a graph rebuilt from scratch."""
    from workloads import check

    with workload.tracer.span("counts.rebuild"):
        workload.setup()
    again = workload.counts()
    check(again == counts, "structural counts changed on a rebuild: %r != %r" % (counts, again))


def layer_metrics(tracer, workload, flows: List[float], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values from the recorded spans plus the workload's facts."""
    from spans import span_cost_seconds

    setups = tracer.roots("setup")
    flow_roots = tracer.roots("flow")
    values: Dict[str, float] = {}

    def median_total(roots, name: str) -> float:
        return median_of([tracer.durations_by_name(root).get(name, 0.0) for root in roots])

    for span_name, metric in SETUP_LAYERS.items():
        values[metric] = median_total(setups, span_name)
    for span_name, metric in FLOW_LAYERS.items():
        values[metric] = median_total(flow_roots, span_name)
    for scale, layers in ((1.0, CALL_LAYERS_S), (1000.0, CALL_LAYERS_MS)):
        for span_name, metric in layers.items():
            calls = [span.duration for span in tracer.spans if span.name == span_name]
            values[metric] = scale * median_of(calls)
    values.update(workload.facts)
    values.update(counts)

    spans_per_flow = median_of([len(tracer.descendants(root)) + 1 for root in flow_roots])
    values["trace.flow_s"] = median_of(flows)
    values["trace.glue_s"] = median_of([tracer.self_time(root) for root in flow_roots])
    values["trace.overhead_s"] = spans_per_flow * span_cost_seconds()
    values["trace.spans_per_flow"] = spans_per_flow
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    from spans import NULL_TRACER, Tracer
    from workloads import SCALES, WORKLOADS

    spec = benchmark_spec()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else NULL_TRACER
    params = dict(SCALES[scale][workload_name], scale=scale)
    workload = WORKLOADS[workload_name](params, seed, tracer, ROOT)
    record = Record()
    setups: List[float] = []
    flows: List[float] = []
    quality: Optional[Dict[str, float]] = None

    def set_up() -> None:
        gc.collect()  # each repetition starts from the same collector state
        with tracer.span("setup"):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

    def set_up_for(budget: float) -> None:
        """Repeat set-up for about ``budget`` seconds, within the run's budget."""
        stop = time.perf_counter() + budget
        while (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
               and time.perf_counter() < stop):
            set_up()

    try:
        workload.prepare_inputs()
        for _ in range(SETUP_MIN_REPEATS):
            set_up()

        # the counts of the set-up state, before the flows edit anything
        counts = workload.counts() if trace else {}

        while True:
            gc.collect()
            with tracer.span("flow"):
                start = time.perf_counter()
                result = record.check("flow", lambda: workload.flow(record))
                flows.append(time.perf_counter() - start)
            if result is None:
                break  # a failed flow is reported, not retried
            quality = result
            if sum(flows) + median_of(flows) > seconds:
                break
            set_up_for(SETUP_SLICE_SECONDS)
        set_up_for(SETUP_SECONDS)
        workload.finish(record)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers: Dict[str, float] = {}
        if trace:
            record.check("counts repeat exactly", lambda: check_counts_repeat(workload, counts))
            layers = layer_metrics(tracer, workload, flows, counts)
    finally:
        workload.close()

    quality = quality or {}
    ok = record.attempted - len(record.failures)
    end_to_end = {
        "setup_s": median_of(setups),
        "flow_s": median_of(flows),
        "peak_rss_mb": peak_rss_mb,
        "mean_err_pct": quality.get("mean_err_pct", 0.0),
        "std_err_pct": quality.get("std_err_pct", 0.0),
        "cdf_gap": quality.get("cdf_gap", 0.0),
        "model_edge_ratio": quality.get("model_edge_ratio", 0.0),
        "ops_ok_frac": ok / float(max(record.attempted, 1)),
    }
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else end_to_end
    metrics = {
        entry["name"]: {"value": float(source.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in listed
    }
    for failure in record.failures:
        print("FAILED " + failure, file=sys.stderr)

    stamp = environment_stamp()
    details = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "env": stamp, "setups": setups, "flows": flows,
        "ops": len(record.op_ms), "failures": record.failures,
        "end_to_end": end_to_end, "per_layer": layers,
    }
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps(details, sort_keys=True) + "\n")
    if trace:
        tracer.write(OUT / ("trace-%s-seed%d.json" % (workload_name, seed)),
                     {"workload": workload_name, "seed": seed, "env": stamp})
    print(json.dumps({"env": stamp, "ops": len(record.op_ms), "flows": len(flows)}))
    return {
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": metrics,
    }


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker, if a pool started one, and reap it.

    Left alone, the tracker only exits once this process has gone, so the
    run would end with a live child.  ``_stop`` is the standard library's
    own shutdown path (private, hence the guard).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--prepare", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import SCALES, WORKLOADS, Eco

    if args.prepare:
        # the eco bundle, written by a child process (see Eco.prepare)
        from spans import NULL_TRACER

        if args.workload != Eco.name:
            parser.error("--prepare is only for %s" % Eco.name)
        params = dict(SCALES[args.scale][Eco.name], scale=args.scale)
        Eco(params, args.seed, NULL_TRACER, ROOT).prepare(Path(args.prepare))
        return 0
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
