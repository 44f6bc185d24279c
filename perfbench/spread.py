"""Run a workload on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload fig7_mult16 --seeds 1-10 [--trace 0]

Each seed is one fresh ``run.py`` process with the ``run_seconds`` of
``BENCHMARK.json``.  For every metric the script prints the median and
the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of the median; for an
end-to-end metric it also prints that share against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / abs(median)
        else:
            share = 0.0
        line = "%-32s median %-14.6g spread %.4f" % (name, median, share)
        if bounds.get(name):
            line += "  (bound %.2f, %.0f%% of it)" % (bounds[name], 100 * share / bounds[name])
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
