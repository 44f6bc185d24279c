"""Exact work counts computed from graph structure alone.

Every figure here is a pure function of the timing graph (and, for the
Monte Carlo state, of the public chunk-size rule), so it repeats exactly
from run to run and between commits that leave the graph alone.  Byte
figures are computed from array shapes, not measured, and are named
``*_computed`` where the metric name would otherwise suggest a
measurement.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.montecarlo.flat import auto_chunk_size
from repro.timing.arrays import GraphArrays

FLOAT_BYTES = 8


def _fold_reach(levels, edge_from: np.ndarray, seeds: np.ndarray, num_vertices: int) -> np.ndarray:
    """``(V, len(seeds))`` reachability folded level by level."""
    reach = np.zeros((num_vertices, seeds.shape[0]), dtype=bool)
    reach[seeds, np.arange(seeds.shape[0])] = True
    for level in levels:
        rows = level.vertex_rows
        for round_index, count in enumerate(level.round_counts):
            edges = level.edge_matrix[:count, round_index]
            reach[rows[:count]] |= reach[edge_from[edges]]
    return reach


def structural_counts(
    arrays: GraphArrays, mc_io_samples: int
) -> Tuple[Dict[str, float], np.ndarray]:
    """All-pairs, criticality and multi-source Monte Carlo work counts.

    Returns the counts and the ``(I, O)`` mask of structurally connected
    input/output pairs.
    """
    num_edges = int(arrays.edge_source.shape[0])
    num_vertices = int(arrays.num_vertices)
    inputs = arrays.input_rows
    outputs = arrays.output_rows
    num_inputs, num_outputs = int(inputs.shape[0]), int(outputs.shape[0])

    from_inputs = _fold_reach(arrays.forward_levels(), arrays.edge_source, inputs, num_vertices)
    to_outputs = _fold_reach(arrays.backward_levels(), arrays.edge_sink, outputs, num_vertices)
    inputs_reaching = from_inputs.sum(axis=1, dtype=np.int64)
    outputs_reached = to_outputs.sum(axis=1, dtype=np.int64)

    terms = num_edges * num_inputs * num_outputs
    valid_terms = int(
        np.dot(inputs_reaching[arrays.edge_source], outputs_reached[arrays.edge_sink])
    )
    chunk = auto_chunk_size(num_edges, num_vertices, num_inputs, mc_io_samples)
    counts = {
        # one fold per (edge, input column) forward and (edge, output column) backward
        "allpairs.edge_folds": float(num_edges * (num_inputs + num_outputs)),
        "criticality.terms": float(terms),
        "criticality.valid_frac": valid_terms / float(terms),
        "mc_io.reachable_frac": float(from_inputs.sum()) / float(num_vertices * num_inputs),
        # the (V, I, chunk) arrival tensor of one multi-source chunk
        "mc_io.state_bytes_computed": float(num_vertices * num_inputs * chunk * FLOAT_BYTES),
    }
    return counts, from_inputs[outputs].T
