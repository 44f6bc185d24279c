"""Nopython-style kernel bodies of the compiled backend tier.

Every function in this module is written in the numba ``nopython`` subset —
plain loops, scalar ``math`` calls and pre-allocated array arguments, no
fancy indexing, no Python objects — but is **not** decorated: the registry
(:mod:`repro.core.backend.registry`) applies ``numba.njit(cache=True,
fastmath=False, nogil=True)`` lazily when the numba tier resolves.  Undecorated, each
kernel is an ordinary (slow) Python function, which is exactly what the
parity suites exercise when numba is absent: the kernel *logic* is tested
everywhere, compilation is an optional accelerator.

Numerical contract
------------------
The scalar arithmetic replays the numpy kernels' operation order step for
step (see :func:`repro.core.batch.clark_max_into`), so results agree to the
package-wide 1e-9 parity contract.  Two deliberate deviations from bitwise
equality exist and are bounded well below that contract:

* the normal CDF is evaluated as ``0.5 * erfc(-x / sqrt(2))`` (the scalar
  path of :mod:`repro.core.gaussian`) instead of ``scipy.special.ndtr`` —
  ulp-level differences (likewise scalar ``math.exp`` in the PDF against
  numpy's vector ``exp``: up to 1 ulp apart);
* loop accumulations (variances, covariances) sum sequentially where numpy
  ``einsum``/BLAS sum pairwise — round-off on the order of 1e-16 relative.

The Monte Carlo kernel uses only exact ``+``/``max`` arithmetic and is
therefore **bitwise** identical to the numpy engines for any fold order.

The fused fold consumes the flat vertex-grouped schedule of
:mod:`repro.core.backend.schedule`: per vertex it folds the fanin (or
fanout) candidates sequentially in CSR order — the identical per-vertex
merge sequence as the round-based numpy engine, whose rounds are just a
cross-vertex vectorization of the same per-vertex left fold.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "clark_max_into_kernel",
    "criticality_chunk_terms_kernel",
    "fold_levels_kernel",
    "mc_longest_paths_kernel",
    "merge_max_with_validity_into_kernel",
    "normal_cdf_into_kernel",
    "normal_pdf_into_kernel",
]

_THETA_EPSILON = 1e-12
_THETA_RELATIVE_EPSILON = 1e-12
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf_into_kernel(x, out):
    """Standard normal CDF of a 1-D batch, written into ``out``."""
    for i in range(x.shape[0]):
        out[i] = 0.5 * math.erfc(-x[i] / _SQRT2)


def normal_pdf_into_kernel(x, out):
    """Standard normal PDF of a 1-D batch, written into ``out``."""
    for i in range(x.shape[0]):
        out[i] = _INV_SQRT_2PI * math.exp((-0.5 * x[i]) * x[i])


def clark_max_into_kernel(
    mean_a, corr_a, randvar_a, mean_b, corr_b, randvar_b,
    out_mean, out_corr, out_randvar,
):
    """Clark maximum of two 1-D batches, written into ``out_*``.

    Scalar replay of :func:`repro.core.batch.clark_max_into` (without the
    workspace — all temporaries are scalars).  ``corr_*`` are ``(N, K)``.
    """
    n = mean_a.shape[0]
    width = corr_a.shape[1]
    for i in range(n):
        ma = mean_a[i]
        mb = mean_b[i]
        var_a = 0.0
        var_b = 0.0
        cov = 0.0
        for k in range(width):
            ca = corr_a[i, k]
            cb = corr_b[i, k]
            var_a += ca * ca
            var_b += cb * cb
            cov += ca * cb
        var_a += randvar_a[i]
        var_b += randvar_b[i]
        theta = var_a + var_b - cov * 2.0
        if theta < 0.0:
            theta = 0.0
        theta = math.sqrt(theta)
        if theta <= _THETA_EPSILON:
            tp = 1.0 if ma >= mb else 0.0
            phi = 0.0
        else:
            alpha = (ma - mb) / theta
            tp = 0.5 * math.erfc(-alpha / _SQRT2)
            phi = _INV_SQRT_2PI * math.exp((-0.5 * alpha) * alpha)
        one_minus_tp = 1.0 - tp
        new_mean = tp * ma + one_minus_tp * mb + theta * phi
        second = (
            (var_a + ma * ma) * tp
            + (var_b + mb * mb) * one_minus_tp
            + ((ma + mb) * theta) * phi
        )
        second -= new_mean * new_mean
        if second < 0.0:
            second = 0.0
        linear = 0.0
        for k in range(width):
            merged = tp * corr_a[i, k] + one_minus_tp * corr_b[i, k]
            out_corr[i, k] = merged
            linear += merged * merged
        out_mean[i] = new_mean
        residual = second - linear
        if residual < 0.0:
            residual = 0.0
        out_randvar[i] = residual


def merge_max_with_validity_into_kernel(
    mean_a, corr_a, randvar_a, valid_a,
    mean_b, corr_b, randvar_b, valid_b,
    out_mean, out_corr, out_randvar, out_valid,
):
    """Validity-masked Clark max of two 1-D batches, written into ``out_*``.

    Entries valid on both sides take the Clark max, only-``a`` entries copy
    ``a``, everything else (only-``b`` and neither) copies ``b`` — the
    identical selection as the numpy masking, including the meaningless
    neither-valid content.
    """
    clark_max_into_kernel(
        mean_a, corr_a, randvar_a, mean_b, corr_b, randvar_b,
        out_mean, out_corr, out_randvar,
    )
    n = mean_a.shape[0]
    width = corr_a.shape[1]
    for i in range(n):
        va = valid_a[i]
        vb = valid_b[i]
        out_valid[i] = va or vb
        if va and vb:
            continue
        if va:
            out_mean[i] = mean_a[i]
            out_randvar[i] = randvar_a[i]
            for k in range(width):
                out_corr[i, k] = corr_a[i, k]
        else:
            out_mean[i] = mean_b[i]
            out_randvar[i] = randvar_b[i]
            for k in range(width):
                out_corr[i, k] = corr_b[i, k]


def fold_levels_kernel(
    level_ptr, vertices, edge_ptr, edge_rows, neighbor_rows,
    edge_mean, edge_corr, edge_randvar,
    mean, corr, randvar, valid, seed_first,
):
    """Whole levelized Clark fold in one call, updating the state in place.

    The fused form of ``_fold_levels`` + ``_fold_rounds`` +
    ``merge_max_with_validity_into``: one nopython pass over the flat
    vertex-grouped schedule (``level_ptr``/``vertices``/``edge_ptr``/
    ``edge_rows``, see :func:`repro.core.backend.schedule.flat_fold_schedule`)
    replaces the per-round numpy gather→Clark→scatter dispatch that
    dominates at small round widths.  Per vertex the candidates fold
    sequentially in CSR edge order — the same per-vertex merge sequence as
    the round-based engine.  ``seed_first`` pre-loads the vertex state as
    the fold seed (backward engines); otherwise a valid pre-seeded state
    merges after the edge candidates (the arrival engine's final max).
    State arrays are 1-D per vertex (``corr`` is ``(V, W)``); ``edge_corr``
    must already be padded to the state width.
    """
    width = corr.shape[1]
    acc_corr = np.empty(width)
    cand_corr = np.empty(width)
    for level in range(level_ptr.shape[0] - 1):
        for position in range(level_ptr[level], level_ptr[level + 1]):
            row = vertices[position]
            lo = edge_ptr[position]
            hi = edge_ptr[position + 1]
            acc_mean = 0.0
            acc_randvar = 0.0
            acc_valid = False
            if seed_first:
                acc_mean = mean[row]
                acc_randvar = randvar[row]
                acc_valid = valid[row]
                for k in range(width):
                    acc_corr[k] = corr[row, k]
                have_acc = True
                total = hi - lo
            else:
                have_acc = False
                # A valid pre-seeded state (an input vertex that also has
                # fanin) folds in as one final candidate after the edges.
                total = hi - lo + (1 if valid[row] else 0)
            for candidate in range(total):
                if candidate < hi - lo:
                    e = edge_rows[lo + candidate]
                    nb = neighbor_rows[e]
                    cand_mean = mean[nb] + edge_mean[e]
                    cand_randvar = randvar[nb] + edge_randvar[e]
                    cand_valid = valid[nb]
                    for k in range(width):
                        cand_corr[k] = corr[nb, k] + edge_corr[e, k]
                else:
                    cand_mean = mean[row]
                    cand_randvar = randvar[row]
                    cand_valid = True
                    for k in range(width):
                        cand_corr[k] = corr[row, k]
                if not have_acc:
                    acc_mean = cand_mean
                    acc_randvar = cand_randvar
                    acc_valid = cand_valid
                    for k in range(width):
                        acc_corr[k] = cand_corr[k]
                    have_acc = True
                    continue
                if acc_valid and cand_valid:
                    # Scalar Clark max, same operation order as
                    # clark_max_into (see clark_max_into_kernel).
                    var_a = 0.0
                    var_b = 0.0
                    cov = 0.0
                    for k in range(width):
                        ca = acc_corr[k]
                        cb = cand_corr[k]
                        var_a += ca * ca
                        var_b += cb * cb
                        cov += ca * cb
                    var_a += acc_randvar
                    var_b += cand_randvar
                    theta = var_a + var_b - cov * 2.0
                    if theta < 0.0:
                        theta = 0.0
                    theta = math.sqrt(theta)
                    if theta <= _THETA_EPSILON:
                        tp = 1.0 if acc_mean >= cand_mean else 0.0
                        phi = 0.0
                    else:
                        alpha = (acc_mean - cand_mean) / theta
                        tp = 0.5 * math.erfc(-alpha / _SQRT2)
                        phi = _INV_SQRT_2PI * math.exp((-0.5 * alpha) * alpha)
                    one_minus_tp = 1.0 - tp
                    new_mean = (
                        tp * acc_mean + one_minus_tp * cand_mean + theta * phi
                    )
                    second = (
                        (var_a + acc_mean * acc_mean) * tp
                        + (var_b + cand_mean * cand_mean) * one_minus_tp
                        + ((acc_mean + cand_mean) * theta) * phi
                    )
                    second -= new_mean * new_mean
                    if second < 0.0:
                        second = 0.0
                    linear = 0.0
                    for k in range(width):
                        merged = tp * acc_corr[k] + one_minus_tp * cand_corr[k]
                        acc_corr[k] = merged
                        linear += merged * merged
                    acc_mean = new_mean
                    acc_randvar = second - linear
                    if acc_randvar < 0.0:
                        acc_randvar = 0.0
                elif not acc_valid:
                    # Only the candidate is valid (or neither — copy the
                    # candidate's content, matching the numpy masking).
                    acc_mean = cand_mean
                    acc_randvar = cand_randvar
                    acc_valid = cand_valid
                    for k in range(width):
                        acc_corr[k] = cand_corr[k]
                # else: only the accumulator is valid — keep it.
            mean[row] = acc_mean
            randvar[row] = acc_randvar
            valid[row] = acc_valid
            for k in range(width):
                corr[row, k] = acc_corr[k]


def mc_longest_paths_kernel(
    level_ptr, vertices, edge_ptr, edge_rows, edge_source,
    delays, arrivals, is_source,
):
    """Levelized per-sample longest paths, fused over all levels.

    ``arrivals`` is ``(V, I, S)`` pre-seeded (``-inf`` everywhere, ``0.0``
    at each source's own source row; the single-source wrapper passes a
    ``(V, 1, S)`` view, the multi-source fold one C-contiguous sample
    slice at a time); ``delays`` is ``(E, S)`` indexed by global edge
    row.  ``+``/``max`` are exact, so the result is bitwise identical to
    the numpy engines for any fold order or chunking.
    """
    num_sources = arrivals.shape[1]
    num_samples = arrivals.shape[2]
    best = np.empty((num_sources, num_samples))
    for level in range(level_ptr.shape[0] - 1):
        for position in range(level_ptr[level], level_ptr[level + 1]):
            row = vertices[position]
            first = True
            for edge_pos in range(edge_ptr[position], edge_ptr[position + 1]):
                e = edge_rows[edge_pos]
                nb = edge_source[e]
                for i in range(num_sources):
                    for s in range(num_samples):
                        candidate = arrivals[nb, i, s] + delays[e, s]
                        if first or candidate > best[i, s]:
                            best[i, s] = candidate
                first = False
            if is_source[row]:
                # An input vertex with fanin keeps its 0.0 seed in the fold.
                for i in range(num_sources):
                    for s in range(num_samples):
                        if arrivals[row, i, s] > best[i, s]:
                            best[i, s] = arrivals[row, i, s]
            for i in range(num_sources):
                for s in range(num_samples):
                    arrivals[row, i, s] = best[i, s]


def criticality_chunk_terms_kernel(
    a_mean, a_corr, a_randvar, a_valid,
    r_mean, r_corr, r_randvar, r_valid,
    m_mean, m_var, m_randvar, m_valid, m_corr_by_input,
    neg_tolerance,
    z, degenerate, tied, valid,
):
    """The ``_chunk_terms`` tightness/covariance contraction, fused.

    One nopython pass over the ``(E, I, O)`` pair block replaces the
    batched-BLAS contraction + sparse tie-refinement pipeline of
    :func:`repro.model.criticality._chunk_terms`, replicating its exact
    decision structure: the independent covariance bound scores every pair;
    pairs on the tie sliver (``delta >= -tolerance`` and valid) re-derive
    degeneracy from the shared bound (which also drives the 0/1 tie rule),
    and only non-degenerate ties with ``delta >= 0`` take the shared-bound
    z — ties with ``delta`` in ``[-tol, 0)`` keep the independent-bound z
    while the flags are overwritten, exactly as the numpy path does.
    Inputs are the per-(edge, input) arrival-side and per-(edge, output)
    path-side gathers (``a_*``/``r_*``) plus the hoisted matrix moments;
    ``m_corr_by_input`` is the ``(I, K, O)`` coefficient tensor.  Outputs
    are written into the caller's ``(E, I, O)`` buffers.
    """
    num_edges = a_mean.shape[0]
    num_inputs = a_mean.shape[1]
    num_outputs = r_mean.shape[1]
    width = a_corr.shape[2]
    floor_abs = _THETA_EPSILON * _THETA_EPSILON
    a_var = np.empty(num_inputs)
    r_var = np.empty(num_outputs)
    for e in range(num_edges):
        for i in range(num_inputs):
            total = 0.0
            for k in range(width):
                coeff = a_corr[e, i, k]
                total += coeff * coeff
            a_var[i] = total + a_randvar[e, i]
        for j in range(num_outputs):
            total = 0.0
            for k in range(width):
                coeff = r_corr[e, j, k]
                total += coeff * coeff
            r_var[j] = total + r_randvar[e, j]
        for i in range(num_inputs):
            for j in range(num_outputs):
                delta = (a_mean[e, i] - m_mean[i, j]) + r_mean[e, j]
                is_valid = a_valid[e, i] and r_valid[e, j] and m_valid[i, j]
                cross = 0.0
                cov_a = 0.0
                cov_r = 0.0
                for k in range(width):
                    ak = a_corr[e, i, k]
                    rk = r_corr[e, j, k]
                    mk = m_corr_by_input[i, k, j]
                    cross += ak * rk
                    cov_a += ak * mk
                    cov_r += rk * mk
                cov = cov_a + cov_r
                var_sum = cross * 2.0 + a_var[i]
                var_sum += r_var[j]
                var_sum += m_var[i, j]
                floor = var_sum * _THETA_RELATIVE_EPSILON
                if floor < floor_abs:
                    floor = floor_abs
                theta_sq = cov * -2.0 + var_sum
                if theta_sq < 0.0:
                    theta_sq = 0.0
                deg = theta_sq <= floor
                if deg:
                    zv = delta
                else:
                    zv = delta / math.sqrt(theta_sq)
                tie = False
                if is_valid and delta >= neg_tolerance[i, j]:
                    de_randvar = a_randvar[e, i] + r_randvar[e, j]
                    shared = m_randvar[i, j]
                    if de_randvar < shared:
                        shared = de_randvar
                    theta_sq_shared = var_sum - 2.0 * (cov + shared)
                    if theta_sq_shared < 0.0:
                        theta_sq_shared = 0.0
                    deg = theta_sq_shared <= floor
                    tie = deg
                    if delta >= 0.0 and not deg:
                        zv = delta / math.sqrt(theta_sq_shared)
                z[e, i, j] = zv
                degenerate[e, i, j] = deg
                tied[e, i, j] = tie
                valid[e, i, j] = is_valid
