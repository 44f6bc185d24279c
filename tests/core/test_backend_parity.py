"""Parity of the compiled kernel bodies against the numpy engines.

Two layers, both runnable without numba installed:

* **elementwise** — the pure-Python kernel bodies
  (:mod:`repro.core.backend.kernels`) against their vectorized numpy
  counterparts on randomized batches;
* **dispatch** — an identity ``jit`` patched into the registry runs those
  same bodies through the *real* ``backend="numba"`` dispatch of the
  propagation, Monte Carlo and criticality engines, compared end to end
  against ``backend="numpy"``.

The contract: 1e-9 for anything crossing a CDF or a contraction (the
compiled tier sums sequentially where BLAS/``erfc`` round differently),
**bitwise** for the Monte Carlo kernels (``+``/``max`` are exact).  The
generated 10^5-edge design runs only under a real numba (CI's
``backend-smoke`` with-numba leg); everything else runs everywhere.
"""

import numpy as np
import pytest

from repro.core import batch, gaussian
from repro.core.backend import kernels, registry
from repro.core.backend import reset_backend_state
from repro.core.canonical import CanonicalForm
from repro.model.criticality import compute_edge_criticalities
from repro.montecarlo.flat import simulate_graph_delay, simulate_io_delays
from repro.timing.propagation import (
    compute_slacks_batch,
    longest_path_to_outputs_batch,
    propagate_arrival_times_batch,
    propagate_required_times_batch,
)

RTOL = 1e-9
ATOL = 1e-9


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.fixture
def identity_jit(monkeypatch):
    """Route ``backend="numba"`` through the pure-Python kernel bodies.

    Patches the registry's cached probe with an identity decorator so
    ``get_kernel`` binds (and the engines execute) the exact functions the
    real numba tier would compile — the full dispatch path minus the
    compiler.
    """
    reset_backend_state()
    monkeypatch.setattr(registry, "_NUMBA_STATE", ((lambda fn: fn), None))
    yield
    reset_backend_state()


def _random_batches(rng, n=257, width=5):
    def one():
        return (
            rng.normal(size=n) * 3.0,
            rng.normal(size=(n, width)) * 0.5,
            rng.uniform(0.0, 0.4, size=n),
        )

    return one(), one()


def _vertex_times_close(a, b, context):
    __tracebackhide__ = True
    assert np.array_equal(a.valid, b.valid), context
    mask = a.valid
    for field in ("mean", "corr", "randvar"):
        left = getattr(a, field)[mask]
        right = getattr(b, field)[mask]
        np.testing.assert_allclose(
            left, right, rtol=RTOL, atol=ATOL, err_msg=context + ":" + field
        )


class TestElementwiseKernels:
    def test_clark_max_matches_numpy(self):
        rng = np.random.default_rng(7)
        (ma, ca, ra), (mb, cb, rb) = _random_batches(rng)
        n, width = ca.shape
        out = [np.empty(n), np.empty((n, width)), np.empty(n)]
        ref = [np.empty(n), np.empty((n, width)), np.empty(n)]
        kernels.clark_max_into_kernel(ma, ca, ra, mb, cb, rb, *out)
        batch.clark_max_into(
            ma, ca, ra, mb, cb, rb, *ref, batch.FoldWorkspace()
        )
        for got, want in zip(out, ref):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_clark_max_degenerate_tie_is_exact(self):
        # Fully correlated identical operands (no private randvar): theta
        # is exactly 0, so the 0/1 tie rule returns the operand unchanged.
        mean = np.array([1.0, -2.0])
        corr = np.array([[0.5, 0.25], [0.0, 1.0]])
        randvar = np.zeros(2)
        out = [np.empty(2), np.empty((2, 2)), np.empty(2)]
        kernels.clark_max_into_kernel(
            mean, corr, randvar, mean, corr, randvar, *out
        )
        np.testing.assert_array_equal(out[0], mean)
        np.testing.assert_array_equal(out[1], corr)
        np.testing.assert_allclose(out[2], randvar, rtol=RTOL, atol=ATOL)

    def test_merge_with_validity_matches_numpy_bitwise(self):
        # The masking (which side is copied where) is pure selection, so
        # everything but the both-valid Clark entries must be bitwise.
        rng = np.random.default_rng(11)
        (ma, ca, ra), (mb, cb, rb) = _random_batches(rng)
        n, width = ca.shape
        va = rng.uniform(size=n) < 0.6
        vb = rng.uniform(size=n) < 0.6
        out = [np.empty(n), np.empty((n, width)), np.empty(n), np.empty(n, bool)]
        ref = [np.empty(n), np.empty((n, width)), np.empty(n), np.empty(n, bool)]
        kernels.merge_max_with_validity_into_kernel(
            ma, ca, ra, va, mb, cb, rb, vb, *out
        )
        batch.merge_max_with_validity_into(
            ma, ca, ra, va, mb, cb, rb, vb, *ref, batch.FoldWorkspace()
        )
        np.testing.assert_array_equal(out[3], ref[3])
        both = va & vb
        for got, want in zip(out[:3], ref[:3]):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
            np.testing.assert_array_equal(got[~both], want[~both])

    def test_normal_cdf_matches_numpy(self):
        x = np.linspace(-8.0, 8.0, 1001)
        got = np.empty_like(x)
        want = np.empty_like(x)
        kernels.normal_cdf_into_kernel(x, got)
        gaussian.normal_cdf_into(x, want)
        # erfc-based vs ndtr: same function, different polynomial — the
        # shared 1e-9 contract, not bitwise.
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_normal_pdf_matches_numpy(self):
        x = np.linspace(-8.0, 8.0, 1001)
        got = np.empty_like(x)
        want = np.empty_like(x)
        kernels.normal_pdf_into_kernel(x, got)
        gaussian.normal_pdf_into(x, want)
        # Same operation sequence, but ``math.exp`` and numpy's vector
        # ``exp`` round differently by up to 1 ulp — the 1e-9 contract.
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


class TestDispatchParity:
    """End-to-end ``backend="numba"`` vs ``backend="numpy"`` (identity jit)."""

    def test_forward_fold(self, identity_jit, parity_module):
        graph, _ = parity_module
        _vertex_times_close(
            propagate_arrival_times_batch(graph, backend="numba"),
            propagate_arrival_times_batch(graph, backend="numpy"),
            "arrivals",
        )

    def test_backward_folds(self, identity_jit, parity_module):
        graph, _ = parity_module
        _vertex_times_close(
            longest_path_to_outputs_batch(graph, backend="numba"),
            longest_path_to_outputs_batch(graph, backend="numpy"),
            "to_outputs",
        )
        constraint = CanonicalForm.constant(1000.0, graph.num_locals)
        required = {vertex: constraint for vertex in graph.outputs}
        _vertex_times_close(
            propagate_required_times_batch(graph, required, backend="numba"),
            propagate_required_times_batch(graph, required, backend="numpy"),
            "required",
        )

    def test_slacks(self, identity_jit, parity_module):
        graph, _ = parity_module
        constraint = CanonicalForm.constant(1000.0, graph.num_locals)
        _vertex_times_close(
            compute_slacks_batch(graph, constraint, backend="numba"),
            compute_slacks_batch(graph, constraint, backend="numpy"),
            "slacks",
        )

    def test_monte_carlo_delay_is_bitwise(self, identity_jit, parity_module):
        graph, _ = parity_module
        compiled = simulate_graph_delay(
            graph, num_samples=384, seed=3, engine="levelized", backend="numba"
        )
        reference = simulate_graph_delay(
            graph, num_samples=384, seed=3, engine="levelized", backend="numpy"
        )
        np.testing.assert_array_equal(compiled.samples, reference.samples)

    # "2688" makes the compiled kernel fold narrow sample slices instead
    # of whole blocks: 48 / 6 / 1 columns on c17 / mult4 / c432 with one
    # fold thread, about half that per thread with two.
    @pytest.mark.parametrize("budget", [None, "2688"])
    def test_monte_carlo_io_moments_are_bitwise(
        self, identity_jit, parity_module, monkeypatch, budget
    ):
        if budget is not None:
            monkeypatch.setenv("REPRO_MC_CHUNK_BUDGET", budget)
        graph, _ = parity_module
        compiled = simulate_io_delays(
            graph, num_samples=384, seed=5, engine="levelized", backend="numba"
        )
        reference = simulate_io_delays(
            graph, num_samples=384, seed=5, engine="levelized", backend="numpy"
        )
        np.testing.assert_array_equal(compiled.valid, reference.valid)
        np.testing.assert_array_equal(
            compiled.means, reference.means
        )
        np.testing.assert_array_equal(compiled.stds, reference.stds)

    def test_criticality_contraction(self, identity_jit, parity_module):
        graph, _ = parity_module
        compiled = compute_edge_criticalities(
            graph, engine="batch", backend="numba"
        )
        reference = compute_edge_criticalities(
            graph, engine="batch", backend="numpy"
        )
        assert set(compiled.max_criticality) == set(reference.max_criticality)
        for edge_id, want in reference.max_criticality.items():
            assert compiled.max_criticality[edge_id] == pytest.approx(
                want, rel=RTOL, abs=ATOL
            )


@pytest.mark.skipif(
    not _numba_available(), reason="needs a real numba (compiled extra)"
)
class TestCompiledLargeDesign:
    """The 10^5-edge acceptance parity, compiled tier only."""

    def test_generated_design_parity(self):
        from repro.netlist.generators import design_for_edge_count
        from repro.timing.builder import synthetic_timing_graph

        reset_backend_state()
        netlist = design_for_edge_count("pipeline", 100_000, seed=13)
        graph = synthetic_timing_graph(netlist, seed=13)
        _vertex_times_close(
            propagate_arrival_times_batch(graph, backend="numba"),
            propagate_arrival_times_batch(graph, backend="numpy"),
            "arrivals@1e5",
        )
        compiled = simulate_graph_delay(
            graph, num_samples=64, seed=9, engine="levelized", backend="numba"
        )
        reference = simulate_graph_delay(
            graph, num_samples=64, seed=9, engine="levelized", backend="numpy"
        )
        np.testing.assert_array_equal(compiled.samples, reference.samples)
