"""Kernel-dispatch registry of the pluggable compiled backend.

The registry resolves named kernels to one of two tiers:

* ``"numpy"`` — the existing vectorized implementations (always available);
* ``"numba"`` — lazily ``numba.njit(cache=True, fastmath=False,
  nogil=True)``-compiled variants of the nopython kernel bodies in
  :mod:`repro.core.backend.kernels`.

Selection follows the package's environment-knob convention (mirroring
``REPRO_WORKERS``): an explicit ``backend=`` argument beats the
``REPRO_BACKEND`` environment variable, which beats the default
``"auto"``; unknown values raise ``ValueError`` naming the knob.  ``auto``
resolves to numba when it imports *and* a warm-up compilation probe
succeeds, otherwise to numpy with a recorded ``fallback_reason`` — there
is no ImportError path: requesting ``"numba"`` without numba degrades to
numpy and reports why (:func:`available_backends`).

Engines consume the registry through :func:`get_kernel`: a fused kernel
whose numpy implementation lives inline in its home engine registers with
``numpy_impl=None``, and the engine keeps its own numpy path whenever the
bound backend is not ``"numba"`` — so adding a kernel is one
``register_kernel`` call plus one dispatch branch at the call site.  The
same seam accommodates future tiers (cupy, a C extension) by teaching
:func:`resolve_backend` a new name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.backend import kernels as _kernels

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "BoundKernel",
    "ResolvedBackend",
    "available_backends",
    "get_kernel",
    "register_kernel",
    "registered_kernels",
    "reset_backend_state",
    "resolve_backend",
]

#: Environment variable selecting the kernel backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Accepted ``backend=`` / ``REPRO_BACKEND`` values.
BACKENDS = ("auto", "numpy", "numba")


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of one backend resolution.

    ``requested`` is the validated request (``auto``/``numpy``/``numba``),
    ``backend`` the tier that actually resolved (``numpy``/``numba``) and
    ``fallback_reason`` why the compiled tier was unavailable when a
    request that could have used it fell back to numpy (``None`` when
    nothing fell back).
    """

    requested: str
    backend: str
    fallback_reason: Optional[str]


@dataclass(frozen=True)
class BoundKernel:
    """One kernel resolved against one backend request.

    ``function`` is ``None`` for a numpy binding of a fused kernel whose
    numpy implementation lives inline at the call site (the caller checks
    ``backend`` and runs its own path).
    """

    name: str
    backend: str
    function: Optional[Callable]
    fallback_reason: Optional[str]


@dataclass
class _KernelEntry:
    numpy_impl: Optional[Callable]
    python_impl: Optional[Callable]
    compiled: Optional[Callable] = field(default=None)


_REGISTRY: Dict[str, _KernelEntry] = {}

# Lazily probed numba state: ``(jit_decorator_or_None, reason_or_None)``.
_NUMBA_STATE: Optional[Tuple[Optional[Callable], Optional[str]]] = None


def register_kernel(
    name: str,
    numpy_impl: Optional[Callable] = None,
    python_impl: Optional[Callable] = None,
) -> None:
    """Register (or replace) a named kernel.

    ``numpy_impl`` is the vectorized implementation (``None`` for fused
    kernels whose numpy path is inline at the call site); ``python_impl``
    is the nopython-compatible body the numba tier compiles lazily
    (``None`` pins the kernel to numpy).
    """
    _REGISTRY[name] = _KernelEntry(numpy_impl=numpy_impl, python_impl=python_impl)


def registered_kernels() -> Tuple[str, ...]:
    """The registered kernel names, sorted."""
    return tuple(sorted(_REGISTRY))


def reset_backend_state() -> None:
    """Forget the cached numba probe and every compiled kernel.

    Test hook: lets a monkeypatched ``sys.modules['numba']`` (or a restored
    real numba) take effect on the next resolution.
    """
    global _NUMBA_STATE
    _NUMBA_STATE = None
    for entry in _REGISTRY.values():
        entry.compiled = None


def _probe_numba() -> Tuple[Optional[Callable], Optional[str]]:
    """Import numba and warm-compile a probe kernel once per process."""
    global _NUMBA_STATE
    if _NUMBA_STATE is None:
        try:
            import numba
        except ImportError as exc:
            _NUMBA_STATE = (
                None,
                "numba is not installed (%s); install the 'compiled' extra "
                "(pip install repro[compiled]) to enable the compiled tier"
                % exc,
            )
            return _NUMBA_STATE
        try:
            import numpy as np

            # nogil: the threaded Monte Carlo fold calls the compiled
            # kernel from several threads at once.
            jit = numba.njit(cache=True, fastmath=False, nogil=True)
            probe = jit(_kernels.normal_cdf_into_kernel)
            out = np.empty(2)
            probe(np.array([0.0, 1.0]), out)
        except Exception as exc:  # pragma: no cover - environment specific
            _NUMBA_STATE = (None, "numba warm-up compilation failed: %s" % exc)
        else:
            _NUMBA_STATE = (jit, None)
    return _NUMBA_STATE


def _validated_choice(backend: Optional[str]) -> str:
    """Validate an explicit ``backend=`` or the ``REPRO_BACKEND`` variable.

    An explicit argument wins outright — the environment is not even read —
    mirroring :func:`repro.parallel.pool.resolve_workers`.
    """
    if backend is None:
        raw = os.environ.get(BACKEND_ENV)
        if raw is None:
            return "auto"
        if raw not in BACKENDS:
            raise ValueError(
                "%s must be one of %s, got %r"
                % (BACKEND_ENV, "/".join(BACKENDS), raw)
            )
        return raw
    if backend not in BACKENDS:
        raise ValueError(
            "backend must be one of %s, got %r" % ("/".join(BACKENDS), backend)
        )
    return backend


def resolve_backend(backend: Optional[str] = None) -> ResolvedBackend:
    """Resolve a backend request to the tier that will actually run.

    ``auto`` and ``numba`` requests probe the compiled tier; when it is
    unavailable they degrade to numpy with the probe's ``fallback_reason``
    recorded — no exception is ever raised for a *well-formed* request
    (unknown names still raise ``ValueError``, see :data:`BACKEND_ENV`).
    """
    requested = _validated_choice(backend)
    if requested == "numpy":
        return ResolvedBackend(requested, "numpy", None)
    jit, reason = _probe_numba()
    if jit is not None:
        return ResolvedBackend(requested, "numba", None)
    return ResolvedBackend(requested, "numpy", reason)


def get_kernel(name: str, backend: Optional[str] = None) -> BoundKernel:
    """Bind the named kernel against a backend request.

    Returns a :class:`BoundKernel` whose ``backend`` says which tier the
    ``function`` belongs to; fused kernels bound to numpy carry
    ``function=None`` (the call site runs its inline numpy path).  Numba
    bindings compile the kernel body on first use and cache the compiled
    function for the process (``njit(cache=True)`` additionally persists
    the machine code on disk across processes).
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            "unknown kernel %r (registered: %s)"
            % (name, ", ".join(registered_kernels()))
        )
    resolved = resolve_backend(backend)
    if resolved.backend == "numba" and entry.python_impl is not None:
        if entry.compiled is None:
            jit, _ = _probe_numba()
            try:
                entry.compiled = jit(entry.python_impl)
            except Exception as exc:  # pragma: no cover - environment specific
                return BoundKernel(
                    name, "numpy", entry.numpy_impl,
                    "numba compilation of %r failed: %s" % (name, exc),
                )
        return BoundKernel(name, "numba", entry.compiled, None)
    reason = resolved.fallback_reason
    if resolved.backend == "numba" and entry.python_impl is None:
        reason = "kernel %r has no compiled variant" % name
    return BoundKernel(name, "numpy", entry.numpy_impl, reason)


def available_backends() -> Dict[str, Dict[str, Optional[str]]]:
    """What each backend tier resolved to, and why.

    The ImportError-free degradation report: ``numpy`` is always
    available; ``numba`` carries the probe's failure reason when the
    compiled tier is off; ``default`` shows what a plain ``backend=None``
    request resolves to right now (environment included).
    """
    jit, reason = _probe_numba()
    resolved = resolve_backend()
    return {
        "numpy": {"available": True, "reason": None},
        "numba": {"available": jit is not None, "reason": reason},
        "default": {
            "requested": resolved.requested,
            "resolved": resolved.backend,
            "fallback_reason": resolved.fallback_reason,
        },
    }


def _register_default_kernels() -> None:
    """Register the package's kernel set (import-time, idempotent)."""
    from repro.core import batch as _batch
    from repro.core import gaussian as _gaussian

    register_kernel(
        "clark_max_into",
        numpy_impl=_batch.clark_max_into,
        python_impl=_kernels.clark_max_into_kernel,
    )
    register_kernel(
        "merge_max_with_validity_into",
        numpy_impl=_batch.merge_max_with_validity_into,
        python_impl=_kernels.merge_max_with_validity_into_kernel,
    )
    register_kernel(
        "normal_cdf_into",
        numpy_impl=_gaussian.normal_cdf_into,
        python_impl=_kernels.normal_cdf_into_kernel,
    )
    register_kernel(
        "normal_pdf_into",
        numpy_impl=_gaussian.normal_pdf_into,
        python_impl=_kernels.normal_pdf_into_kernel,
    )
    # Fused kernels: the numpy implementation is the inline engine path.
    register_kernel(
        "fold_levels", numpy_impl=None, python_impl=_kernels.fold_levels_kernel
    )
    register_kernel(
        "mc_longest_paths",
        numpy_impl=None,
        python_impl=_kernels.mc_longest_paths_kernel,
    )
    register_kernel(
        "criticality_chunk_terms",
        numpy_impl=None,
        python_impl=_kernels.criticality_chunk_terms_kernel,
    )


_register_default_kernels()
