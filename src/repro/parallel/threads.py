"""In-process worker threads for the chunked numpy kernels.

The process pool (:mod:`repro.parallel.pool`) shards whole analyses; this
module lets one analysis spread its own independent chunks — criticality
edge chunks, multi-source Monte Carlo fold slices, single-source Monte
Carlo sample spans — over the cores of the calling process.  The
single-source spans are block-aligned, so every counter-keyed sampling
block (and its generator) belongs to one thread, and each thread draws and
folds over buffers the calling thread allocated; an auto-sized chunk comes
from the thread's even share of the Monte Carlo budget
(``mc_chunk_budget() // thread_count()``).  NumPy releases the interpreter
lock inside its array loops and BLAS calls, so a few threads over large
array operations overlap well.

* :func:`thread_count` is the CPU-affinity count, and 1 inside a daemonic
  pool worker (the rule :func:`repro.parallel.pool.maybe_executor` uses
  to stop nested pools): sharded tasks already fill the cores.
* :class:`single_blas_thread` pins numpy's bundled OpenBLAS to one thread
  for the duration of a ``with`` block.  Threads that each call a
  multi-threaded BLAS oversubscribe the cores and run slower than one
  serial caller, so threaded kernels that use BLAS run under it, and pool
  workers enter it once at start-up.  When no OpenBLAS control symbol is
  found the context does nothing and records why, and callers stay
  serial.
* :func:`map_ordered` runs a list of items on a thread pool and returns
  the results in input order.

Every kernel threaded this way writes disjoint slices of its outputs and
reduces nothing across threads, so its results are bitwise identical for
any thread count.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["map_ordered", "single_blas_thread", "thread_count"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: ``(setter, getter)`` symbol pairs of the OpenBLAS builds numpy ships:
#: the scipy-openblas wheels (64-bit ints, prefixed) and plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# Serialises the read-then-set of the process-wide BLAS thread count.
_BLAS_LOCK = threading.Lock()


def thread_count() -> int:
    """Threads an in-process kernel may use: the CPU-affinity count.

    Inside a daemonic pool worker this is always 1, so a sharded task's
    inner kernels stay serial and the pool's workers do not oversubscribe
    the cores.
    """
    if multiprocessing.current_process().daemon:
        return 1
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


_Controls = Tuple[Optional[Callable], Optional[Callable], Optional[str]]


@functools.lru_cache(maxsize=None)
def _openblas_controls() -> _Controls:
    """``(set_num_threads, get_num_threads, None)`` or ``(None, None, reason)``.

    The library is found among the shared objects mapped into this process
    (numpy loads its bundled OpenBLAS on import), so no second copy is
    loaded.
    """
    import numpy  # noqa: F401  (importing numpy maps its BLAS)

    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split() for line in maps]
    except OSError as exc:
        return None, None, "cannot list the loaded libraries: %s" % exc
    # A mapping line is "address perms offset dev inode [path]".
    paths = sorted(
        {
            entry[-1]
            for entry in fields
            if len(entry) >= 6
            and "openblas" in os.path.basename(entry[-1]).lower()
        }
    )
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter, None
    if not paths:
        return None, None, "numpy is not linked against a loaded OpenBLAS"
    return None, None, "no OpenBLAS thread-control symbol in %s" % ", ".join(paths)


class single_blas_thread:
    """Context manager pinning numpy's OpenBLAS to one thread.

    ``with single_blas_thread() as pinned:`` sets the BLAS thread count to
    1 and restores the previous count on exit; ``pinned`` says whether a
    control symbol was found.  When none was, the block runs unchanged and
    :attr:`reason` records why.  Entering without exiting (a pool worker's
    initializer) keeps the pin for the life of the process.
    """

    def __init__(self) -> None:
        self.pinned = False
        self.reason: Optional[str] = None
        self._previous: Optional[int] = None

    def __enter__(self) -> bool:
        setter, getter, self.reason = _openblas_controls()
        if setter is None:
            return False
        with _BLAS_LOCK:
            self._previous = getter()
            setter(1)
        self.pinned = True
        return True

    def __exit__(self, *_exc) -> None:
        if self.pinned:
            setter, _getter, _reason = _openblas_controls()
            with _BLAS_LOCK:
                setter(self._previous)
            self.pinned = False


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
    """``[fn(item) for item in items]``, spread over :func:`thread_count` threads.

    Results come back in input order; the first exception raised by any
    item propagates.  With one thread or one item this is a plain loop.
    """
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
