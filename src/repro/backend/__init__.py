"""Pluggable array-backend seam.

One kernel goes through it: the two stacked matmuls of
:class:`repro.models.batched.LogisticBatchKernel` (scores and feature
transpose) call :meth:`ArrayBackend.batched_matmul`.  Everything else
calls NumPy directly — the im2col GEMMs of ``repro.nn``, the
vectorized prox and estimator algebra, and the sequential models.  The
default backend *is* NumPy; the seam is where a drop-in with a
NumPy-compatible surface (a threaded BLAS wrapper, an accelerator
array library) could be swapped in per process or per scope.  A kernel
owns its work buffers, so that two kernels never share one.

The package sits at layer 0 of the reprolint import DAG (alongside
``repro.utils`` and ``repro.obs``): it may not import models, solvers,
or anything federated — it only knows about arrays.

Usage::

    from repro.backend import get_backend, use_backend

    be = get_backend()            # NumpyBackend unless overridden
    C = be.batched_matmul(A, B)   # (K, m, n) @ (K, n, p)

    with use_backend(MyBackend()):
        ...                       # scoped override (tests, experiments)
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

from repro.backend.numpy_backend import ArrayBackend, NumpyBackend
from repro.backend.shm import ArraySpec, ShmArena

__all__ = [
    "ArrayBackend",
    "ArraySpec",
    "NumpyBackend",
    "ShmArena",
    "get_backend",
    "set_backend",
    "use_backend",
]

_DEFAULT = NumpyBackend()
_state = threading.local()


def get_backend() -> ArrayBackend:
    """The active backend for this thread (default: shared NumPy backend)."""
    return getattr(_state, "backend", None) or _DEFAULT


def set_backend(backend: Optional[ArrayBackend]) -> Optional[ArrayBackend]:
    """Install ``backend`` as this thread's active backend.

    ``None`` restores the process-wide NumPy default.  The override is
    thread-local so worker threads running homogeneous cohorts cannot
    race each other's backend choice.  Returns the previous override
    (``None`` when the default was active) so callers can restore it.
    """
    previous = getattr(_state, "backend", None)
    _state.backend = backend
    return previous


@contextlib.contextmanager
def use_backend(backend: ArrayBackend) -> Iterator[ArrayBackend]:
    """Scoped backend override (restores the previous one on exit)."""
    previous = getattr(_state, "backend", None)
    _state.backend = backend
    try:
        yield backend
    finally:
        _state.backend = previous
