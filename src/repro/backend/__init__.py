"""Array plumbing below the models: shared-memory segments.

:mod:`repro.backend.shm` holds :class:`ShmArena`, the named
shared-memory blocks the process executor ships read-only client
shards and the broadcast model through.

The package sits at layer 0 of the reprolint import DAG (alongside
``repro.utils`` and ``repro.obs``): it may not import models, solvers,
or anything federated — it only knows about arrays.
"""

from __future__ import annotations

from repro.backend.shm import ArraySpec, ShmArena

__all__ = ["ArraySpec", "ShmArena"]
