"""Process-pool client executor backed by shared-memory shards.

Multi-process execution sidesteps the GIL for solver code that is
Python-bound rather than BLAS-bound, but naive ``ProcessPoolExecutor``
usage pickles every task's inputs — for federated simulation that means
re-serializing each client's full data shard every round.  This
executor instead follows the :class:`repro.backend.ShmArena` protocol:

* at pool start-up the parent copies every client's ``(X, y)`` training
  shard into named ``multiprocessing.shared_memory`` segments and
  allocates one writable broadcast block for the global model;
* workers attach the segments once, in their initializer, and keep the
  mappings for the life of the pool;
* a round's task payload is just ``(slot, round_index)`` — the worker
  reads the broadcast block, derives the client's per-round RNG stream
  (:func:`repro.utils.rng.derive_generator`, order-independent), runs
  the local solve, and pickles back only the
  :class:`~repro.core.local.base.LocalSolveResult`.

Results are bit-identical to :class:`~repro.fl.executor.SequentialExecutor`
because the per-(client, round) streams do not depend on which process
runs them.  Telemetry: workers cannot emit spans themselves — a forked
worker inherits a copy of the parent's span-id counter, so worker-side
ids would collide — instead each task measures its own wall time and
ships ``(result, timing)`` home, where the parent records it in
:attr:`last_client_seconds` (the straggler-gap input) and, with
telemetry on, emits a ``local_solve`` span via
:meth:`~repro.obs.Telemetry.external_span`, parented on the serialized
round-span context and tagged with the worker's process name.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.shm import ArraySpec, ShmArena, attach_array
from repro.core.local.base import LocalSolveResult
from repro.fl.client import Client
from repro.fl.executor import ClientExecutor
from repro.obs import telemetry
from repro.utils.rng import derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["ProcessPoolClientExecutor"]

#: per-worker state installed by :func:`_init_worker` (slot -> mappings)
_WORKER: Optional[Dict[str, Any]] = None


def _init_worker(entries: List[Dict[str, Any]], w_spec: ArraySpec) -> None:
    """Attach every shared segment once; runs in each worker at start."""
    global _WORKER
    attached = []
    handles = []
    for entry in entries:
        X, hX = attach_array(entry["X_spec"])
        y, hy = attach_array(entry["y_spec"])
        handles.extend((hX, hy))
        attached.append(
            {
                "client_id": entry["client_id"],
                "base_seed": entry["base_seed"],
                "model": entry["model"],
                "solver": entry["solver"],
                "X": X,
                "y": y,
            }
        )
    w_view, hw = attach_array(w_spec)
    handles.append(hw)
    _WORKER = {"entries": attached, "w": w_view, "handles": handles}


def _run_task(
    slot: int, round_index: int
) -> Tuple[LocalSolveResult, Dict[str, Any]]:
    """One client's local solve inside a worker process.

    The worker measures its own wall time and returns
    ``(result, timing)``; the parent turns the timing into an external
    ``local_solve`` span.  No span ids are allocated here — see the
    module docstring.
    """
    assert _WORKER is not None, "worker initializer did not run"
    entry = _WORKER["entries"][slot]
    # Private copy of the broadcast block: solvers anchor proximal terms
    # on the passed array, and the parent rewrites the block next round.
    w_global = np.array(_WORKER["w"], dtype=np.float64, copy=True)
    rng = derive_generator(entry["base_seed"], entry["client_id"], round_index)
    t_wall = time.time()
    t0 = time.perf_counter()
    result = entry["solver"].solve(
        entry["model"], entry["X"], entry["y"], w_global, rng
    )
    timing = {
        "duration": time.perf_counter() - t0,
        "t_wall": t_wall,
        "process": multiprocessing.current_process().name,
        "client_id": entry["client_id"],
    }
    return result, timing


class ProcessPoolClientExecutor(ClientExecutor):
    """Run clients on a persistent process pool with shared-memory shards.

    The pool binds to the first client set it sees: shards are placed in
    shared memory and workers attach them in their initializer, so later
    rounds must present the same clients (federated runs do).  Call
    :meth:`close` (or use as a context manager) to shut the pool down
    and unlink the segments.  A forked worker runs one task at a time on
    its own copy of the clients' models: one copy per worker when the
    clients share a model, as ``run_federated``'s do.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None:
            check_positive_int("max_workers", max_workers)
        self._max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._arena: Optional[ShmArena] = None
        self._w_view: Optional[np.ndarray] = None
        self._registered: Optional[List[Client]] = None
        self._slots: Optional[Dict[int, int]] = None
        self._closed = False

    def register_clients(self, clients) -> None:
        if self._pool is not None:
            if any(id(c) not in self._slots for c in clients):
                raise RuntimeError(
                    "cannot register new clients after the pool started; "
                    "shards live in shared memory mapped at start-up"
                )
            return
        self._registered = list(clients)

    def _start_pool(self, clients: Sequence[Client], w_global: np.ndarray) -> None:
        arena = ShmArena()
        try:
            entries = [
                {
                    "client_id": c.client_id,
                    "base_seed": c.base_seed,
                    "model": c.model,
                    "solver": c.solver,
                    "X_spec": arena.put(
                        np.asarray(c.data.X_train, dtype=np.float64)
                    ),
                    "y_spec": arena.put(
                        np.asarray(c.data.y_train, dtype=np.float64)
                    ),
                }
                for c in clients
            ]
            w_spec, w_view = arena.create(np.asarray(w_global).shape)
            workers = self._max_workers
            if workers is None:
                workers = max(
                    1, min(len(clients), multiprocessing.cpu_count())
                )
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(entries, w_spec),
            )
        except Exception:
            arena.close()
            raise
        self._arena = arena
        self._w_view = w_view
        self._pool = pool
        self._slots = {id(c): slot for slot, c in enumerate(clients)}

    def run_round(self, clients, w_global, round_index):
        if self._closed:
            raise RuntimeError("executor already closed")
        if self._pool is None:
            # Bind to the registered population (falling back to this
            # round's selection when the server never registered one).
            population = self._registered if self._registered else list(clients)
            self._start_pool(population, w_global)
        assert self._w_view is not None and self._pool is not None
        try:
            slots = [self._slots[id(c)] for c in clients]
        except KeyError:
            raise RuntimeError(
                "process executor got a client outside the registered "
                "population; shards live in shared memory mapped at "
                "pool start-up.  Virtual-client runs must keep the cohort "
                "stable: full participation with an LRU pool holding the "
                "whole federation (the runner's default at "
                "client_fraction=1.0)"
            ) from None
        w_global = np.asarray(w_global, dtype=np.float64)
        if w_global.shape != self._w_view.shape:
            raise RuntimeError(
                f"global model shape changed: {w_global.shape} != "
                f"{self._w_view.shape}"
            )
        # Single-writer broadcast: all of last round's tasks finished
        # (their futures were awaited), so no worker is reading.
        self._w_view[...] = w_global
        futures = [
            self._pool.submit(_run_task, slot, round_index) for slot in slots
        ]
        # Serialized-context parenting: the round span lives in this
        # (coordinating) process; workers only report timings, and the
        # external spans carry their process names for report keying.
        parent = telemetry.current_span()
        parent_id = parent.context()["span_id"] if parent is not None else None
        results: List[LocalSolveResult] = []
        seconds: List[float] = []
        for future in futures:
            result, timing = future.result()
            telemetry.external_span(
                "local_solve",
                timing["duration"],
                t_wall=timing["t_wall"],
                parent_id=parent_id,
                process=timing["process"],
                client=timing["client_id"],
                round=round_index,
            )
            results.append(result)
            seconds.append(timing["duration"])
        self.last_client_seconds = seconds
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._w_view = None

    def __enter__(self) -> "ProcessPoolClientExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
