"""Client execution strategies.

Alg. 1's inner loops run "in parallel" across devices; in simulation the
semantics are identical whether clients run sequentially or
concurrently, because each (client, round) pair derives its own RNG
stream.  The thread-pool executor gives real speedups on models whose
gradient work releases the GIL inside BLAS (dense/conv GEMMs); it
solves with one model per worker thread, not per client, because a
model's working memory is needed once per solve that is running.
The batched executor goes further for homogeneous convex cohorts: it
stacks same-architecture clients into ``(K, D)`` parameter blocks and
runs their inner loops as single vectorized solves
(:meth:`repro.core.local.base.LocalSolver.solve_cohort`), falling back
to per-client solves wherever no bit-identical kernel exists.
"""

from __future__ import annotations

import os
import queue
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.local.base import LocalSolveResult
from repro.fl.client import Client
from repro.models.base import Model
from repro.models.batched import cohort_signature, make_batch_kernel
from repro.obs import telemetry
from repro.utils.validation import check_positive_int


class ClientExecutor(ABC):
    """Runs one round of local updates over a set of clients.

    Each client's solve is timed inside a ``local_solve`` span (nested
    under the server's ``round`` span; the shared no-op while telemetry
    is off) and the per-client wall durations of the last round are
    exposed as :attr:`last_client_seconds`, ordered like the
    ``clients`` argument — the raw material for straggler-gap
    diagnostics that the simulated clock only ever sees as a max.
    """

    #: wall seconds per client for the most recent round (``None`` when
    #: the executor has no per-client time, as for stacked solves)
    last_client_seconds: Optional[List[float]] = None

    @abstractmethod
    def run_round(
        self,
        clients: Sequence[Client],
        w_global: np.ndarray,
        round_index: int,
    ) -> List[LocalSolveResult]:
        """Return local results ordered like ``clients``.

        ``clients`` may be any subset of the registered population
        (partial participation selects per round).
        """

    def register_clients(self, clients: Sequence[Client]) -> None:
        """Announce the full client population before training starts.

        The server calls this once with *all* clients; each
        ``run_round`` then receives the round's (possibly partial)
        selection.  Executors that pre-place per-client state — the
        process pool maps data shards into shared memory at start-up —
        need the full population here.  Default: nothing to do.

        Under the virtual-client path (``repro.fl.registry``) there is
        no materialized population and this hook is never called: each
        ``run_round`` simply receives that round's lazily hydrated
        cohort.  All executors accept hydrated cohorts unchanged; the
        per-round validation/plan caches below re-key automatically when
        LRU eviction rebuilds a client object.
        """

    def close(self) -> None:
        """Release any pooled resources (default: nothing to do)."""


def _timed_update(client, w_global, round_index, parent, model=None):
    """One client's local solve, timed, inside a ``local_solve`` span.

    ``parent`` pins the span under the caller's round span even when
    this runs on a pool thread whose own context stack is empty.
    ``model`` replaces the client's own model (a pool worker's).
    """
    with telemetry.span(
        "local_solve",
        parent=parent,
        client=client.client_id,
        round=round_index,
    ):
        start = time.perf_counter()
        result = client.local_update(w_global, round_index, model)
        seconds = time.perf_counter() - start
    return result, seconds


class SequentialExecutor(ClientExecutor):
    """Run clients one after another in the calling thread (default)."""

    def run_round(self, clients, w_global, round_index):
        parent = telemetry.current_span()
        pairs = [
            _timed_update(c, w_global, round_index, parent) for c in clients
        ]
        self.last_client_seconds = [seconds for _, seconds in pairs]
        return [result for result, _ in pairs]


class ThreadPoolClientExecutor(ClientExecutor):
    """Run clients concurrently on a persistent thread pool.

    The pool is reused across rounds; call :meth:`close` (or use the
    instance as a context manager) when training finishes.  When
    ``max_workers`` is not given the pool is sized on first use to
    ``min(len(clients), os.cpu_count())`` — one thread per client up to
    the machine's cores, the widest useful fan-out for BLAS-bound
    solves.

    Two solves running at once need two models (layer caches are
    per-call state), so the pool builds one model per worker from
    ``model_factory`` on first use — never by ``copy.deepcopy``, whose
    copy keeps method wrappers that still call the original's layers.
    Each task checks a model out, solves its client's shard with it and
    puts it back; the clients' own models are never touched, so every
    client must fit the factory's architecture (``run_federated``'s do).
    """

    def __init__(
        self,
        model_factory: Callable[[], Model],
        max_workers: Optional[int] = None,
    ) -> None:
        if max_workers is not None:
            check_positive_int("max_workers", max_workers)
        self._model_factory = model_factory
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._models: "queue.SimpleQueue[Model]" = queue.SimpleQueue()
        self._closed = False

    def _ensure_pool(self, num_clients: int) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self._max_workers
            if workers is None:
                workers = max(1, min(num_clients, os.cpu_count() or 1))
            for _ in range(workers):
                self._models.put(self._model_factory())
            self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    @contextmanager
    def _checkout(self) -> Iterator[Model]:
        """Lend a worker model to one solve.

        At most ``workers`` solves run at once, so one is always free.
        """
        model = self._models.get()
        try:
            yield model
        finally:
            self._models.put(model)

    def _update(self, client, w_global, round_index, parent):
        with self._checkout() as model:
            return _timed_update(client, w_global, round_index, parent, model)

    def run_round(self, clients, w_global, round_index):
        if self._closed:
            raise RuntimeError("executor already closed")
        self._ensure_pool(len(clients))
        # Capture the round span *here* (submitting thread); the pool
        # threads have empty context stacks of their own.
        parent = telemetry.current_span()
        futures = [
            self._pool.submit(self._update, c, w_global, round_index, parent)
            for c in clients
        ]
        pairs = [f.result() for f in futures]
        self.last_client_seconds = [seconds for _, seconds in pairs]
        return [result for result, _ in pairs]

    def close(self) -> None:
        if not self._closed:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._closed = True

    def __enter__(self) -> "ThreadPoolClientExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class BatchedCohortExecutor(ClientExecutor):
    """Run homogeneous cohorts as single stacked ``(K, D)`` solves.

    Clients are grouped by ``(solver instance, model architecture
    signature, effective minibatch size)``; each group with a vectorized
    kernel (:func:`repro.models.batched.make_batch_kernel`) — including
    singletons, which run the same stacked ops at ``K = 1`` — goes
    through :meth:`~repro.core.local.base.LocalSolver.solve_cohort` in
    one call.  Everything else — models without a kernel, solver
    configurations with data-dependent control flow — falls back to the
    sequential per-client path.  Either way the results are
    bit-identical to :class:`SequentialExecutor` on the same seeds; the
    grouping only changes how the arithmetic is scheduled.

    The grouping plan is computed once per distinct client set and
    reused across rounds.  Models may be shared across clients (like the
    sequential executor): the batched path touches per-client models
    only in serial anchor/final-gradient loops.
    """

    def __init__(self) -> None:
        self._plan_clients: Optional[Tuple[int, ...]] = None
        self._plan: List[Tuple[List[int], Optional[object], str]] = []

    def _build_plan(
        self, clients: Sequence[Client]
    ) -> List[Tuple[List[int], Optional[object], str]]:
        groups: Dict[Hashable, List[int]] = {}
        signatures: Dict[Hashable, str] = {}
        for i, c in enumerate(clients):
            sig = cohort_signature(c.model)
            if sig is None:
                # No kernel for this architecture -> unconditional singleton.
                groups.setdefault(("solo", i), []).append(i)
                signatures[("solo", i)] = "solo"
                continue
            # A cohort stacks minibatches into one (K, B, features)
            # block, so clients whose shards clamp the minibatch
            # (n_train < batch_size) form size-specific sub-cohorts.
            batch = getattr(c.solver, "batch_size", None)
            effective = (
                min(int(batch), c.data.X_train.shape[0])
                if batch is not None
                else None
            )
            key = (id(c.solver), sig, effective)
            groups.setdefault(key, []).append(i)
            signatures[key] = f"{sig}/B={effective}"
        plan: List[Tuple[List[int], Optional[object], str]] = []
        for key, indices in groups.items():
            # Singleton groups get a K=1 kernel too: the stacked ops run
            # the same elementary sequence at K=1, and a kernel solve is
            # cheaper than the allocating per-client path it replaces.
            kernel = make_batch_kernel([clients[i].model for i in indices])
            plan.append((indices, kernel, signatures[key]))
        return plan

    def run_round(self, clients, w_global, round_index):
        key = tuple(id(c) for c in clients)
        if key != self._plan_clients:
            self._plan = self._build_plan(clients)
            self._plan_clients = key

        parent = telemetry.current_span()
        results: List[Optional[LocalSolveResult]] = [None] * len(clients)
        batched_count = 0
        for indices, kernel, signature in self._plan:
            cohort_results = None
            if kernel is not None:
                cohort = [clients[i] for i in indices]
                solver = cohort[0].solver
                models = [c.model for c in cohort]
                shards = [(c.data.X_train, c.data.y_train) for c in cohort]
                rngs = [c.round_rng(round_index) for c in cohort]
                with telemetry.span(
                    "cohort_solve",
                    parent=parent,
                    cohort_size=len(cohort),
                    signature=signature,
                    round=round_index,
                ):
                    cohort_results = solver.solve_cohort(
                        models, shards, w_global, rngs, kernel
                    )
            if cohort_results is not None:
                batched_count += len(indices)
                for i, result in zip(indices, cohort_results):
                    results[i] = result
            else:
                for i in indices:
                    results[i], _ = _timed_update(
                        clients[i], w_global, round_index, parent
                    )
        telemetry.counter_add("fl.executor.batched_clients", batched_count)
        telemetry.counter_add(
            "fl.executor.fallback_clients", len(clients) - batched_count
        )
        # Stacked solves have no meaningful per-client wall time.
        self.last_client_seconds = None
        return results
