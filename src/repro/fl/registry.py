"""Registered-population bookkeeping for massive-cohort federations.

ROADMAP item 1: registered-population size ``N`` must be nearly free
when only ``K << N`` clients participate per round.  Three pieces make
that true:

* :class:`ClientRegistry` — per-client metadata (id, training size,
  shard seed) in packed ndarrays.  Everything Theorem 1 needs from the
  *population* — the data-weighted aggregation weights ``p_n = D_n / D``
  and the ``p_n``-weighted moments behind ``sigma_bar^2`` — is computed
  from this metadata, never from materialized client objects, so the
  quantities stay exact under sampling.
* :class:`VirtualClient` — the lightweight handle for one registered
  client; :meth:`VirtualClient.hydrate` turns it into a real
  :class:`~repro.fl.client.Client` once a shard and model are available.
* :class:`LazyClientPool` — hydrates each round's selected cohort on
  demand: dataset shards are regenerated from their seed-derived
  streams (see :class:`repro.datasets.base.LazyFederatedDataset`) and
  the resulting clients are kept in a bounded LRU pool so hot clients
  skip re-setup.  :class:`EagerClientPool` wraps a pre-built client list
  behind the same interface, which is what keeps the eager path
  bit-identical.

Hydration cost is observable through ``repro.obs``: the pool maintains
``fl.registry.size`` (gauge), ``fl.cohort.hydrations``,
``fl.cohort.lru_hits`` and ``fl.cohort.evictions`` (counters).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.local.base import LocalSolver
from repro.datasets.base import DeviceData
from repro.exceptions import ConfigurationError
from repro.fl.client import Client
from repro.models.base import Model
from repro.obs import telemetry


class ClientRegistry:
    """Packed per-client metadata for the whole registered population.

    Holding ``N = 10^6`` registrations costs two int64 vectors — no
    client objects, shards, or models.  Aggregation weights are computed
    exactly as the eager server did (`float64(sizes) / sum`), so the two
    paths agree bit-for-bit.
    """

    def __init__(
        self,
        client_ids: np.ndarray,
        num_train: np.ndarray,
        *,
        base_seed: int = 0,
    ) -> None:
        self.client_ids = np.ascontiguousarray(client_ids, dtype=np.int64)
        self.num_train = np.ascontiguousarray(num_train, dtype=np.int64)
        if self.client_ids.ndim != 1 or self.num_train.ndim != 1:
            raise ConfigurationError("registry vectors must be 1-D")
        if self.client_ids.shape[0] != self.num_train.shape[0]:
            raise ConfigurationError(
                f"registry has {self.client_ids.shape[0]} ids for "
                f"{self.num_train.shape[0]} sizes"
            )
        if self.client_ids.shape[0] == 0:
            raise ConfigurationError("registry needs >= 1 client")
        if int(self.num_train.min()) < 1:
            raise ConfigurationError("every client needs >= 1 training sample")
        self.base_seed = int(base_seed)
        self._weights: Optional[np.ndarray] = None

    @classmethod
    def from_dataset(cls, dataset, *, base_seed: int = 0) -> "ClientRegistry":
        """Registry over a dataset's devices (eager or lazy).

        Reads only the packed ``device_ids`` and ``train_sizes``
        metadata — no shard is materialized.  Client ids are the device
        ids, as the eager path's clients carry them, so both paths key
        each client's RNG stream alike.
        """
        return cls(dataset.device_ids, dataset.train_sizes, base_seed=base_seed)

    @classmethod
    def from_clients(
        cls, clients: Sequence[Client], *, base_seed: Optional[int] = None
    ) -> "ClientRegistry":
        """Registry mirroring an already-materialized client list."""
        if not clients:
            raise ConfigurationError("registry needs >= 1 client")
        seed = clients[0].base_seed if base_seed is None else base_seed
        return cls(
            np.array([c.client_id for c in clients], dtype=np.int64),
            np.array([c.num_train for c in clients], dtype=np.int64),
            base_seed=seed,
        )

    @property
    def size(self) -> int:
        """The registered-population size ``N``."""
        return int(self.client_ids.shape[0])

    @property
    def total_train(self) -> int:
        """The paper's ``D = sum_n D_n``."""
        return int(self.num_train.sum())

    def weights(self) -> np.ndarray:
        """Aggregation weights ``p_n = D_n / D`` (cached, sums to one)."""
        if self._weights is None:
            sizes = self.num_train.astype(np.float64)
            self._weights = sizes / sizes.sum()
        return self._weights

    def subset_weights(self, indices: Sequence[int]) -> np.ndarray:
        """Weights of a sampled cohort, renormalized to sum to one.

        The sampling-correct way to estimate population-weighted
        quantities (global loss, ``sigma_bar^2``) from ``K`` hydrated
        clients: restrict the exact ``p_n`` to the sample and rescale.
        """
        sub = self.weights()[np.asarray(indices, dtype=np.int64)]
        total = sub.sum()
        if total <= 0.0:
            raise ConfigurationError("subset weights sum to zero")
        return sub / total

    def virtual(self, index: int) -> "VirtualClient":
        """The lightweight handle for registered client ``index``."""
        if not 0 <= index < self.size:
            raise ConfigurationError(
                f"client index {index} out of range [0, {self.size})"
            )
        return VirtualClient(
            client_id=int(self.client_ids[index]),
            num_train=int(self.num_train[index]),
            base_seed=self.base_seed,
        )


@dataclass(frozen=True)
class VirtualClient:
    """One registered client as metadata only — no shard, no model.

    Carries exactly what the server needs to schedule and weight the
    client; :meth:`hydrate` binds a materialized shard and a model to
    produce the real :class:`~repro.fl.client.Client` the executors run.
    """

    client_id: int
    num_train: int
    base_seed: int = 0

    def hydrate(
        self, data: DeviceData, model: Model, solver: LocalSolver
    ) -> Client:
        """Bind shard + model; validates the shard matches the metadata."""
        if data.num_train != self.num_train:
            raise ConfigurationError(
                f"client {self.client_id}: shard has {data.num_train} train "
                f"samples, registry says {self.num_train}"
            )
        return Client(
            client_id=self.client_id,
            data=data,
            model=model,
            solver=solver,
            base_seed=self.base_seed,
        )


class EagerClientPool:
    """The backward-compatible pool: every client pre-materialized.

    Wraps the classic ``list[Client]`` behind the pool interface so the
    server has a single code path; ``hydrate`` is a list lookup.
    """

    def __init__(
        self,
        clients: Sequence[Client],
        *,
        registry: Optional[ClientRegistry] = None,
    ) -> None:
        if not clients:
            raise ConfigurationError("pool needs >= 1 client")
        self._clients: List[Client] = list(clients)
        self.registry = registry or ClientRegistry.from_clients(self._clients)
        if self.registry.size != len(self._clients):
            raise ConfigurationError(
                f"registry covers {self.registry.size} clients, "
                f"pool holds {len(self._clients)}"
            )
        self.solver = self._clients[0].solver

    @property
    def population(self) -> Optional[List[Client]]:
        """The full materialized population (eager pools only)."""
        return self._clients

    def hydrate(self, indices: Sequence[int]) -> List[Client]:
        return [self._clients[i] for i in indices]

    def iter_clients(self, indices: Sequence[int]) -> Iterator[Client]:
        for i in indices:
            yield self._clients[i]


class LazyClientPool:
    """Bounded LRU pool hydrating registered clients on demand.

    ``dataset.device(k)`` regenerates client ``k``'s shard from its
    seed-derived stream; a hydrated :class:`Client` stays pooled until
    ``capacity`` forces the least-recently-used one out.  Hot clients
    (re-selected across rounds, or everyone at ``client_fraction=1.0``
    with ``capacity >= N``) therefore skip re-setup entirely.  Every
    hydrated client holds ``model``, so a hydration builds no model.
    """

    def __init__(
        self,
        dataset,
        model: Model,
        solver: LocalSolver,
        *,
        base_seed: int = 0,
        capacity: Optional[int] = None,
        registry: Optional[ClientRegistry] = None,
    ) -> None:
        self.dataset = dataset
        self.model = model
        self.solver = solver
        self.registry = registry or ClientRegistry.from_dataset(
            dataset, base_seed=base_seed
        )
        if capacity is None:
            capacity = self.registry.size
        if capacity < 1:
            raise ConfigurationError("pool capacity must be >= 1")
        self.capacity = int(capacity)
        self._cache: "OrderedDict[int, Client]" = OrderedDict()
        #: guards the LRU cache and the counters — hydration may be
        #: triggered from pool worker threads.
        self._lock = threading.Lock()
        self.hydration_count = 0
        self.hit_count = 0
        self.eviction_count = 0

    @property
    def population(self) -> Optional[List[Client]]:
        """Lazy pools have no materialized population to announce."""
        return None

    def _build(self, index: int) -> Client:
        return self.registry.virtual(index).hydrate(
            self.dataset.device(index), self.model, self.solver
        )

    def client(self, index: int) -> Client:
        """Hydrate one client through the LRU (hot clients are cached).

        Thread-safe: the whole lookup-or-hydrate is one critical
        section, so two workers asking for the same cold client cannot
        double-hydrate it or corrupt the LRU ordering.
        """
        with self._lock:
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                self.hit_count += 1
                telemetry.counter_add("fl.cohort.lru_hits", 1)
                return cached
            client = self._build(index)
            self.hydration_count += 1
            telemetry.counter_add("fl.cohort.hydrations", 1)
            self._cache[index] = client
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
                self.eviction_count += 1
                telemetry.counter_add("fl.cohort.evictions", 1)
            return client

    def hydrate(self, indices: Sequence[int]) -> List[Client]:
        """Hydrate a round's cohort, ordered like ``indices``."""
        return [self.client(i) for i in indices]

    def iter_clients(self, indices: Sequence[int]) -> Iterator[Client]:
        """Stream clients one at a time *without* polluting the LRU.

        The evaluation pass may sweep far more clients than ``capacity``
        (up to the full population); building them transiently keeps the
        round-hot cohort pooled.  Cached clients are still reused.
        """
        for i in indices:
            with self._lock:
                cached = self._cache.get(i)
                if cached is not None:
                    self.hit_count += 1
                    telemetry.counter_add("fl.cohort.lru_hits", 1)
                else:
                    self.hydration_count += 1
                    telemetry.counter_add("fl.cohort.hydrations", 1)
                    cached = self._build(i)
            yield cached
