"""Tests for the massive-cohort virtual-client path (ROADMAP item 1).

The contract under test has two halves:

* **bit-identity** — at ``client_fraction = 1.0`` a lazy run (packed
  registry, LRU-hydrated clients, regenerated shards) produces the same
  bits as the classic eager run, on every executor; and
* **O(K) residency** — under sampling only the selected cohort is ever
  hydrated, Theorem-1 quantities come from registry metadata, and the
  pool's LRU bounds live client objects.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.local import FedProxVRLocalSolver
from repro.datasets import make_fashion, make_synthetic
from repro.datasets.base import FederatedDataset, LazyFederatedDataset
from repro.exceptions import ConfigurationError
from repro.fl.registry import (
    ClientRegistry,
    EagerClientPool,
    LazyClientPool,
    VirtualClient,
)
from repro.fl.runner import (
    FederatedRunConfig,
    build_client_pool,
    default_lru_capacity,
    run_federated,
)
from repro.models import MultinomialLogisticModel

EXECUTORS = ("sequential", "batched", "thread", "process")


@pytest.fixture(scope="module")
def eager_dataset():
    return make_synthetic(
        alpha=1.0,
        beta=1.0,
        num_devices=8,
        num_features=10,
        num_classes=5,
        min_size=25,
        max_size=90,
        seed=11,
    )


@pytest.fixture(scope="module")
def lazy_dataset():
    return make_synthetic(
        alpha=1.0,
        beta=1.0,
        num_devices=8,
        num_features=10,
        num_classes=5,
        min_size=25,
        max_size=90,
        seed=11,
        lazy=True,
    )


@pytest.fixture(scope="module")
def fashion_pair():
    """A small eager/lazy ``make_fashion`` pair: both slice one image corpus."""
    kwargs = dict(num_devices=6, num_samples=300, min_size=20, max_size=60, seed=3)
    return make_fashion(**kwargs), make_fashion(lazy=True, **kwargs)


def _factory(dataset):
    return lambda: MultinomialLogisticModel(
        dataset.num_features, dataset.num_classes, l2=1e-4
    )


def _solver():
    return FedProxVRLocalSolver(
        step_size=0.05, num_steps=3, batch_size=16, mu=0.1
    )


class TestLazyDatasetIdentity:
    def test_lazy_devices_match_eager(
        self, eager_dataset, lazy_dataset, fashion_pair
    ):
        for eager, lazy in ((eager_dataset, lazy_dataset), fashion_pair):
            assert isinstance(lazy, LazyFederatedDataset)
            for k in range(eager.num_devices):
                eager_dev, lazy_dev = eager.devices[k], lazy.device(k)
                for field in ("X_train", "y_train", "X_test", "y_test"):
                    np.testing.assert_array_equal(
                        getattr(eager_dev, field), getattr(lazy_dev, field),
                        err_msg=f"{eager.name} device {k} {field}",
                    )

    def test_rehydration_is_deterministic(self, lazy_dataset):
        first = lazy_dataset.device(3)
        again = lazy_dataset.device(3)
        np.testing.assert_array_equal(first.X_train, again.X_train)
        np.testing.assert_array_equal(first.y_train, again.y_train)

    def test_probe_covers_federation_when_bound_large(
        self, eager_dataset, lazy_dataset
    ):
        X_full, y_full = eager_dataset.global_train()
        X_probe, y_probe = lazy_dataset.probe_train(32)
        np.testing.assert_array_equal(X_full, X_probe)
        np.testing.assert_array_equal(y_full, y_probe)

    def test_probe_bounded(self, lazy_dataset):
        X, _ = lazy_dataset.probe_train(2)
        expected = int(lazy_dataset.train_sizes[:2].sum())
        assert X.shape[0] == expected

    def test_train_sizes_match_devices(
        self, eager_dataset, lazy_dataset, fashion_pair
    ):
        for eager, lazy in ((eager_dataset, lazy_dataset), fashion_pair):
            np.testing.assert_array_equal(
                lazy.train_sizes, [d.num_train for d in eager.devices],
                err_msg=eager.name,
            )

    def test_generator_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            make_synthetic(
                alpha=1.0,
                beta=1.0,
                num_devices=4,
                seed=np.random.default_rng(0),
                lazy=True,
            )


class TestRegistry:
    def test_weights_from_metadata_match_eager(self, eager_dataset):
        registry = ClientRegistry.from_dataset(eager_dataset)
        sizes = np.array(
            [d.num_train for d in eager_dataset.devices], dtype=np.float64
        )
        np.testing.assert_array_equal(registry.weights(), sizes / sizes.sum())
        assert registry.weights().sum() == pytest.approx(1.0)

    def test_subset_weights_renormalized(self, eager_dataset):
        registry = ClientRegistry.from_dataset(eager_dataset)
        sub = registry.subset_weights([0, 3, 5])
        full = registry.weights()[[0, 3, 5]]
        np.testing.assert_allclose(sub, full / full.sum())
        assert sub.sum() == pytest.approx(1.0)

    def test_total_train(self, eager_dataset):
        registry = ClientRegistry.from_dataset(eager_dataset)
        assert registry.total_train == sum(
            d.num_train for d in eager_dataset.devices
        )

    def test_virtual_out_of_range(self, eager_dataset):
        registry = ClientRegistry.from_dataset(eager_dataset)
        with pytest.raises(ConfigurationError):
            registry.virtual(registry.size)

    def test_hydrate_validates_shard_size(self, eager_dataset):
        vc = VirtualClient(client_id=0, num_train=999)
        with pytest.raises(ConfigurationError):
            vc.hydrate(
                eager_dataset.devices[0],
                MultinomialLogisticModel(10, 5),
                _solver(),
            )

    def test_ids_are_the_dataset_device_ids(self, eager_dataset, lazy_dataset):
        subset = FederatedDataset(
            devices=[eager_dataset.devices[k] for k in (5, 2, 7)],
            num_features=eager_dataset.num_features,
            num_classes=eager_dataset.num_classes,
        )
        np.testing.assert_array_equal(
            ClientRegistry.from_dataset(subset).client_ids, [5, 2, 7]
        )
        np.testing.assert_array_equal(
            ClientRegistry.from_dataset(lazy_dataset).client_ids,
            np.arange(lazy_dataset.num_devices),
        )

    def test_registry_is_metadata_only(self, lazy_dataset):
        # Building the registry must not materialize any shard.
        registry = ClientRegistry.from_dataset(lazy_dataset)
        assert registry.size == 8
        assert registry.client_ids.dtype == np.int64
        assert registry.num_train.dtype == np.int64


class TestLazyClientPool:
    def _pool(self, dataset, capacity=None):
        return LazyClientPool(
            dataset,
            _factory(dataset)(),
            _solver(),
            base_seed=7,
            capacity=capacity,
        )

    def test_lru_hit_and_eviction(self, lazy_dataset):
        pool = self._pool(lazy_dataset, capacity=2)
        pool.hydrate([0, 1])
        assert (pool.hydration_count, pool.hit_count) == (2, 0)
        pool.hydrate([0])  # hot -> hit
        assert pool.hit_count == 1
        pool.hydrate([2])  # evicts 1 (LRU order: 1, 0, 2 -> drop 1)
        assert pool.eviction_count == 1
        pool.hydrate([0])  # still resident
        assert pool.hit_count == 2
        pool.hydrate([1])  # was evicted -> re-hydrates
        assert pool.hydration_count == 4

    def test_hydrated_client_matches_eager(self, eager_dataset, lazy_dataset):
        pool = self._pool(lazy_dataset)
        client = pool.client(4)
        assert client.client_id == 4
        np.testing.assert_array_equal(
            client.data.X_train, eager_dataset.devices[4].X_train
        )

    def test_shared_model_is_one_instance(self, lazy_dataset):
        pool = self._pool(lazy_dataset)
        a, b = pool.hydrate([0, 1])
        assert a.model is b.model

    def test_iter_clients_does_not_pollute_lru(self, lazy_dataset):
        pool = self._pool(lazy_dataset, capacity=2)
        pool.hydrate([0, 1])
        list(pool.iter_clients(range(8)))  # eval-style full sweep
        assert pool.eviction_count == 0
        assert pool.hit_count == 2  # 0 and 1 were served from the pool
        pool.hydrate([0, 1])  # still resident after the sweep
        assert pool.hydration_count == 2 + 6  # sweep built 6 transients

    def test_population_is_none(self, lazy_dataset):
        assert self._pool(lazy_dataset).population is None

    def test_default_capacity(self):
        assert default_lru_capacity(1000, 1.0) == 1000
        assert default_lru_capacity(1000, 0.004) == 64  # floor
        assert default_lru_capacity(1000, 0.1) == 400  # 4 rounds' cohorts
        assert default_lru_capacity(1000, 0.5, override=10) == 10
        assert default_lru_capacity(10, 0.5, override=100) == 10


class TestBitIdentity:
    """client_fraction = 1.0: lazy and eager runs share every bit."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_lazy_matches_eager(self, eager_dataset, lazy_dataset, executor):
        kwargs = dict(
            algorithm="fedproxvr-svrg",
            num_rounds=3,
            num_local_steps=3,
            batch_size=16,
            mu=0.1,
            seed=5,
            executor=executor,
        )
        eager_history, eager_w = run_federated(
            eager_dataset,
            _factory(eager_dataset),
            FederatedRunConfig(virtual_clients=False, **kwargs),
        )
        lazy_history, lazy_w = run_federated(
            lazy_dataset,
            _factory(lazy_dataset),
            FederatedRunConfig(virtual_clients=True, **kwargs),
        )
        np.testing.assert_array_equal(eager_w, lazy_w)
        for er, lr in zip(eager_history.records, lazy_history.records):
            assert er.train_loss == lr.train_loss
            assert er.grad_norm == lr.grad_norm
            assert er.test_accuracy == lr.test_accuracy

    def test_virtual_on_eager_dataset(self, eager_dataset):
        """The lazy pool also wraps eager datasets bit-identically."""
        kwargs = dict(
            algorithm="fedavg",
            num_rounds=2,
            num_local_steps=3,
            batch_size=16,
            mu=0.0,
            seed=5,
        )
        _, w_eager = run_federated(
            eager_dataset,
            _factory(eager_dataset),
            FederatedRunConfig(virtual_clients=False, **kwargs),
        )
        _, w_virtual = run_federated(
            eager_dataset,
            _factory(eager_dataset),
            FederatedRunConfig(virtual_clients=True, **kwargs),
        )
        np.testing.assert_array_equal(w_eager, w_virtual)

    def test_virtual_keeps_device_ids_that_are_not_positions(self):
        """Clients are keyed by device id on both paths, so a federation
        whose ids are not ``0..N-1`` trains the same bits either way."""
        full = make_synthetic(
            alpha=1.0, beta=1.0, num_devices=6, num_features=10,
            num_classes=5, min_size=25, max_size=90, seed=11,
        )
        subset = FederatedDataset(
            devices=full.devices[3:6],
            num_features=full.num_features,
            num_classes=full.num_classes,
        )
        assert [d.device_id for d in subset.devices] == [3, 4, 5]
        kwargs = dict(
            algorithm="fedproxvr-svrg",
            num_rounds=3,
            num_local_steps=3,
            batch_size=16,
            mu=0.1,
            seed=5,
        )
        _, w_eager = run_federated(
            subset, _factory(subset), FederatedRunConfig(virtual_clients=False, **kwargs)
        )
        _, w_virtual = run_federated(
            subset, _factory(subset), FederatedRunConfig(virtual_clients=True, **kwargs)
        )
        assert w_eager.tobytes() == w_virtual.tobytes()


class TestSampledCohorts:
    def test_full_vs_sampled_convergence(self, lazy_dataset):
        """Sampling K < N still optimizes the same objective."""
        base = dict(
            algorithm="fedproxvr-svrg",
            num_rounds=8,
            num_local_steps=5,
            batch_size=16,
            mu=0.1,
            seed=5,
        )
        full_history, _ = run_federated(
            lazy_dataset, _factory(lazy_dataset), FederatedRunConfig(**base)
        )
        sampled_history, _ = run_federated(
            lazy_dataset,
            _factory(lazy_dataset),
            FederatedRunConfig(client_fraction=0.5, **base),
        )
        full = [r.train_loss for r in full_history.records]
        sampled = [r.train_loss for r in sampled_history.records]
        # Both descend from the same start; the sampled trajectory is
        # noisier but must land in the same regime, not diverge.
        assert sampled[-1] < sampled[0]
        assert full[-1] < full[0]
        assert sampled[-1] < 0.5 * (sampled[0] + full[0])
        assert sampled_history.num_rounds == full_history.num_rounds

    def test_sampled_run_hydrates_only_cohorts(self, lazy_dataset):
        pool = build_client_pool(
            lazy_dataset,
            _factory(lazy_dataset)(),
            _solver(),
            seed=5,
            virtual=True,
            client_fraction=0.25,
        )
        # capacity floor (64) exceeds N=8 here, so nothing ever evicts;
        # what matters is that hydrate() touches only the asked-for ids.
        pool.hydrate([1, 6])
        assert pool.hydration_count == 2

    def test_eval_cap_deterministic(self, lazy_dataset):
        config = FederatedRunConfig(
            algorithm="fedproxvr-svrg",
            num_rounds=3,
            num_local_steps=3,
            batch_size=16,
            mu=0.1,
            seed=5,
            client_fraction=0.5,
            max_eval_clients=4,
        )
        h1, w1 = run_federated(
            lazy_dataset, _factory(lazy_dataset), config
        )
        h2, w2 = run_federated(
            lazy_dataset, _factory(lazy_dataset), config
        )
        np.testing.assert_array_equal(w1, w2)
        assert [r.train_loss for r in h1.records] == [
            r.train_loss for r in h2.records
        ]

    def test_process_executor_rejects_partial_virtual(self, lazy_dataset):
        config = FederatedRunConfig(
            executor="process", client_fraction=0.5, num_rounds=1
        )
        with pytest.raises(ConfigurationError):
            run_federated(lazy_dataset, _factory(lazy_dataset), config)

    def test_partial_virtual_rejection_names_constraint_and_fixes(
        self, lazy_dataset
    ):
        # The message must explain the shared-memory constraint and name
        # every supported way out, not just say "unsupported".
        config = FederatedRunConfig(
            executor="process", client_fraction=0.5, num_rounds=1
        )
        with pytest.raises(ConfigurationError) as excinfo:
            run_federated(lazy_dataset, _factory(lazy_dataset), config)
        message = str(excinfo.value)
        assert "shared-memory" in message
        assert "ShmArena" in message
        assert "client_fraction = 0.5" in message
        for alternative in (
            "executor='thread'",
            "client_fraction=1.0",
            "virtual_clients=False",
        ):
            assert alternative in message


class TestTelemetry:
    def test_registry_and_cohort_metrics_emitted(self, lazy_dataset):
        from repro.obs import telemetry

        telemetry.configure([])
        try:
            run_federated(
                lazy_dataset,
                _factory(lazy_dataset),
                FederatedRunConfig(
                    algorithm="fedavg",
                    num_rounds=2,
                    num_local_steps=2,
                    batch_size=16,
                    mu=0.0,
                    seed=5,
                    client_fraction=0.5,
                ),
            )
        finally:
            telemetry.shutdown()
        metrics = telemetry.metrics.snapshot()
        assert metrics["fl.registry.size"]["last"] == 8.0
        assert metrics["fl.cohort.hydrations"]["total"] > 0
        # Round 2 reuses round 1's pooled clients (and the eval sweep
        # re-serves them), so hits must be recorded too.
        assert metrics["fl.cohort.lru_hits"]["total"] > 0


class TestScalingBudget:
    """Cost is O(K), not O(N): 8 of 50,000 clients cost what 8 of 100 do.

    Both cells run ``run_federated`` in one fresh interpreter, so the
    timings and the tracemalloc peak do not inherit the pytest process's heap.
    The ``ledger=`` hook stamps the round boundaries: ``write_manifest``
    is called just before round 1 and ``commit_round`` at the end of
    each round.  Setup runs from before ``make_synthetic`` to the
    manifest; the tracemalloc peak covers setup and both rounds.
    """

    SCRIPT = """
import json, sys, time, tracemalloc
from repro.datasets import make_synthetic
from repro.fl.runner import FederatedRunConfig, run_federated
from repro.models import MultinomialLogisticModel

class Stamps:
    def __init__(self):
        self.manifest = None
        self.commits = []
    def write_manifest(self, config, *, entropy=None, attrs=None):
        self.manifest = time.perf_counter()
    def commit_round(self, round_index, record, *, evaluated=True, sim_time=None):
        self.commits.append(time.perf_counter())
    def close(self, status="completed"):
        pass

def cell(num_devices, participants=8, rounds=2):
    stamps = Stamps()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        dataset = make_synthetic(
            1.0, 1.0, num_devices=num_devices, num_features=60,
            num_classes=10, min_size=100, max_size=400, seed=0, lazy=True,
        )
        config = FederatedRunConfig(
            algorithm="fedproxvr-svrg", num_rounds=rounds,
            num_local_steps=10, beta=5.0, mu=0.1, batch_size=32, seed=1,
            client_fraction=participants / num_devices, eval_every=rounds,
            max_eval_clients=participants,
        )
        run_federated(
            dataset,
            lambda: MultinomialLogisticModel(
                dataset.num_features, dataset.num_classes
            ),
            config,
            ledger=stamps,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "setup_s": stamps.manifest - t0,
        "peak_mb": peak / 2**20,
        "round_s": (stamps.commits[-1] - stamps.manifest) / rounds,
        "rounds": len(stamps.commits),
    }

print(json.dumps({n: cell(int(n)) for n in sys.argv[1:]}))
"""

    #: the large-N cell may cost at most this multiple of the small-N one
    TOLERANCE = 2.0
    #: below these, a difference is timer or allocator noise, not scaling
    FLOORS = {"setup_s": 0.05, "peak_mb": 8.0, "round_s": 0.05}
    #: absolute ceilings on the large-N cell; O(N) work blows through them
    BUDGETS = {"setup_s": 60.0, "peak_mb": 256.0, "round_s": 30.0}

    def test_fifty_thousand_clients_cost_what_a_hundred_do(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "100", "50000"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        cells = json.loads(proc.stdout.splitlines()[-1])
        small, large = cells["100"], cells["50000"]
        assert small["rounds"] == large["rounds"] == 2
        for key, floor in self.FLOORS.items():
            ceiling = max(small[key], floor) * self.TOLERANCE
            assert max(large[key], floor) <= ceiling, (key, small, large)
        for key, budget in self.BUDGETS.items():
            assert large[key] <= budget, (key, large)


class TestEagerPool:
    def test_wraps_list_and_exposes_registry(self, eager_dataset):
        from repro.fl.runner import build_clients

        clients = build_clients(
            eager_dataset, _factory(eager_dataset)(), _solver(), seed=5
        )
        pool = EagerClientPool(clients)
        assert pool.population is clients or pool.population == clients
        assert pool.registry.size == len(clients)
        assert pool.hydrate([2, 0]) == [clients[2], clients[0]]
        np.testing.assert_array_equal(
            pool.registry.num_train,
            [c.num_train for c in clients],
        )
