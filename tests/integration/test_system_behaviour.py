"""Integration tests: reproducibility, simulated time, failure injection."""

import numpy as np
import pytest

from repro.core.local import FedAvgLocalSolver
from repro.datasets import make_synthetic
from repro.fl.client import Client
from repro.fl.delays import make_heterogeneous_delays, make_uniform_delays
from repro.fl.runner import FederatedRunConfig, run_federated
from repro.fl.server import FederatedServer
from repro.models import MultinomialLogisticModel


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic(
        alpha=1.0, beta=1.0, num_devices=8, num_features=15,
        num_classes=4, min_size=30, max_size=90, seed=5,
    )


@pytest.fixture(scope="module")
def factory(dataset):
    def make():
        return MultinomialLogisticModel(dataset.num_features, dataset.num_classes)

    return make


class TestReproducibility:
    def test_bitwise_identical_runs(self, dataset, factory):
        cfg = FederatedRunConfig(num_rounds=6, num_local_steps=4, seed=9)
        _, w1 = run_federated(dataset, factory, cfg)
        _, w2 = run_federated(dataset, factory, cfg)
        np.testing.assert_array_equal(w1, w2)

    def test_client_order_invariance(self, dataset, factory):
        """Reversing client iteration order must not change the result:
        per-(client, round) RNG streams are order-independent."""
        model = factory()
        solver = FedAvgLocalSolver(step_size=0.02, num_steps=4, batch_size=8)
        clients = [
            Client(d.device_id, d, model, solver, base_seed=1)
            for d in dataset.devices
        ]
        w0 = model.init_parameters(0)

        results_fwd = [c.local_update(w0, 1) for c in clients]
        results_rev = [c.local_update(w0, 1) for c in reversed(clients)]
        for r_f, r_r in zip(results_fwd, reversed(results_rev)):
            np.testing.assert_array_equal(r_f.w_local, r_r.w_local)


class TestSimulatedTime:
    def test_straggler_dominates_round_time(self, dataset, factory):
        """With heterogeneous delays, the synchronous round costs the
        slowest participant."""
        model = factory()
        solver = FedAvgLocalSolver(step_size=0.02, num_steps=4, batch_size=8)
        clients = [
            Client(d.device_id, d, model, solver, base_seed=0)
            for d in dataset.devices
        ]
        delays = make_heterogeneous_delays(
            dataset.num_devices, d_cmp_mean=0.01, d_com_mean=1.0, spread=1.0, seed=3
        )
        server = FederatedServer(clients, model, delay_model=delays)
        server.run_round(model.init_parameters(0), 1)
        slowest = max(d.round_delay(5) for d in delays.delays)
        assert server.clock.round_durations[0] == pytest.approx(slowest)

    def test_more_local_steps_cost_more_sim_time(self, dataset, factory):
        def sim_time(tau):
            cfg = FederatedRunConfig(
                algorithm="fedavg", num_rounds=3, num_local_steps=tau, seed=0,
                delay_model=make_uniform_delays(dataset.num_devices, d_cmp=0.1, d_com=1.0),
            )
            history, _ = run_federated(dataset, factory, cfg)
            return history.final("sim_time")

        assert sim_time(20) > sim_time(2)


class TestFailureInjection:
    def test_single_device_federation(self, factory):
        ds = make_synthetic(
            alpha=0.5, beta=0.5, num_devices=1, num_features=15,
            num_classes=4, min_size=50, max_size=60, seed=6,
        )
        cfg = FederatedRunConfig(num_rounds=5, num_local_steps=5, seed=0)
        history, _ = run_federated(ds, factory, cfg)
        assert history.final("train_loss") < history.records[0].train_loss

    def test_tiny_batch_size(self, dataset, factory):
        cfg = FederatedRunConfig(
            num_rounds=4, num_local_steps=4, batch_size=1, seed=0
        )
        history, _ = run_federated(dataset, factory, cfg)
        assert np.isfinite(history.final("train_loss"))

    def test_partial_participation(self, dataset, factory):
        cfg = FederatedRunConfig(
            num_rounds=10, num_local_steps=5, client_fraction=0.5, seed=0
        )
        history, _ = run_federated(dataset, factory, cfg)
        assert history.final("train_loss") < history.records[0].train_loss
