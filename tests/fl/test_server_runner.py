"""Tests for repro.fl.server and repro.fl.runner."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core.local import FedAvgLocalSolver
from repro.datasets import make_digits
from repro.datasets.base import FederatedDataset
from repro.exceptions import ConfigurationError
from repro.fl.client import Client
from repro.fl.delays import make_uniform_delays
from repro.fl.runner import FederatedRunConfig, resolve_smoothness, run_federated
from repro.fl.server import FederatedServer
from repro.models import MultinomialLogisticModel, make_mlp_model, make_paper_cnn_model
from repro.nn.im2col import im2col
from repro.nn.layers import conv2d as conv2d_module


def build_server(dataset, **kwargs):
    model = MultinomialLogisticModel(dataset.num_features, dataset.num_classes)
    solver = FedAvgLocalSolver(step_size=0.02, num_steps=4, batch_size=8)
    clients = [
        Client(d.device_id, d, model, solver, base_seed=0) for d in dataset.devices
    ]
    return FederatedServer(clients, eval_model=model, **kwargs), model


class TestFederatedServer:
    def test_train_returns_history_and_model(self, tiny_dataset):
        server, model = build_server(tiny_dataset)
        w0 = model.init_parameters(0)
        history, w = server.train(w0, 5, eval_every=1)
        assert history.num_rounds == 5
        assert w.shape == w0.shape

    def test_loss_decreases(self, tiny_dataset):
        server, model = build_server(tiny_dataset)
        w0 = model.init_parameters(0)
        history, _ = server.train(w0, 10)
        assert history.final("train_loss") < history.records[0].train_loss

    def test_eval_every_thins_records(self, tiny_dataset):
        server, model = build_server(tiny_dataset)
        history, _ = server.train(model.init_parameters(0), 10, eval_every=5)
        assert [r.round_index for r in history.records] == [5, 10]

    def test_final_round_always_recorded(self, tiny_dataset):
        server, model = build_server(tiny_dataset)
        history, _ = server.train(model.init_parameters(0), 7, eval_every=5)
        assert history.records[-1].round_index == 7

    def test_simulated_clock_advances(self, tiny_dataset):
        delays = make_uniform_delays(tiny_dataset.num_devices, d_cmp=0.1, d_com=2.0)
        server, model = build_server(tiny_dataset, delay_model=delays)
        history, _ = server.train(model.init_parameters(0), 3)
        # each round: d_com + d_cmp * (num_steps + 1 diagnostic eval) = 2.5
        assert history.final("sim_time") == pytest.approx(3 * 2.5)

    def test_delay_model_size_mismatch_raises(self, tiny_dataset):
        delays = make_uniform_delays(tiny_dataset.num_devices + 1)
        server, model = build_server(tiny_dataset, delay_model=delays)
        with pytest.raises(ConfigurationError):
            server.train(model.init_parameters(0), 1)

    def test_client_sampling(self, tiny_dataset):
        server, model = build_server(tiny_dataset, client_fraction=0.5, seed=0)
        outcome = server.run_round(model.init_parameters(0), 1)
        assert len(outcome["selected"]) == max(1, round(0.5 * tiny_dataset.num_devices))

    def test_no_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            FederatedServer([], eval_model=None)


class TestResolveSmoothness:
    def test_override_wins(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        assert resolve_smoothness(model, tiny_dataset, override=3.0) == 3.0

    def test_analytic_for_logistic(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        X, _ = tiny_dataset.global_train()
        assert resolve_smoothness(model, tiny_dataset) == pytest.approx(
            model.smoothness(X)
        )

    def test_power_iteration_for_nn(self, tiny_dataset):
        model = make_mlp_model(tiny_dataset.num_features, tiny_dataset.num_classes, (6,))
        L = resolve_smoothness(model, tiny_dataset, seed=0)
        assert L > 0

    def test_cnn_probe_lowers_its_fixed_batch_once(self, monkeypatch):
        # Every probe gradient sees the same batch: conv1's input never
        # changes, so it lowers once; conv2's input moves with the weights.
        lowered_channels = []

        def spy(x, *args, **kwargs):
            lowered_channels.append(x.shape[1])
            return im2col(x, *args, **kwargs)

        monkeypatch.setattr(conv2d_module, "im2col", spy)
        dataset = make_digits(
            num_devices=2, num_samples=24, labels_per_device=2, min_size=8,
            max_size=12, seed=0,
        )
        model = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.0625, seed=0)
        calls = []
        gradient = model.gradient

        def counted(w, X, y):
            calls.append(1)
            return gradient(w, X, y)

        model.gradient = counted
        L = resolve_smoothness(model, dataset, seed=0)
        assert np.isfinite(L) and L > 0
        assert len(calls) >= 4
        assert lowered_channels.count(1) == 1  # conv1: one input channel
        assert lowered_channels.count(2) == len(calls)  # conv2: two

    def test_infinite_analytic_L_rejected(self, tiny_dataset, tiny_model_factory):
        # Finite features the dataset accepts, whose squares overflow.
        huge = FederatedDataset(
            [
                dataclasses.replace(d, X_train=d.X_train * 1e160, X_test=d.X_test * 1e160)
                for d in tiny_dataset.devices
            ],
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match=r"L from the analytic .*L=inf"):
                resolve_smoothness(tiny_model_factory(), huge)

    def test_nan_probe_L_rejected(self, tiny_dataset):
        model = make_mlp_model(tiny_dataset.num_features, tiny_dataset.num_classes, (6,))
        model.gradient = lambda w, X, y: np.full(w.shape, np.nan)
        with pytest.raises(ConfigurationError, match=r"L from the power-iteration .*L=nan"):
            resolve_smoothness(model, tiny_dataset, seed=0)


class TestRunFederated:
    def test_runs_and_improves(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(
            algorithm="fedproxvr-sarah",
            num_rounds=10,
            num_local_steps=5,
            beta=5.0,
            mu=0.1,
            batch_size=8,
            seed=0,
        )
        history, w = run_federated(tiny_dataset, tiny_model_factory, cfg)
        assert history.num_rounds == 10
        assert history.final("train_loss") < history.records[0].train_loss
        assert history.config["beta"] == 5.0
        assert history.config["L"] > 0

    def test_reproducible_same_seed(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(num_rounds=4, num_local_steps=3, seed=11)
        h1, w1 = run_federated(tiny_dataset, tiny_model_factory, cfg)
        h2, w2 = run_federated(tiny_dataset, tiny_model_factory, cfg)
        np.testing.assert_array_equal(w1, w2)
        assert h1.series("train_loss") == h2.series("train_loss")

    def test_different_seed_differs(self, tiny_dataset, tiny_model_factory):
        h1, w1 = run_federated(
            tiny_dataset, tiny_model_factory,
            FederatedRunConfig(num_rounds=3, num_local_steps=3, seed=1),
        )
        h2, w2 = run_federated(
            tiny_dataset, tiny_model_factory,
            FederatedRunConfig(num_rounds=3, num_local_steps=3, seed=2),
        )
        assert not np.allclose(w1, w2)

    def test_thread_executor_matches_sequential(self, tiny_dataset, tiny_model_factory):
        base = dict(num_rounds=3, num_local_steps=3, batch_size=8, seed=5)
        h_seq, w_seq = run_federated(
            tiny_dataset, tiny_model_factory, FederatedRunConfig(executor="sequential", **base)
        )
        h_par, w_par = run_federated(
            tiny_dataset, tiny_model_factory,
            FederatedRunConfig(executor="thread", max_workers=3, **base),
        )
        np.testing.assert_allclose(w_seq, w_par)

    def test_unknown_algorithm_rejected(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(algorithm="sgd-magic", num_rounds=2)
        with pytest.raises(ConfigurationError):
            run_federated(tiny_dataset, tiny_model_factory, cfg)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            FederatedRunConfig(executor="gpu-cluster")

    def test_solver_kwargs_forwarded(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(
            algorithm="fedproxvr-svrg",
            num_rounds=2,
            num_local_steps=3,
            solver_kwargs={"iterate_selection": "average"},
        )
        history, _ = run_federated(tiny_dataset, tiny_model_factory, cfg)
        assert history.config["solver_iterate_selection"] == "average"


class _ManifestProbe:
    """Ledger stub: runs ``check`` when the manifest is written, just
    before round 1."""

    def __init__(self, check):
        self.check = check
        self.alive_at_manifest = None

    def write_manifest(self, run_config, *, entropy=None, attrs=None):
        self.alive_at_manifest = self.check()

    def commit_round(self, *args, **kwargs):
        pass

    def close(self, status):
        pass


class TestProbeModelLifetime:
    def test_probe_model_is_released_before_round_one(self):
        """The power-iteration probe runs on the first model the factory
        builds; nothing keeps it, so its probe-sized buffers are gone
        before training starts."""
        dataset = make_digits(
            num_devices=2, num_samples=60, min_size=20, max_size=20, seed=0
        )
        built = []

        def factory():
            model = make_paper_cnn_model(channel_scale=0.0625, seed=0)
            built.append(weakref.ref(model))
            return model

        def first_model_alive():
            gc.collect()
            return built[0]() is not None

        ledger = _ManifestProbe(first_model_alive)
        cfg = FederatedRunConfig(
            num_rounds=1, num_local_steps=1, batch_size=4, executor="thread",
            max_workers=2, seed=0,
        )
        run_federated(dataset, factory, cfg, ledger=ledger)
        # probe model, eval model, one model per client
        assert len(built) == 2 + dataset.num_devices
        assert ledger.alive_at_manifest is False
