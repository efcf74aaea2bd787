"""Tests for certificates, FSVRG, best_mu_for_theta, and the CLI."""

import numpy as np
import pytest

from repro.core import theory
from repro.core.certificates import (
    EmpiricalConstants,
    certificate_report,
    estimate_delta0,
    estimate_sigma_bar_sq,
    measure_constants,
    predicted_global_iterations,
)
from repro.fl.fsvrg import run_fsvrg
from repro.core.theory import ProblemConstants
from repro.cli import build_dataset, build_model_factory, main
from repro.exceptions import ConfigurationError, InfeasibleParametersError
from repro.fl.runner import FederatedRunConfig
from repro.models import MultinomialLogisticModel


class TestBestMuForTheta:
    CONST = ProblemConstants(L=1.0, lam=0.5, sigma_bar_sq=0.0)

    def test_returns_positive_factor(self):
        mu = theory.best_mu_for_theta(0.1, self.CONST)
        assert theory.federated_factor(0.1, mu, self.CONST) > 0

    def test_is_a_maximum(self):
        mu = theory.best_mu_for_theta(0.1, self.CONST)
        best = theory.federated_factor(0.1, mu, self.CONST)
        assert theory.federated_factor(0.1, mu * 1.2, self.CONST) <= best + 1e-12
        assert theory.federated_factor(0.1, mu * 0.8, self.CONST) <= best + 1e-12

    def test_infeasible_theta_raises(self):
        cap = theory.theta_accuracy_cap(0.0)
        with pytest.raises(InfeasibleParametersError):
            theory.best_mu_for_theta(cap * 1.05, self.CONST)


class TestCertificates:
    def test_measure_constants_on_convex_federation(self, tiny_dataset):
        model = MultinomialLogisticModel(
            tiny_dataset.num_features, tiny_dataset.num_classes
        )
        consts = measure_constants(model, tiny_dataset, seed=0)
        assert consts.L > 0
        assert consts.lam == pytest.approx(0.0, abs=1e-4)  # convex model
        assert consts.sigma_bar_sq > 0  # heterogeneous federation
        assert consts.delta0 > 0

    def test_sigma_estimate_zero_for_identical_devices(self, tiny_dataset):
        from repro.datasets.base import DeviceData, FederatedDataset

        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, 20)
        devices = [
            DeviceData(i, X.copy(), y.copy(), np.zeros((0, 4)), np.zeros(0))
            for i in range(3)
        ]
        ds = FederatedDataset(devices, num_features=4, num_classes=3)
        model = MultinomialLogisticModel(4, 3)
        w = model.init_parameters(0)
        assert estimate_sigma_bar_sq(model, ds, [w]) == pytest.approx(0.0, abs=1e-18)

    def test_delta0_nonnegative_and_reasonable(self, tiny_dataset):
        model = MultinomialLogisticModel(
            tiny_dataset.num_features, tiny_dataset.num_classes
        )
        w0 = model.init_parameters(0)
        X, y = tiny_dataset.global_train()
        delta = estimate_delta0(model, tiny_dataset, w0, optimizer_steps=100)
        assert 0 <= delta <= model.loss(w0, X, y)

    def test_predicted_iterations_positive(self):
        consts = EmpiricalConstants(L=1.0, lam=0.1, sigma_bar_sq=0.5, delta0=2.0)
        mu = theory.best_mu_for_theta(0.05, consts.to_problem_constants())
        T = predicted_global_iterations(consts, theta=0.05, mu=mu, eps=0.01)
        assert T > 0

    def test_report_mentions_all_constants(self):
        consts = EmpiricalConstants(L=2.0, lam=0.1, sigma_bar_sq=0.5, delta0=1.0)
        text = certificate_report(consts, theta=0.05, mu=50.0, eps=0.01)
        for token in ("L", "lambda", "sigma_bar^2", "Delta", "Theta"):
            assert token in text

    def test_report_handles_infeasible(self):
        consts = EmpiricalConstants(L=2.0, lam=0.1, sigma_bar_sq=0.5, delta0=1.0)
        text = certificate_report(consts, theta=0.9, mu=0.2, eps=0.01)
        assert "no guarantee" in text


class TestFSVRG:
    def test_converges(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(
            num_rounds=15, num_local_steps=8, beta=5.0, batch_size=8,
            seed=2, eval_every=5,
        )
        history, w = run_fsvrg(tiny_dataset, tiny_model_factory, cfg)
        assert history.algorithm == "fsvrg"
        assert history.final("train_loss") < history.records[0].train_loss
        assert w.shape == (tiny_model_factory().num_parameters,)

    def test_reproducible(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(num_rounds=4, num_local_steps=4, seed=5)
        _, w1 = run_fsvrg(tiny_dataset, tiny_model_factory, cfg)
        _, w2 = run_fsvrg(tiny_dataset, tiny_model_factory, cfg)
        np.testing.assert_array_equal(w1, w2)

    def test_history_config_recorded(self, tiny_dataset, tiny_model_factory):
        cfg = FederatedRunConfig(num_rounds=3, num_local_steps=2, beta=7.0, seed=0)
        history, _ = run_fsvrg(tiny_dataset, tiny_model_factory, cfg)
        assert history.config["beta"] == 7.0
        assert history.config["algorithm"] == "fsvrg"


class TestCLI:
    def test_build_dataset_names(self):
        ds = build_dataset("synthetic", num_devices=4, num_samples=200, seed=0)
        assert ds.num_devices == 4
        with pytest.raises(ConfigurationError):
            build_dataset("imagenet", num_devices=4, num_samples=200, seed=0)

    def test_build_model_factory(self):
        ds = build_dataset("synthetic", num_devices=4, num_samples=200, seed=0)
        model = build_model_factory("mlr", ds)()
        assert model.num_parameters > 0
        with pytest.raises(ConfigurationError):
            build_model_factory("transformer", ds)

    def test_cnn_requires_square_features(self):
        ds = build_dataset("synthetic", num_devices=4, num_samples=200, seed=0)
        # synthetic has 60 features: not a square image
        with pytest.raises(ConfigurationError):
            build_model_factory("cnn", ds)

    def test_theory_command(self, capsys):
        code = main(["theory", "--beta", "10", "--theta", "0.1", "--mu", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out and "Theorem 1" in out

    def test_optimize_command(self, capsys):
        code = main(["optimize", "--points", "2"])
        assert code == 0
        assert "beta*" in capsys.readouterr().out

    def test_run_command_small(self, capsys, tmp_path):
        out_path = tmp_path / "run.ledger.jsonl"
        code = main([
            "run", "--dataset", "synthetic", "--devices", "4",
            "--rounds", "3", "--tau", "2", "--eval-every", "3",
            "--ledger", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()

    def test_compare_command_small(self, capsys):
        code = main([
            "compare", "--dataset", "synthetic", "--devices", "4",
            "--rounds", "3", "--tau", "2", "--eval-every", "3",
            "--algorithms", "fedavg", "fedproxvr-svrg",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "fedproxvr-svrg" in out

    def test_error_exit_code(self, capsys):
        code = main([
            "run", "--dataset", "synthetic", "--devices", "4",
            "--rounds", "3", "--tau", "2", "--algorithm", "nope",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
