"""Tests for the local solvers (FedAvg / FedProx / FedProxVR / GD)."""

import numpy as np
import pytest

from repro.core.local import (
    FedAvgLocalSolver,
    FedProxLocalSolver,
    FedProxVRLocalSolver,
    GDLocalSolver,
)
from repro.exceptions import ConfigurationError
from repro.models import LinearRegressionModel, MultinomialLogisticModel


@pytest.fixture()
def convex_problem():
    rng = np.random.default_rng(0)
    model = MultinomialLogisticModel(6, 3)
    X = rng.standard_normal((60, 6))
    y = rng.integers(0, 3, 60)
    w0 = model.init_parameters(0)
    return model, X, y, w0


ETA = 0.05


class TestFedAvgLocalSolver:
    def test_decreases_loss(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedAvgLocalSolver(step_size=ETA, num_steps=30, batch_size=16)
        result = solver.solve(model, X, y, w0, np.random.default_rng(1))
        assert model.loss(result.w_local, X, y) < model.loss(w0, X, y)

    def test_zero_steps_returns_start(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedAvgLocalSolver(step_size=ETA, num_steps=0, batch_size=16)
        result = solver.solve(model, X, y, w0, np.random.default_rng(1))
        np.testing.assert_allclose(result.w_local, w0)

    def test_counts(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedAvgLocalSolver(step_size=ETA, num_steps=7, batch_size=16)
        result = solver.solve(model, X, y, w0, np.random.default_rng(1))
        assert result.num_steps == 7
        assert result.num_gradient_evaluations == 8  # 7 steps + 1 diagnostic

    def test_does_not_mutate_w_global(self, convex_problem):
        model, X, y, w0 = convex_problem
        snapshot = w0.copy()
        solver = FedAvgLocalSolver(step_size=ETA, num_steps=5, batch_size=8)
        solver.solve(model, X, y, w0, np.random.default_rng(2))
        np.testing.assert_array_equal(w0, snapshot)

    def test_batch_larger_than_data_uses_all(self):
        rng = np.random.default_rng(1)
        model = LinearRegressionModel(3, fit_intercept=False)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        solver = FedAvgLocalSolver(step_size=0.01, num_steps=3, batch_size=100)
        result = solver.solve(model, X, y, np.zeros(3), rng)
        # full-batch steps are deterministic GD here
        w = np.zeros(3)
        for _ in range(3):
            w = w - 0.01 * model.gradient(w, X, y)
        np.testing.assert_allclose(result.w_local, w)


class TestFedProxLocalSolver:
    def test_mu_zero_matches_fedavg(self, convex_problem):
        model, X, y, w0 = convex_problem
        avg = FedAvgLocalSolver(step_size=ETA, num_steps=10, batch_size=16)
        prox = FedProxLocalSolver(step_size=ETA, num_steps=10, batch_size=16, mu=0.0)
        r_avg = avg.solve(model, X, y, w0, np.random.default_rng(3))
        r_prox = prox.solve(model, X, y, w0, np.random.default_rng(3))
        np.testing.assert_allclose(r_avg.w_local, r_prox.w_local, atol=1e-12)

    def test_large_mu_stays_near_anchor(self, convex_problem):
        model, X, y, w0 = convex_problem
        small = FedProxLocalSolver(step_size=ETA, num_steps=20, batch_size=16, mu=0.01)
        large = FedProxLocalSolver(step_size=ETA, num_steps=20, batch_size=16, mu=100.0)
        r_small = small.solve(model, X, y, w0, np.random.default_rng(4))
        r_large = large.solve(model, X, y, w0, np.random.default_rng(4))
        assert np.linalg.norm(r_large.w_local - w0) < np.linalg.norm(
            r_small.w_local - w0
        )

    def test_reports_achieved_accuracy(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedProxLocalSolver(step_size=ETA, num_steps=30, batch_size=16, mu=0.5)
        result = solver.solve(model, X, y, w0, np.random.default_rng(5))
        assert result.achieved_accuracy is not None
        assert result.achieved_accuracy < 1.0  # made progress on J_n


class TestFedProxVRLocalSolver:
    @pytest.mark.parametrize("estimator", ["svrg", "sarah", "sgd"])
    def test_decreases_surrogate(self, estimator, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedProxVRLocalSolver(
            step_size=ETA, num_steps=30, batch_size=16, mu=0.1, estimator=estimator
        )
        result = solver.solve(model, X, y, w0, np.random.default_rng(6))
        assert model.loss(result.w_local, X, y) < model.loss(w0, X, y)
        assert result.achieved_accuracy is not None

    def test_name_reflects_estimator(self):
        solver = FedProxVRLocalSolver(
            step_size=0.1, num_steps=1, batch_size=4, mu=0.0, estimator="svrg"
        )
        assert solver.name == "fedproxvr-svrg"

    def test_theta_early_stopping(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = FedProxVRLocalSolver(
            step_size=ETA,
            num_steps=500,
            batch_size=32,
            mu=1.0,
            estimator="svrg",
            theta=0.9,
            check_interval=5,
        )
        result = solver.solve(model, X, y, w0, np.random.default_rng(7))
        assert result.diagnostics["stopped_early"] == 1.0
        assert result.num_steps < 500
        # the stopped iterate satisfies the certificate at its check point
        assert result.achieved_accuracy <= 0.9 + 0.2  # last-iterate drift tolerance

    @pytest.mark.parametrize(
        "theta,num_steps,stops", [(0.9, 500, True), (1e-9, 12, False)]
    )
    def test_gradient_count_under_theta_stopping(
        self, theta, num_steps, stops, convex_problem
    ):
        """Anchor + two per SVRG step + one per criterion check + the
        final audit: ``1 + 2 t + t // check_interval + 1``."""
        model, X, y, w0 = convex_problem
        solver = FedProxVRLocalSolver(
            step_size=ETA,
            num_steps=num_steps,
            batch_size=32,
            mu=1.0,
            estimator="svrg",
            theta=theta,
            check_interval=5,
            evaluate_final=True,
        )
        result = solver.solve(model, X, y, w0, np.random.default_rng(7))
        t = result.num_steps
        assert result.diagnostics["stopped_early"] == float(stops)
        assert (t < num_steps) == stops
        assert result.num_gradient_evaluations == 1 + 2 * t + t // 5 + 1

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            FedProxVRLocalSolver(
                step_size=0.1, num_steps=1, batch_size=4, mu=0.0, theta=1.5
            )

    def test_iterate_selection_modes_differ(self, convex_problem):
        model, X, y, w0 = convex_problem
        outs = {}
        for mode in ("random", "last", "average"):
            solver = FedProxVRLocalSolver(
                step_size=ETA,
                num_steps=15,
                batch_size=16,
                mu=0.1,
                estimator="sarah",
                iterate_selection=mode,
            )
            outs[mode] = solver.solve(model, X, y, w0, np.random.default_rng(8)).w_local
        assert not np.allclose(outs["last"], outs["average"])

    def test_random_selection_candidates_exclude_final(self, convex_problem):
        """Line 10 draws from {w^0..w^tau}, never w^{tau+1}."""
        model, X, y, w0 = convex_problem
        solver = FedProxVRLocalSolver(
            step_size=ETA,
            num_steps=1,
            batch_size=16,
            mu=0.0,
            estimator="svrg",
            iterate_selection="random",
            evaluate_final=False,
        )
        last_solver = FedProxVRLocalSolver(
            step_size=ETA,
            num_steps=1,
            batch_size=16,
            mu=0.0,
            estimator="svrg",
            iterate_selection="last",
            evaluate_final=False,
        )
        w_last = last_solver.solve(model, X, y, w0, np.random.default_rng(9)).w_local
        # tau=1: candidates are {w0, w1}; over many draws we must never
        # see the final iterate w2 == w_last.
        for seed in range(10):
            w_out = solver.solve(model, X, y, w0, np.random.default_rng(seed)).w_local
            assert not np.allclose(w_out, w_last)

    def test_evaluate_final_flag_skips_cost(self, convex_problem):
        model, X, y, w0 = convex_problem
        on = FedProxVRLocalSolver(
            step_size=ETA, num_steps=5, batch_size=16, mu=0.1, evaluate_final=True
        ).solve(model, X, y, w0, np.random.default_rng(10))
        off = FedProxVRLocalSolver(
            step_size=ETA, num_steps=5, batch_size=16, mu=0.1, evaluate_final=False
        ).solve(model, X, y, w0, np.random.default_rng(10))
        assert off.final_surrogate_grad_norm is None
        assert off.num_gradient_evaluations == on.num_gradient_evaluations - 1

    def test_concurrent_solves_do_not_share_state(self, convex_problem):
        """Regression test for the shared-estimator race: interleaving a
        second solve must not change the first one's result."""
        model, X, y, w0 = convex_problem
        solver = FedProxVRLocalSolver(
            step_size=ETA, num_steps=10, batch_size=16, mu=0.1, estimator="sarah"
        )
        alone = solver.solve(model, X, y, w0, np.random.default_rng(11)).w_local
        _ = solver.solve(model, X, y, w0 + 1.0, np.random.default_rng(12))
        again = solver.solve(model, X, y, w0, np.random.default_rng(11)).w_local
        np.testing.assert_array_equal(alone, again)


class TestGDLocalSolver:
    def test_deterministic(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = GDLocalSolver(step_size=ETA, num_steps=10, mu=0.1)
        a = solver.solve(model, X, y, w0, np.random.default_rng(1)).w_local
        b = solver.solve(model, X, y, w0, np.random.default_rng(999)).w_local
        np.testing.assert_array_equal(a, b)

    def test_full_pass_cost_accounting(self, convex_problem):
        model, X, y, w0 = convex_problem
        solver = GDLocalSolver(step_size=ETA, num_steps=4, batch_size=16, mu=0.0)
        result = solver.solve(model, X, y, w0, np.random.default_rng(1))
        units_per_pass = int(np.ceil(60 / 16))
        assert result.num_gradient_evaluations == 5 * units_per_pass

    def test_converges_on_quadratic(self):
        rng = np.random.default_rng(2)
        model = LinearRegressionModel(4, fit_intercept=False)
        X = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        y = X @ w_true
        L = model.smoothness(X)
        solver = GDLocalSolver(step_size=1.0 / L, num_steps=500, mu=0.0)
        result = solver.solve(model, X, y, np.zeros(4), rng)
        np.testing.assert_allclose(result.w_local, w_true, atol=1e-3)


class TestGatherMinibatches:
    """The batched gather draws and copies exactly like per-client sampling."""

    @pytest.mark.parametrize(
        "sizes, float_labels",
        [
            ((40, 25, 60), False),  # every shard larger than B: sampled
            ((8, 8, 8), False),  # every shard one batch: taken whole
            ((40, 25, 60), True),  # float-valued labels
        ],
        ids=["sampled", "full-shard", "float-labels"],
    )
    def test_matches_per_client_sampling(self, sizes, float_labels):
        rng = np.random.default_rng(11)
        shards = []
        for n in sizes:
            X = rng.standard_normal((n, 5))
            y = rng.standard_normal(n) if float_labels else rng.integers(0, 3, n)
            shards.append((X, y))
        solver = FedAvgLocalSolver(step_size=ETA, num_steps=1, batch_size=8)
        B, f = solver._cohort_geometry(shards)
        gens = [np.random.default_rng(100 + k) for k in range(len(shards))]
        twins = [np.random.default_rng(100 + k) for k in range(len(shards))]
        X_out = np.empty((len(shards), B, f))
        y_out = np.empty((len(shards), B), dtype=shards[0][1].dtype)
        for _ in range(3):  # consecutive steps keep every stream aligned
            solver._gather_minibatches(shards, gens, X_out, y_out)
            for k, (X, y) in enumerate(shards):
                idx = solver._sample_batch(twins[k], X.shape[0])
                assert X_out[k].tobytes() == X[idx].tobytes()
                assert y_out[k].tobytes() == y[idx].tobytes()
        for gen, twin in zip(gens, twins):
            assert gen.bit_generator.state == twin.bit_generator.state
