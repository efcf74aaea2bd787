"""Tests for repro.core.estimators."""

import numpy as np
import pytest

from repro.core.estimators import (
    SARAHEstimator,
    SGDEstimator,
    SVRGEstimator,
    make_estimator,
)
from repro.exceptions import ConfigurationError
from repro.models import LinearRegressionModel, MultinomialLogisticModel


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    model = LinearRegressionModel(5, fit_intercept=False)
    X = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    w0 = rng.standard_normal(5)
    return model, X, y, w0


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [("sgd", SGDEstimator), ("svrg", SVRGEstimator), ("sarah", SARAHEstimator)],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_estimator(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_estimator("SVRG"), SVRGEstimator)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_estimator("adam")


class TestAnchorExactness:
    """At the anchor point, VR estimators must return the full gradient
    exactly — the property (44) the Lemma 1 proof starts from."""

    @pytest.mark.parametrize("name", ["svrg", "sarah"])
    def test_exact_at_anchor(self, name, problem):
        model, X, y, w0 = problem
        full = model.gradient(w0, X, y)
        est = make_estimator(name)
        est.start_epoch(w0, full)
        batch = slice(0, 8)
        v = est.estimate(model, X[batch], y[batch], w0)
        np.testing.assert_allclose(v, full, atol=1e-12)


class TestSVRG:
    def test_unbiasedness(self, problem):
        """E_B[v] equals the full gradient at any w (SVRG's defining
        property), checked by averaging over every size-1 batch."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        w_t = w0 + 0.3
        est = SVRGEstimator()
        est.start_epoch(w0, full0)
        estimates = []
        for i in range(X.shape[0]):
            # re-anchor so per-sample calls don't mutate state (SVRG is
            # stateless across estimates, so this is belt-and-braces)
            v = est.estimate(model, X[i : i + 1], y[i : i + 1], w_t)
            estimates.append(v)
        mean_v = np.mean(estimates, axis=0)
        np.testing.assert_allclose(mean_v, model.gradient(w_t, X, y), atol=1e-10)

    def test_variance_shrinks_near_anchor(self, problem):
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)

        def variance(w_t):
            est = SVRGEstimator()
            est.start_epoch(w0, full0)
            true = model.gradient(w_t, X, y)
            devs = []
            for i in range(X.shape[0]):
                v = est.estimate(model, X[i : i + 1], y[i : i + 1], w_t)
                devs.append(np.sum((v - true) ** 2))
            return np.mean(devs)

        near = variance(w0 + 1e-3)
        far = variance(w0 + 1.0)
        assert near < far / 100

    def test_estimate_before_start_raises(self, problem):
        model, X, y, w0 = problem
        with pytest.raises(ConfigurationError):
            SVRGEstimator().estimate(model, X[:2], y[:2], w0)

    def test_eval_counter(self, problem):
        model, X, y, w0 = problem
        est = SVRGEstimator()
        est.start_epoch(w0, model.gradient(w0, X, y))
        est.estimate(model, X[:4], y[:4], w0)
        est.estimate(model, X[:4], y[:4], w0)
        assert est.num_evaluations == 4
        est.reset_counter()
        assert est.num_evaluations == 0


class TestSARAH:
    def test_recursion_matches_formula(self, problem):
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        est = SARAHEstimator()
        v0 = est.start_epoch(w0, full0)
        w1 = w0 - 0.01 * v0
        batch = slice(3, 9)
        v1 = est.estimate(model, X[batch], y[batch], w1)
        expected = (
            model.gradient(w1, X[batch], y[batch])
            - model.gradient(w0, X[batch], y[batch])
            + full0
        )
        np.testing.assert_allclose(v1, expected, atol=1e-12)

    def test_recursion_tracks_previous_iterate(self, problem):
        """The second step must difference against w1, not w0."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        est = SARAHEstimator()
        v0 = est.start_epoch(w0, full0)
        w1 = w0 - 0.01 * v0
        v1 = est.estimate(model, X[:5], y[:5], w1)
        w2 = w1 - 0.01 * v1
        v2 = est.estimate(model, X[5:10], y[5:10], w2)
        expected = (
            model.gradient(w2, X[5:10], y[5:10])
            - model.gradient(w1, X[5:10], y[5:10])
            + v1
        )
        np.testing.assert_allclose(v2, expected, atol=1e-12)

    def test_fresh_instances_isolated(self, problem):
        """Two concurrent inner loops must not share recursion state."""
        model, X, y, w0 = problem
        full0 = model.gradient(w0, X, y)
        a, b = SARAHEstimator(), SARAHEstimator()
        a.start_epoch(w0, full0)
        b.start_epoch(w0 + 1.0, model.gradient(w0 + 1.0, X, y))
        va = a.estimate(model, X[:5], y[:5], w0 + 0.1)
        # interleaved call on b must not affect a's next estimate
        b.estimate(model, X[:5], y[:5], w0 + 2.0)
        va2_expected = (
            model.gradient(w0 + 0.2, X[5:8], y[5:8])
            - model.gradient(w0 + 0.1, X[5:8], y[5:8])
            + va
        )
        va2 = a.estimate(model, X[5:8], y[5:8], w0 + 0.2)
        np.testing.assert_allclose(va2, va2_expected, atol=1e-12)

    def test_estimate_before_start_raises(self, problem):
        model, X, y, w0 = problem
        with pytest.raises(ConfigurationError):
            SARAHEstimator().estimate(model, X[:2], y[:2], w0)


class TestInPlaceCombination:
    """SVRG and SARAH combine ``g_now - g_x + v`` in place into the fresh
    ``g_now``; the bits must equal the two-temporary expression."""

    @pytest.fixture(params=["linear", "mlr"])
    def any_problem(self, request, problem):
        if request.param == "linear":
            return problem
        rng = np.random.default_rng(1)
        model = MultinomialLogisticModel(6, 4, l2=1e-3)
        X = rng.standard_normal((40, 6))
        y = rng.integers(0, 4, 40)
        return model, X, y, model.init_parameters(0)

    def test_svrg_bits(self, any_problem):
        model, X, y, w0 = any_problem
        v0 = model.gradient(w0, X, y)
        est = SVRGEstimator()
        est.start_epoch(w0, v0)
        w_t = w0
        for step in range(4):
            batch = slice(8 * step, 8 * step + 8)
            w_t = w_t - 0.05 * v0
            expected = (
                model.gradient(w_t, X[batch], y[batch])
                - model.gradient(w0, X[batch], y[batch])
                + v0
            )
            v = est.estimate(model, X[batch], y[batch], w_t)
            assert v.tobytes() == expected.tobytes()

    def test_sarah_bits_and_no_alias(self, any_problem):
        model, X, y, w0 = any_problem
        v_prev = model.gradient(w0, X, y)
        est = SARAHEstimator()
        est.start_epoch(w0, v_prev)
        w_prev = w0
        for step in range(4):
            batch = slice(8 * step, 8 * step + 8)
            w_t = w_prev - 0.05 * v_prev
            expected = (
                model.gradient(w_t, X[batch], y[batch])
                - model.gradient(w_prev, X[batch], y[batch])
                + v_prev
            )
            v = est.estimate(model, X[batch], y[batch], w_t)
            assert v.tobytes() == expected.tobytes()
            assert not np.shares_memory(v, est._v_prev)
            w_prev, v_prev = w_t, expected
            v[...] = np.nan  # the caller owns the returned array


class TestSGD:
    def test_plain_minibatch_gradient(self, problem):
        model, X, y, w0 = problem
        est = SGDEstimator()
        est.start_epoch(w0, model.gradient(w0, X, y))
        w_t = w0 + 0.5
        v = est.estimate(model, X[:7], y[:7], w_t)
        np.testing.assert_allclose(v, model.gradient(w_t, X[:7], y[:7]))

    def test_start_epoch_returns_copy(self, problem):
        model, X, y, w0 = problem
        full = model.gradient(w0, X, y)
        est = SGDEstimator()
        v = est.start_epoch(w0, full)
        v[...] = 0.0
        assert full.any()  # caller's array untouched


class TestBatchedEstimators:
    """Stacked estimator recursions: each row must follow the same
    SVRG/SARAH recursion as a per-client sequential estimator."""

    def _stacks(self, seed=0, K=4, D=6):
        rng = np.random.default_rng(seed)
        W0 = rng.standard_normal((K, D))
        full = rng.standard_normal((K, D))
        return W0, full

    def test_factory_maps_sequential_classes(self):
        from repro.core.estimators import (
            BatchedSARAHEstimator,
            BatchedSGDEstimator,
            BatchedSVRGEstimator,
            make_batched_estimator,
        )

        assert isinstance(make_batched_estimator(SVRGEstimator), BatchedSVRGEstimator)
        assert isinstance(make_batched_estimator(SARAHEstimator), BatchedSARAHEstimator)
        assert isinstance(make_batched_estimator(SGDEstimator), BatchedSGDEstimator)

    def test_factory_rejects_unknown(self):
        from repro.core.estimators import GradientEstimator, make_batched_estimator
        from repro.exceptions import ConfigurationError

        class Custom(GradientEstimator):
            name = "custom"

            def start_epoch(self, w0, full_grad):
                return full_grad

            def estimate(self, model, X, y, w):
                return w

        with pytest.raises(ConfigurationError):
            make_batched_estimator(Custom)

    def test_start_epoch_returns_anchor_gradients(self):
        from repro.core.estimators import make_batched_estimator

        for cls in (SVRGEstimator, SARAHEstimator, SGDEstimator):
            W0, full = self._stacks()
            est = make_batched_estimator(cls)
            np.testing.assert_array_equal(est.start_epoch(W0, full), full)

    def test_rowwise_matches_sequential_recursion(self):
        """Drive batched and sequential estimators with the same gradient
        oracle and compare rows bitwise over several steps."""
        from repro.core.estimators import make_batched_estimator
        from repro.models import MultinomialLogisticModel
        from repro.models.batched import make_batch_kernel

        rng = np.random.default_rng(7)
        K, B, f, c = 3, 5, 4, 3
        models = [MultinomialLogisticModel(f, c, l2=0.01) for _ in range(K)]
        kernel = make_batch_kernel(models)
        D = models[0].num_parameters
        W0 = rng.standard_normal((K, D))
        full = np.stack([
            models[k].gradient(W0[k], rng.standard_normal((8, f)),
                               rng.integers(0, c, 8).astype(float))
            for k in range(K)
        ])

        for cls in (SVRGEstimator, SARAHEstimator, SGDEstimator):
            batched = make_batched_estimator(cls)
            seq = [cls() for _ in range(K)]
            V = batched.start_epoch(W0, full)
            for k in range(K):
                seq[k].start_epoch(W0[k].copy(), full[k].copy())
            W = W0 - 0.1 * V
            for _ in range(3):
                X = rng.standard_normal((K, B, f))
                y = rng.integers(0, c, size=(K, B)).astype(np.float64)
                V = batched.estimate(kernel, X, y, W)
                for k in range(K):
                    v_k = seq[k].estimate(models[k], X[k], y[k], W[k])
                    np.testing.assert_array_equal(V[k], v_k, err_msg=cls.__name__)
                assert batched.num_evaluations == seq[0].num_evaluations
                W = W - 0.1 * V
