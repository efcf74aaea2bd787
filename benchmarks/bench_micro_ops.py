"""Micro-benchmarks: throughput of the inner-loop primitives.

These are proper pytest-benchmark timings (many iterations) for the
operations the federated inner loop is made of: gradient estimators, the
quadratic prox, weighted aggregation, the im2col convolution, max-pool
and CNN gradients (at the training batch and at the smoothness probe's
fixed batch), the MLR gradient and local solve at the shape of one
``fleet-100k`` client, and the image-corpus build behind every image
dataset.
Use them to catch performance regressions; `--benchmark-compare` works.
"""

import itertools

import numpy as np
import pytest

from repro.core.estimators import make_estimator
from repro.core.local import FedProxVRLocalSolver
from repro.core.proximal import QuadraticProx
from repro.datasets import make_digits
from repro.datasets.fashion import garment_prototypes
from repro.datasets.imaging import synthesize_corpus
from repro.fl.aggregation import weighted_average
from repro.models import MultinomialLogisticModel, make_paper_cnn_model
from repro.nn import MaxPool2D
from repro.nn.im2col import col2im, im2col


@pytest.fixture(scope="module")
def logistic_problem():
    rng = np.random.default_rng(0)
    model = MultinomialLogisticModel(784, 10)
    X = rng.standard_normal((256, 784))
    y = rng.integers(0, 10, 256)
    w = model.init_parameters(0)
    return model, X, y, w


class TestEstimatorThroughput:
    @pytest.mark.parametrize("name", ["sgd", "svrg", "sarah"])
    def test_estimator_step(self, benchmark, name, logistic_problem):
        model, X, y, w = logistic_problem
        est = make_estimator(name)
        full = model.gradient(w, X, y)
        est.start_epoch(w, full)
        batch = slice(0, 32)
        w_t = w + 0.01

        benchmark(lambda: est.estimate(model, X[batch], y[batch], w_t))


@pytest.fixture(scope="module")
def fleet_problem():
    # one fleet-100k client: 60 features, 10 classes, a 150-row shard
    rng = np.random.default_rng(8)
    model = MultinomialLogisticModel(60, 10)
    X = rng.standard_normal((150, 60))
    y = rng.integers(0, 10, 150)
    return model, X, y, model.init_parameters(0)


class TestFleetShape:
    def test_mlr_gradient_fleet(self, benchmark, fleet_problem):
        model, X, y, w = fleet_problem
        X_batch, y_batch = X[:32].copy(), y[:32].copy()
        benchmark(lambda: model.gradient(w, X_batch, y_batch))

    def test_fedproxvr_svrg_solve_fleet(self, benchmark, fleet_problem):
        # one sequential client solve: tau=10 SVRG steps, B=32, mu=0.1
        model, X, y, w = fleet_problem
        solver = FedProxVRLocalSolver(
            step_size=0.05, num_steps=10, batch_size=32, mu=0.1, estimator="svrg"
        )
        benchmark(lambda: solver.solve(model, X, y, w, np.random.default_rng(0)))


class TestProxThroughput:
    def test_quadratic_prox_1m_params(self, benchmark):
        rng = np.random.default_rng(1)
        anchor = rng.standard_normal(1_000_000)
        x = rng.standard_normal(1_000_000)
        prox = QuadraticProx(0.1, anchor)
        benchmark(lambda: prox(x, 0.01))


class TestAggregationThroughput:
    def test_weighted_average_100_clients(self, benchmark):
        rng = np.random.default_rng(2)
        vectors = [rng.standard_normal(10_000) for _ in range(100)]
        weights = rng.uniform(0.5, 2.0, 100)
        out = np.empty(10_000)
        benchmark(lambda: weighted_average(vectors, weights, out=out))


def two_batches(rng, batch_size):
    """Two random image batches, served alternately.

    A ``Conv2D`` reuses the columns of an input it has just lowered, so
    timing one batch over and over would measure only that reuse.
    """
    batches = [
        (rng.standard_normal((batch_size, 784)), rng.integers(0, 10, batch_size))
        for _ in range(2)
    ]
    return itertools.cycle(batches)


class TestConvThroughput:
    def test_im2col_batch(self, benchmark):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((32, 8, 28, 28))
        benchmark(lambda: im2col(x, (5, 5), stride=1, padding=2))

    def test_col2im_batch(self, benchmark):
        rng = np.random.default_rng(4)
        x_shape = (32, 8, 28, 28)
        cols = rng.standard_normal((8 * 25, 32 * 28 * 28))
        benchmark(lambda: col2im(cols, x_shape, (5, 5), stride=1, padding=2))

    def test_cnn_gradient(self, benchmark):
        model = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.25, seed=0)
        batches = two_batches(np.random.default_rng(5), 64)
        w = model.init_parameters(0)
        benchmark(lambda: model.loss_and_gradient(w, *next(batches)))

    def test_maxpool_forward_backward_fig3(self, benchmark):
        # conv1's output in the fig3-cnn bench workload: B=8, 2 channels
        pool = MaxPool2D(2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2, 28, 28))
        g = rng.standard_normal((8, 2, 14, 14))

        def step():
            pool.forward(x, train=True)
            return pool.backward(g)

        benchmark(step)

    def test_cnn_gradient_fig3(self, benchmark):
        # the fig3-cnn bench workload's network and minibatch size
        model = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.0625, seed=0)
        batches = two_batches(np.random.default_rng(7), 8)
        w = model.init_parameters(0)
        benchmark(lambda: model.loss_and_gradient(w, *next(batches)))

    def test_maxpool_forward_probe(self, benchmark):
        # conv1's output on the smoothness probe's 88-sample batch
        pool = MaxPool2D(2)
        x = np.random.default_rng(8).standard_normal((88, 2, 28, 28))
        benchmark(lambda: pool.forward(x, train=True))

    def test_cnn_gradient_probe_batch(self, benchmark):
        # The smoothness probe of the fig3-cnn workload at seed 0: every
        # power-iteration gradient sees the same 88-sample batch, so
        # conv1 reuses its columns.
        dataset = make_digits(
            num_devices=4, num_samples=120, labels_per_device=2, min_size=30,
            max_size=30, seed=0,
        )
        X, y = dataset.global_train()
        model = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.0625, seed=0)
        w = model.init_parameters(0)
        benchmark(lambda: model.loss_and_gradient(w, X, y))


class TestCorpusThroughput:
    def test_fashion_corpus(self, benchmark):
        # make_fashion's perturbation; 600 images cross two chunk boundaries
        prototypes = garment_prototypes()
        benchmark(
            lambda: synthesize_corpus(
                prototypes, 600, seed=0, max_rotation=8.0, texture_std=0.25,
                noise_std=0.06,
            )
        )
