"""Micro-benchmark: sequential vs thread-pool client execution.

Semantics are identical (asserted by the test suite); this bench
measures the wall-clock effect of running clients concurrently when the
gradient work is BLAS-heavy and releases the GIL.  A companion pass
records the per-executor straggler gap (max − median client seconds,
which every executor times per client solve) and round seconds into
``benchmarks/results/micro_executor_straggler.json``.
"""

import numpy as np
import pytest

from repro.core.local import FedAvgLocalSolver
from repro.datasets import make_synthetic
from repro.fl.client import Client
from repro.fl.executor import SequentialExecutor, ThreadPoolClientExecutor
from repro.models import MultinomialLogisticModel


@pytest.fixture(scope="module")
def federation():
    dataset = make_synthetic(
        alpha=1.0, beta=1.0, num_devices=8, num_features=400,
        num_classes=10, min_size=400, max_size=800, seed=0,
    )
    solver = FedAvgLocalSolver(step_size=0.001, num_steps=10, batch_size=128)

    def model_factory():
        return MultinomialLogisticModel(dataset.num_features, dataset.num_classes)

    def clients():
        model = model_factory()
        return [
            Client(d.device_id, d, model, solver, base_seed=0)
            for d in dataset.devices
        ]

    w0 = model_factory().init_parameters(0)
    return clients, w0, model_factory


def test_sequential_round(benchmark, federation):
    clients_fn, w0, _ = federation
    clients = clients_fn()
    executor = SequentialExecutor()
    benchmark(lambda: executor.run_round(clients, w0, 1))


def test_threaded_round(benchmark, federation):
    clients_fn, w0, model_factory = federation
    clients = clients_fn()
    with ThreadPoolClientExecutor(model_factory, max_workers=4) as executor:
        benchmark(lambda: executor.run_round(clients, w0, 1))


def test_straggler_gap(federation, save_json):
    """Record sequential vs thread-pool straggler gaps and round seconds."""
    clients_fn, w0, model_factory = federation
    executors = {
        "sequential": SequentialExecutor(),
        "thread": ThreadPoolClientExecutor(model_factory, max_workers=4),
    }
    payload = {}
    try:
        for name, executor in executors.items():
            clients = clients_fn()
            executor.run_round(clients, w0, 1)
            secs = executor.last_client_seconds
            assert secs is not None and len(secs) == len(clients)
            payload[name] = {
                "straggler_gap": max(secs) - float(np.median(secs)),
                "round_seconds": sum(secs),
            }
    finally:
        for executor in executors.values():
            executor.close()
    save_json("micro_executor_straggler", payload)
    assert all(p["straggler_gap"] >= 0.0 for p in payload.values())
    print("straggler gaps:",
          {k: f"{v['straggler_gap']:.6f}s" for k, v in payload.items()})
