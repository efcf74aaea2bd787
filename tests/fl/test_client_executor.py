"""Tests for repro.fl.client and repro.fl.executor."""

import sys

import numpy as np
import pytest

from repro.core.local import FedAvgLocalSolver, FedProxVRLocalSolver
from repro.fl.client import Client
from repro.fl.executor import SequentialExecutor, ThreadPoolClientExecutor
from repro.models import MultinomialLogisticModel, make_mlp_model


def make_clients(dataset, solver=None, seed=0, model=None):
    """One client per device, all sharing ``model`` (a fresh MLR by default)."""
    solver = solver or FedAvgLocalSolver(step_size=0.05, num_steps=5, batch_size=8)
    if model is None:
        model = MultinomialLogisticModel(dataset.num_features, dataset.num_classes)
    return [
        Client(dev.device_id, dev, model, solver, base_seed=seed)
        for dev in dataset.devices
    ]


class _OffLimits:
    """A client's own model that the thread pool must never use."""

    def __getattr__(self, name):
        raise AssertionError(f"the pool used a client's own model (.{name})")


class TestClient:
    def test_round_rng_deterministic(self, tiny_dataset):
        c = make_clients(tiny_dataset)[0]
        a = c.round_rng(3).standard_normal(4)
        b = c.round_rng(3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c.round_rng(4).standard_normal(4))

    def test_local_update_reproducible(self, tiny_dataset):
        clients = make_clients(tiny_dataset)
        c = clients[0]
        w0 = c.model.init_parameters(0)
        r1 = c.local_update(w0, round_index=1)
        r2 = c.local_update(w0, round_index=1)
        np.testing.assert_array_equal(r1.w_local, r2.w_local)

    def test_num_train(self, tiny_dataset):
        c = make_clients(tiny_dataset)[0]
        assert c.num_train == tiny_dataset.devices[0].num_train

    def test_evaluate_splits(self, tiny_dataset):
        c = make_clients(tiny_dataset)[0]
        w0 = c.model.init_parameters(0)
        for split in ("train", "test"):
            acc = c.evaluate(w0, split=split)
            assert acc is None or 0.0 <= acc <= 1.0
        with pytest.raises(ValueError):
            c.evaluate(w0, split="validation")


class TestExecutors:
    def test_sequential_order(self, tiny_dataset):
        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        results = SequentialExecutor().run_round(clients, w0, 1)
        assert len(results) == len(clients)

    def test_thread_matches_sequential(self, tiny_dataset):
        """Worker models give the bits of the clients' shared model.

        An MLP has layer caches, and 3 workers serve 6 clients over two
        rounds, so each worker model solves several clients in turn;
        state leaking between them, or two solves on one model, fails
        the exact checks.  A short switch interval forces thread
        switches inside the solves.
        """

        def factory():
            return make_mlp_model(
                tiny_dataset.num_features, tiny_dataset.num_classes, (6,), seed=0
            )

        solver = FedProxVRLocalSolver(
            step_size=0.05, num_steps=5, batch_size=8, mu=0.1
        )
        clients = make_clients(tiny_dataset, solver=solver, model=factory())
        w0 = clients[0].model.init_parameters(0)
        sequential = SequentialExecutor()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolClientExecutor(factory, max_workers=3) as pool:
                rounds = [
                    (
                        sequential.run_round(clients, w0, s),
                        pool.run_round(clients, w0, s),
                    )
                    for s in (1, 2)
                ]
        finally:
            sys.setswitchinterval(interval)
        for seq_results, par_results in rounds:
            for rs, rp in zip(seq_results, par_results):
                np.testing.assert_array_equal(rs.w_local, rp.w_local)
                assert rs.num_steps == rp.num_steps
                assert rs.num_gradient_evaluations == rp.num_gradient_evaluations
                assert rs.start_grad_norm == rp.start_grad_norm
                assert rs.final_surrogate_grad_norm is not None
                assert rs.final_surrogate_grad_norm == rp.final_surrogate_grad_norm

    def test_closed_executor_rejects_work(self, tiny_dataset, tiny_model_factory):
        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        pool = ThreadPoolClientExecutor(tiny_model_factory, max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_round(clients, w0, 1)

    def test_close_idempotent(self, tiny_model_factory):
        pool = ThreadPoolClientExecutor(tiny_model_factory, max_workers=1)
        pool.close()
        pool.close()  # must not raise


class TestThreadPoolSizing:
    def test_default_max_workers_sized_on_first_use(
        self, tiny_dataset, tiny_model_factory
    ):
        import os

        clients = make_clients(tiny_dataset)
        with ThreadPoolClientExecutor(tiny_model_factory) as pool:
            w0 = clients[0].model.init_parameters(0)
            pool.run_round(clients, w0, 1)
            expected = max(1, min(len(clients), os.cpu_count() or 1))
            assert pool._pool._max_workers == expected

    def test_builds_one_model_per_worker(self, tiny_dataset, tiny_model_factory):
        """Exactly ``max_workers`` models, whatever the rounds or cohort
        sizes, and the clients' own model is never used."""
        built = []

        def factory():
            built.append(tiny_model_factory())
            return built[-1]

        clients = make_clients(tiny_dataset, model=_OffLimits())
        w0 = tiny_model_factory().init_parameters(0)
        with ThreadPoolClientExecutor(factory, max_workers=2) as pool:
            assert built == []  # built on first use
            for s in (1, 2):
                assert len(pool.run_round(clients, w0, s)) == len(clients)
            pool.run_round(clients[:3], w0, 3)
        assert len(built) == 2


class TestProcessPoolExecutor:
    def test_closed_rejects_work(self, tiny_dataset):
        from repro.fl.executor_mp import ProcessPoolClientExecutor

        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        pool = ProcessPoolClientExecutor(max_workers=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_round(clients, w0, 1)
        pool.close()  # idempotent

    def test_unregistered_client_rejected(self, tiny_dataset):
        from repro.fl.executor_mp import ProcessPoolClientExecutor

        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        with ProcessPoolClientExecutor(max_workers=2) as pool:
            pool.run_round(clients[:3], w0, 1)
            stranger = make_clients(tiny_dataset)[0]
            with pytest.raises(RuntimeError, match="registered"):
                pool.run_round([stranger], w0, 2)

    def test_subset_rounds_match_sequential(self, tiny_dataset):
        from repro.fl.executor_mp import ProcessPoolClientExecutor

        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        with ProcessPoolClientExecutor(max_workers=2) as pool:
            pool.register_clients(clients)
            subset = clients[2:5]
            got = pool.run_round(subset, w0, 3)
        expected = SequentialExecutor().run_round(clients[2:5], w0, 3)
        for rp, rs in zip(got, expected):
            np.testing.assert_array_equal(rp.w_local, rs.w_local)

    def test_traced_run_emits_parented_external_spans(self, tiny_dataset):
        from repro.fl.executor_mp import ProcessPoolClientExecutor
        from repro.obs import InMemorySink, telemetry

        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        sink = InMemorySink()
        telemetry.configure([sink])
        try:
            with ProcessPoolClientExecutor(max_workers=2) as pool:
                with telemetry.span("round", s=1) as round_span:
                    pool.run_round(clients, w0, 1)
                    round_id = round_span.context()["span_id"]
                seconds = pool.last_client_seconds
        finally:
            telemetry.shutdown()
        solves = [
            e for e in sink.by_type("span") if e["name"] == "local_solve"
        ]
        assert len(solves) == len(clients)
        for span in solves:
            # worker timings come home as external spans: parented on
            # the coordinator's round span, tagged with the worker's
            # process name, ids allocated parent-side (no collisions)
            assert span["parent_id"] == round_id
            assert span["process"]
            assert span["duration"] > 0.0
        ids = [e["span_id"] for e in sink.by_type("span")]
        assert len(set(ids)) == len(ids)
        assert seconds is not None and len(seconds) == len(clients)

    def test_untraced_run_reports_client_seconds(self, tiny_dataset):
        from repro.fl.executor_mp import ProcessPoolClientExecutor
        from repro.obs import telemetry

        assert not telemetry.enabled
        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        with ProcessPoolClientExecutor(max_workers=2) as pool:
            pool.run_round(clients, w0, 1)
            seconds = pool.last_client_seconds
        assert seconds is not None and len(seconds) == len(clients)
        assert all(s > 0.0 for s in seconds)


class TestBatchedCohortTracing:
    def test_cohort_solve_span_carries_group_signature(self, tiny_dataset):
        from repro.fl.executor import BatchedCohortExecutor
        from repro.obs import InMemorySink, telemetry

        clients = make_clients(tiny_dataset)
        w0 = clients[0].model.init_parameters(0)
        sink = InMemorySink()
        telemetry.configure([sink])
        try:
            BatchedCohortExecutor().run_round(clients, w0, 1)
        finally:
            telemetry.shutdown()
        cohorts = [
            e for e in sink.by_type("span") if e["name"] == "cohort_solve"
        ]
        assert cohorts, "homogeneous MLR cohort must take the batched path"
        for span in cohorts:
            signature = span["attrs"]["signature"]
            assert "/B=" in signature  # "<arch-sig>/B=<effective-batch>"
            assert span["attrs"]["cohort_size"] >= 1


@pytest.fixture(scope="module")
def fig2_fashion():
    """An 8-device federation in the Fig. 2 (MLR, Fashion-like) mould."""
    from repro.datasets import make_fashion

    return make_fashion(
        num_devices=8,
        num_samples=320,
        labels_per_device=2,
        min_size=37,
        max_size=270,
        seed=0,
    )


class TestBatchedPathTaken:
    """The batched executor really stacks the Fig. 2 cohorts.

    A solver whose ``solve_cohort`` returns ``None``, or a model with no
    batch kernel, falls back to per-client solves with the same bits, so
    no equivalence test and no speed ratio at this scale notices.  The
    executor's counters do: 8 clients over 2 rounds must all be batched.
    """

    @pytest.mark.parametrize(
        "algorithm, mu, solver_kwargs",
        [
            ("fedavg", 0.0, {}),
            ("fedproxvr-svrg", 0.1, {"evaluate_final": False}),
            ("fedproxvr-sarah", 0.1, {"evaluate_final": False}),
        ],
        ids=["fedavg", "fedproxvr-svrg", "fedproxvr-sarah"],
    )
    def test_every_client_is_solved_in_a_cohort(
        self, fig2_fashion, algorithm, mu, solver_kwargs
    ):
        from repro.fl.runner import FederatedRunConfig, run_federated
        from repro.obs import InMemorySink, telemetry

        sink = InMemorySink()
        telemetry.configure([sink])
        try:
            run_federated(
                fig2_fashion,
                lambda: MultinomialLogisticModel(
                    fig2_fashion.num_features, fig2_fashion.num_classes
                ),
                FederatedRunConfig(
                    algorithm=algorithm,
                    num_rounds=2,
                    num_local_steps=20,
                    beta=7.0,
                    mu=mu,
                    batch_size=32,
                    seed=1,
                    eval_every=2,
                    executor="batched",
                    solver_kwargs=solver_kwargs,
                ),
            )
        finally:
            telemetry.shutdown()

        def total(name):
            return sum(
                e["metrics"].get(name, {}).get("total", 0.0)
                for e in sink.by_type("round_metrics")
            )

        assert total("fl.executor.batched_clients") == 16
        assert total("fl.executor.fallback_clients") == 0
