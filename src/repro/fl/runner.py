"""High-level entry point: configure and run one federated experiment.

``run_federated`` is the function the examples and benchmarks call: it
estimates the smoothness constant, derives the paper's step size
``eta = 1/(beta L)``, builds clients/solver/server, trains for ``T``
rounds, and returns the :class:`TrainingHistory` plus the final model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.algorithms import make_local_solver
from repro.datasets.base import FederatedDataset, LazyFederatedDataset
from repro.exceptions import ConfigurationError
from repro.fl.client import Client
from repro.fl.delays import DelayModel, make_uniform_delays
from repro.fl.executor import (
    BatchedCohortExecutor,
    ClientExecutor,
    SequentialExecutor,
    ThreadPoolClientExecutor,
)
from repro.fl.registry import EagerClientPool, LazyClientPool
from repro.fl.server import FederatedServer
from repro.fl.history import TrainingHistory
from repro.models.base import Model
from repro.obs import telemetry
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.smoothness import estimate_smoothness_power_iteration
from repro.utils.validation import check_positive, check_positive_int

#: valid ``FederatedRunConfig.executor`` values (see docs/PERFORMANCE.md).
EXECUTOR_CHOICES = ("sequential", "thread", "batched", "process")


def make_executor(
    name: str,
    model_factory: Callable[[], Model],
    max_workers: Optional[int] = None,
) -> ClientExecutor:
    """Build a :class:`ClientExecutor` from its config name.

    Only the thread pool calls ``model_factory``: once per worker.
    """
    if name == "sequential":
        return SequentialExecutor()
    if name == "batched":
        return BatchedCohortExecutor()
    if name == "thread":
        return ThreadPoolClientExecutor(model_factory, max_workers=max_workers)
    if name == "process":
        # Imported lazily: the module pulls in multiprocessing machinery
        # that sequential runs never need.
        from repro.fl.executor_mp import ProcessPoolClientExecutor

        return ProcessPoolClientExecutor(max_workers=max_workers)
    raise ConfigurationError(
        f"executor must be one of {EXECUTOR_CHOICES}, got {name!r}"
    )


@dataclass
class FederatedRunConfig:
    """Everything needed to run one experiment.

    Attributes mirror the paper's notation: ``num_rounds`` is ``T``,
    ``num_local_steps`` is ``tau``, ``beta`` parametrizes the step size,
    ``mu`` is the proximal penalty, ``batch_size`` is ``B``.

    ``smoothness`` overrides the automatic ``L`` estimate; leave as
    ``None`` to use the model's analytic value (convex models) or a
    Hessian power-iteration probe (neural models).

    Massive-cohort knobs (ROADMAP item 1): ``virtual_clients`` turns on
    the lazy O(K)-per-round path (``None`` auto-enables it for
    :class:`~repro.datasets.base.LazyFederatedDataset` inputs);
    ``lru_capacity`` bounds the hydrated-client pool (``None`` sizes it
    automatically); ``max_eval_clients`` caps the metrics pass at a
    weighted client sample; ``smoothness_probe_devices`` bounds how many
    shards the lazy path concatenates to estimate ``L`` (federations at
    or below the bound reproduce the eager estimate exactly).
    """

    algorithm: str = "fedproxvr-sarah"
    num_rounds: int = 50
    num_local_steps: int = 10
    beta: float = 5.0
    mu: float = 0.1
    batch_size: int = 32
    smoothness: Optional[float] = None
    client_fraction: float = 1.0
    eval_every: int = 1
    executor: str = "sequential"
    max_workers: Optional[int] = None
    seed: int = 0
    solver_kwargs: Dict[str, object] = field(default_factory=dict)
    delay_model: Optional[DelayModel] = None
    virtual_clients: Optional[bool] = None
    lru_capacity: Optional[int] = None
    max_eval_clients: Optional[int] = None
    smoothness_probe_devices: int = 32

    def __post_init__(self) -> None:
        check_positive_int("num_rounds", self.num_rounds)
        check_positive_int("num_local_steps", self.num_local_steps, minimum=0)
        check_positive("beta", self.beta)
        check_positive("mu", self.mu, strict=False)
        check_positive_int("batch_size", self.batch_size)
        check_positive_int("eval_every", self.eval_every)
        if self.lru_capacity is not None:
            check_positive_int("lru_capacity", self.lru_capacity)
        if self.max_eval_clients is not None:
            check_positive_int("max_eval_clients", self.max_eval_clients)
        check_positive_int(
            "smoothness_probe_devices", self.smoothness_probe_devices
        )
        if self.executor not in EXECUTOR_CHOICES:
            raise ConfigurationError(
                f"executor must be one of {EXECUTOR_CHOICES}, "
                f"got {self.executor!r}"
            )


def resolve_smoothness(
    model: Model,
    dataset: FederatedDataset,
    *,
    override: Optional[float] = None,
    seed: SeedLike = 0,
    probe_devices: Optional[int] = None,
) -> float:
    """Pick ``L``: explicit override > analytic formula > power iteration.

    ``probe_devices`` bounds the estimate to the first that-many shards
    — the lazy massive-cohort path's way of keeping setup sublinear in
    ``N``.  When the bound covers the whole federation (always true for
    eager callers that leave it ``None``) the estimate equals the
    historical full-corpus value bit-for-bit.
    """
    if override is not None:
        return check_positive("smoothness", override)
    if probe_devices is not None and hasattr(dataset, "probe_train"):
        X, y = dataset.probe_train(probe_devices)
    else:
        X, y = dataset.global_train()
    analytic = model.smoothness(X)
    if analytic is not None and analytic > 0:
        return _finite_smoothness(analytic, "the analytic formula")
    w0 = model.init_parameters(seed)
    probe = estimate_smoothness_power_iteration(
        lambda w: model.gradient(w, X, y), w0, seed=seed
    )
    if probe <= 0:
        raise ConfigurationError("could not estimate a positive smoothness L")
    return _finite_smoothness(probe, "the power-iteration probe")


def _finite_smoothness(L: float, source: str) -> float:
    """``L`` as a float; a non-finite value cannot size a step."""
    if not np.isfinite(L):
        raise ConfigurationError(
            f"smoothness L from {source} is not finite (L={L}); the step "
            "size 1/(beta*L) needs a finite positive L"
        )
    return float(L)


def build_clients(
    dataset: FederatedDataset, model: Model, solver, *, seed: int
) -> list:
    """One client per device shard, all on ``model`` (the eager O(N) path)."""
    return [
        Client(
            client_id=dev.device_id,
            data=dev,
            model=model,
            solver=solver,
            base_seed=seed,
        )
        for dev in dataset.devices
    ]


def default_lru_capacity(
    num_devices: int, client_fraction: float, override: Optional[int] = None
) -> int:
    """Hydrated-client pool size: the override, else an automatic choice.

    Full participation needs the whole population resident anyway; under
    sampling the pool holds a few rounds' worth of cohorts (hot clients
    re-selected soon stay hydrated) with a floor of 64.
    """
    if override is not None:
        return min(int(override), num_devices)
    if client_fraction >= 1.0:
        return num_devices
    k = max(1, int(round(client_fraction * num_devices)))
    return min(num_devices, max(64, 4 * k))


def build_client_pool(
    dataset,
    model: Model,
    solver,
    *,
    seed: int,
    virtual: bool,
    client_fraction: float = 1.0,
    lru_capacity: Optional[int] = None,
):
    """Build the server's client source.

    ``virtual=False``: the classic eager path — ``N`` clients up front,
    wrapped in an :class:`~repro.fl.registry.EagerClientPool`.
    ``virtual=True``: an :class:`~repro.fl.registry.LazyClientPool` that
    registers only packed metadata and hydrates per-round cohorts on
    demand; works with lazy *and* eager datasets (for the latter the
    shards are already resident but the O(N) client objects are still
    avoided).  Every client holds ``model``.
    """
    if not virtual:
        return EagerClientPool(build_clients(dataset, model, solver, seed=seed))
    return LazyClientPool(
        dataset,
        model,
        solver,
        base_seed=seed,
        capacity=default_lru_capacity(
            dataset.num_devices, client_fraction, lru_capacity
        ),
    )


def bind_monitor_theory(
    monitors, *, beta: float, mu: float, L: float
) -> None:
    """Pin a monitor suite to the run's Theorem-1 constants.

    θ comes from eq. (22) — the Lemma-1 equality point the §4.3
    optimizer targets — via the authoritative ``core.theory`` form
    (this module sits above ``core`` in the layering DAG, unlike the
    monitors themselves).  Configurations outside Lemma 1's domain
    (β ≤ 3, the injected-divergence CI demo being the canonical case)
    leave the suite unbound, which degrades the Theorem-1 monitor to
    its monotone-descent fallback.
    """
    from repro.core.theory import ProblemConstants, theta_from_beta
    from repro.exceptions import InfeasibleParametersError

    try:
        theta = theta_from_beta(mu, beta, ProblemConstants(L=L, lam=0.0))
    except InfeasibleParametersError:
        return
    if not 0.0 < theta < 1.0:
        return
    monitors.bind_theory(beta=beta, mu=mu, L=L, theta=theta)


def run_federated(
    dataset: FederatedDataset,
    model_factory: Callable[[], Model],
    config: FederatedRunConfig,
    *,
    w0: Optional[np.ndarray] = None,
    verbose: bool = False,
    ledger=None,
    monitors=None,
) -> Tuple[TrainingHistory, np.ndarray]:
    """Run one federated experiment end to end.

    Parameters
    ----------
    dataset:
        The federated data (one shard per device).
    model_factory:
        Zero-argument callable building a fresh ``Model``.  It is called
        for the smoothness probe's model, which nothing keeps once ``L``
        is known, then for one model that the server's evaluation and
        every client share, and by the thread pool once per worker.
        The count does not grow with the number of clients; forked
        process workers each hold a copy of the shared model.
    config:
        See :class:`FederatedRunConfig`.
    w0:
        Optional starting global model (defaults to the model's own
        initialization with ``config.seed``).
    ledger:
        Optional :class:`repro.obs.RunLedger`; receives the run
        manifest up front, one committed record per round, and is
        closed (with a ``completed`` / ``diverged`` / ``failed``
        status) before this function returns.  Only
        ``write_manifest``, ``commit_round`` and ``close`` are called,
        so any object with those three methods works.  To record the
        run's spans and metric deltas too, configure telemetry with the
        ledger as its sink.
    monitors:
        Optional :class:`repro.obs.MonitorSuite`; bound to the run's
        (β, μ, L, θ) constants and attached to ``ledger`` so alerts
        land there.  Pure observers — results are bit-identical with
        or without them.

    Returns
    -------
    ``(history, w_final)``.
    """
    # The whole run, setup included, sits under this try: a failure
    # anywhere still closes the executor (once built) and the ledger.
    executor = None
    status = "failed"
    try:
        init_seed, server_seed = (s.entropy for s in spawn_seeds(config.seed, 2))

        virtual = config.virtual_clients
        if virtual is None:
            virtual = isinstance(dataset, LazyFederatedDataset)
        if (
            virtual
            and config.executor == "process"
            and config.client_fraction < 1.0
        ):
            raise ConfigurationError(
                "executor='process' with virtual clients and client_fraction "
                f"= {config.client_fraction} is unsupported: the process "
                "executor maps every participating client's shard into a "
                "ShmArena shared-memory segment once, at pool start-up, and "
                "workers attach those fixed segments for the whole run — a "
                "partially sampled virtual cohort would need different "
                "segments each round. Supported alternatives: (a) keep "
                "partial participation on an in-process executor "
                "(executor='thread', 'batched', or 'sequential'); (b) keep "
                "executor='process' with full participation "
                "(client_fraction=1.0) so the shared-memory cohort is the "
                "whole population; or (c) set virtual_clients=False to "
                "materialize the population eagerly, which registers every "
                "shard in shared memory up front so sampled cohorts are "
                "subsets of the mapped segments."
            )

        # The probe gets a model of its own that dies with the call: on a
        # CNN it fills layer caches and column buffers at the probe's batch
        # size, which no later pass reads.
        with telemetry.span("estimate_smoothness", dataset=dataset.name):
            L = resolve_smoothness(
                model_factory(),
                dataset,
                override=config.smoothness,
                seed=config.seed,
                probe_devices=config.smoothness_probe_devices if virtual else None,
            )
        eta = 1.0 / (config.beta * L)
        telemetry.gauge_set("fl.run.smoothness_L", L)
        telemetry.gauge_set("fl.run.step_size_eta", eta)

        solver = make_local_solver(
            config.algorithm,
            step_size=eta,
            num_steps=config.num_local_steps,
            batch_size=config.batch_size,
            mu=config.mu,
            **config.solver_kwargs,
        )

        model = model_factory()
        pool = build_client_pool(
            dataset,
            model,
            solver,
            seed=config.seed,
            virtual=virtual,
            client_fraction=config.client_fraction,
            lru_capacity=config.lru_capacity,
        )
        executor = make_executor(config.executor, model_factory, config.max_workers)

        delay_model = config.delay_model
        if delay_model is None:
            delay_model = make_uniform_delays(dataset.num_devices)

        server = FederatedServer(
            pool,
            eval_model=model,
            executor=executor,
            delay_model=delay_model,
            client_fraction=config.client_fraction,
            seed=server_seed,
            eval_client_cap=config.max_eval_clients,
        )
        if w0 is None:
            w0 = model.init_parameters(init_seed)

        run_config = {
            "algorithm": config.algorithm,
            "T": config.num_rounds,
            "tau": config.num_local_steps,
            "beta": config.beta,
            "mu": config.mu,
            "batch_size": config.batch_size,
            "L": L,
            "eta": eta,
            "seed": config.seed,
            **{f"solver_{k}": v for k, v in config.solver_kwargs.items()},
        }
        if ledger is not None:
            ledger.write_manifest(
                run_config,
                entropy={
                    "seed": config.seed,
                    "init_seed": init_seed,
                    "server_seed": server_seed,
                },
                attrs={
                    "dataset": dataset.name,
                    "model": type(model).__name__,
                    "executor": config.executor,
                    "num_devices": dataset.num_devices,
                    "client_fraction": config.client_fraction,
                },
            )
        if monitors is not None:
            bind_monitor_theory(monitors, beta=config.beta, mu=config.mu, L=L)
            if ledger is not None:
                monitors.attach_ledger(ledger)

        # Simulated time (eq. (19)) is run-scoped: stamp every event this
        # run emits with the server clock's elapsed value.
        telemetry.attach_sim_clock(server.clock)
        with telemetry.span(
            "run",
            algorithm=config.algorithm,
            dataset=dataset.name,
            executor=config.executor,
            num_rounds=config.num_rounds,
            tau=config.num_local_steps,
        ):
            history, w_final = server.train(
                w0,
                config.num_rounds,
                algorithm_name=config.algorithm,
                dataset_name=dataset.name,
                config=run_config,
                eval_every=config.eval_every,
                verbose=verbose,
                ledger=ledger,
                monitors=monitors,
            )
        status = "diverged" if history.diverged() else "completed"
    finally:
        if executor is not None:
            executor.close()
        if ledger is not None:
            ledger.close(status)
    return history, w_final
