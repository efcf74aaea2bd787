"""The benchmark's workloads.

Every workload is a closed loop: Alg. 1 is synchronous, so round
``s + 1`` starts when round ``s`` commits and there is no arrival rate.
A workload fixes the rounds of one run, so every run of a seed ends on
the same final weights.  ``bench.run`` repeats runs until it has measured
for ``--seconds`` and has ``MIN_RUNS`` runs; full-size runs have 100
rounds, so the pooled p90 round time has at least 30 samples beyond it.

``repro`` is imported lazily, inside the methods, so the parent process
can plan and report without importing the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

#: runs per measurement, so setup and throughput are medians of three
MIN_RUNS = 3
#: runs per workload under ``--smoke``
SMOKE_RUNS = 2
#: rounds of each of the correctness gate's two executor-prefix runs
PREFIX_ROUNDS = 2

#: final train loss at ``--seed 0`` (full size); checked to 1e-6 relative.
#: Losses rather than weight digests, because digests change with the
#: BLAS thread count while losses agree to ~1e-14.
PINNED_FINAL_LOSS: Dict[str, float] = {
    "fig2-mlr": 1.4240225480859066,
    "fig3-cnn": 1.9567960791142678,
    "fleet-100k": 2.3075428751773246,
    "eval-sweep": 1.8355160430911523,
}
PINNED_SEED = 0
PINNED_RTOL = 1e-6

#: channel multiplier of the paper CNN in fig3-cnn (2 and 4 channels)
CNN_CHANNEL_SCALE = 0.0625


def nproc() -> int:
    """CPUs this process may run on (``nproc``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    dataset: str  # "fashion" | "digits" | "synthetic"
    dataset_kwargs: Dict[str, object]
    model: str  # "mlr" | "cnn"
    algorithm: str
    mu: float
    beta: float
    tau: int
    batch_size: int
    executor: str
    rounds: int
    #: wall seconds of one run (interpreter start to exit) on the sizing
    #: host, 2 vCPUs; a run is killed after three times this
    sized_run_s: float
    #: participants per round; ``None`` means every device
    participants: Optional[int] = None
    #: rounds between evaluations; ``None`` means the final round only
    eval_every: Optional[int] = None
    max_eval_clients: Optional[int] = None
    solver_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def num_devices(self) -> int:
        return int(self.dataset_kwargs["num_devices"])

    @property
    def client_fraction(self) -> float:
        if self.participants is None:
            return 1.0
        return self.participants / self.num_devices

    @property
    def clients_per_round(self) -> int:
        """``K``, computed exactly as ``FederatedServer`` selects it."""
        return max(1, int(round(self.client_fraction * self.num_devices)))

    @property
    def workers(self) -> int:
        """Executor threads solving clients at once."""
        return nproc() if self.executor == "thread" else 1

    @property
    def timeout_s(self) -> float:
        return 3.0 * self.sized_run_s

    def make_dataset(self, seed: int):
        from repro.datasets import make_digits, make_fashion, make_synthetic

        if self.dataset == "fashion":
            return make_fashion(seed=seed, **self.dataset_kwargs)
        if self.dataset == "digits":
            return make_digits(seed=seed, **self.dataset_kwargs)
        return make_synthetic(1.0, 1.0, seed=seed, **self.dataset_kwargs)

    def make_model(self, dataset):
        from repro.models import MultinomialLogisticModel, make_paper_cnn_model

        if self.model == "mlr":
            return MultinomialLogisticModel(dataset.num_features, dataset.num_classes)
        return make_paper_cnn_model(
            image_shape=(1, 28, 28), num_classes=10, channel_scale=CNN_CHANNEL_SCALE, seed=0
        )

    def config(
        self,
        seed: int,
        *,
        rounds: Optional[int] = None,
        executor: Optional[str] = None,
        smoothness: Optional[float] = None,
    ):
        from repro.fl.runner import FederatedRunConfig

        rounds = rounds or self.rounds
        executor = executor or self.executor
        return FederatedRunConfig(
            algorithm=self.algorithm,
            num_rounds=rounds,
            num_local_steps=self.tau,
            beta=self.beta,
            mu=self.mu,
            batch_size=self.batch_size,
            smoothness=smoothness,
            client_fraction=self.client_fraction,
            eval_every=self.eval_every or rounds,
            executor=executor,
            max_workers=nproc() if executor == "thread" else None,
            seed=seed,
            solver_kwargs=dict(self.solver_kwargs),
            max_eval_clients=self.max_eval_clients,
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="fig2-mlr",
        dataset="fashion",
        dataset_kwargs=dict(
            num_devices=20, num_samples=2400, labels_per_device=2, min_size=37, max_size=270
        ),
        model="mlr",
        algorithm="fedproxvr-svrg",
        mu=0.1,
        beta=7.0,
        tau=20,
        batch_size=32,
        executor="batched",
        rounds=100,
        solver_kwargs={"evaluate_final": False},
        sized_run_s=8.0,
    ),
    Workload(
        name="fig3-cnn",
        dataset="digits",
        dataset_kwargs=dict(
            num_devices=4, num_samples=120, labels_per_device=2, min_size=30, max_size=30
        ),
        model="cnn",
        algorithm="fedproxvr-sarah",
        mu=0.01,
        beta=10.0,
        tau=3,
        batch_size=8,
        executor="thread",
        rounds=100,
        sized_run_s=10.0,
    ),
    Workload(
        name="fleet-100k",
        dataset="synthetic",
        dataset_kwargs=dict(
            num_devices=100_000, num_features=60, num_classes=10, min_size=100,
            max_size=400, lazy=True,
        ),
        model="mlr",
        algorithm="fedproxvr-svrg",
        mu=0.1,
        beta=5.0,
        tau=10,
        batch_size=32,
        executor="sequential",
        rounds=100,
        participants=16,
        eval_every=5,
        max_eval_clients=64,
        sized_run_s=6.0,
    ),
    Workload(
        name="eval-sweep",
        dataset="synthetic",
        dataset_kwargs=dict(
            num_devices=100, num_features=60, num_classes=10, min_size=100,
            max_size=400, lazy=True,
        ),
        model="mlr",
        algorithm="fedavg",
        mu=0.0,
        beta=5.0,
        tau=10,
        batch_size=32,
        executor="sequential",
        rounds=100,
        participants=10,
        eval_every=1,
        sized_run_s=6.0,
    ),
)

#: tiny sizes for ``--smoke``: same code paths, seconds per workload
_SMOKE = {
    "fig2-mlr": dict(
        dataset_kwargs=dict(
            num_devices=6, num_samples=300, labels_per_device=2, min_size=20, max_size=60
        ),
        rounds=3,
    ),
    "fig3-cnn": dict(
        dataset_kwargs=dict(
            num_devices=2, num_samples=40, labels_per_device=2, min_size=8, max_size=16
        ),
        rounds=2,
        tau=2,
    ),
    "fleet-100k": dict(
        dataset_kwargs=dict(
            num_devices=2_000, num_features=60, num_classes=10, min_size=100,
            max_size=400, lazy=True,
        ),
        rounds=5,
    ),
    "eval-sweep": dict(
        dataset_kwargs=dict(
            num_devices=20, num_features=60, num_classes=10, min_size=100,
            max_size=400, lazy=True,
        ),
        rounds=3,
        participants=4,
    ),
}

NAMES = tuple(w.name for w in WORKLOADS)


def get(name: str, *, smoke: bool = False) -> Workload:
    """The workload called ``name`` (its tiny variant under ``smoke``)."""
    for w in WORKLOADS:
        if w.name == name:
            return replace(w, **_SMOKE[name]) if smoke else w
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
