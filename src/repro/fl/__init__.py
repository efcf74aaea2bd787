"""Federated-learning simulation framework.

The outer loop of Alg. 1: a :class:`repro.fl.server.FederatedServer`
broadcasts the global model, a :class:`repro.fl.executor.ClientExecutor`
runs every :class:`repro.fl.client.Client`'s local solver (sequentially
or on a thread pool), the weighted average (line 12) closes the round,
and :mod:`repro.fl.metrics` / :mod:`repro.fl.delays` record convergence
and simulated training time.

Two drivers sit on top of the engine: :mod:`repro.fl.fsvrg` (the
two-phase FSVRG baseline, reference [12]) and :mod:`repro.fl.tuning`
(the Tables 1-2 random hyperparameter search).
"""

from repro.fl.aggregation import weighted_average
from repro.fl.client import Client
from repro.fl.delays import (
    DelayModel,
    PackedDelayModel,
    make_uniform_delays,
    make_heterogeneous_delays,
)
from repro.fl.executor import (
    BatchedCohortExecutor,
    SequentialExecutor,
    ThreadPoolClientExecutor,
)
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.metrics import global_loss, global_accuracy, global_gradient_norm
from repro.fl.registry import (
    ClientRegistry,
    EagerClientPool,
    LazyClientPool,
    VirtualClient,
)
from repro.fl.server import FederatedServer
from repro.fl.runner import FederatedRunConfig, build_client_pool, run_federated
from repro.fl.fsvrg import run_fsvrg
from repro.fl.tuning import (
    SearchReport,
    SearchSpace,
    compare_algorithms,
    format_table,
    random_search,
)

__all__ = [
    "BatchedCohortExecutor",
    "Client",
    "ClientRegistry",
    "DelayModel",
    "EagerClientPool",
    "FederatedRunConfig",
    "FederatedServer",
    "LazyClientPool",
    "PackedDelayModel",
    "RoundRecord",
    "SearchReport",
    "SearchSpace",
    "SequentialExecutor",
    "ThreadPoolClientExecutor",
    "TrainingHistory",
    "VirtualClient",
    "build_client_pool",
    "compare_algorithms",
    "format_table",
    "global_accuracy",
    "global_gradient_norm",
    "global_loss",
    "make_heterogeneous_delays",
    "make_uniform_delays",
    "random_search",
    "run_federated",
    "run_fsvrg",
    "weighted_average",
]
