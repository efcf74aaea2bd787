"""Local solvers: the per-device inner loops of federated algorithms."""

from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.core.local.sgd import FedAvgLocalSolver
from repro.core.local.proxsgd import FedProxLocalSolver
from repro.core.local.proxvr import FedProxVRLocalSolver
from repro.core.local.gd import GDLocalSolver

__all__ = [
    "FedAvgLocalSolver",
    "FedProxLocalSolver",
    "FedProxVRLocalSolver",
    "GDLocalSolver",
    "LocalSolveResult",
    "LocalSolver",
]
