"""Algorithm registry: name -> configured local solver.

The federated *outer* loop (broadcast, local solve, weighted average) is
identical for every algorithm in the paper; algorithms differ only in
their local solver.  This factory is the single place that mapping is
defined, so experiments select algorithms by string.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.local import (
    FedAvgLocalSolver,
    FedProxLocalSolver,
    FedProxVRLocalSolver,
    GDLocalSolver,
    LocalSolver,
)
from repro.exceptions import ConfigurationError


def _fedavg(step_size, num_steps, batch_size, mu, **kw) -> LocalSolver:
    del mu, kw
    return FedAvgLocalSolver(
        step_size=step_size, num_steps=num_steps, batch_size=batch_size
    )


def _fedprox(step_size, num_steps, batch_size, mu, **kw) -> LocalSolver:
    del kw
    return FedProxLocalSolver(
        step_size=step_size, num_steps=num_steps, batch_size=batch_size, mu=mu
    )


def _fedproxvr(estimator: str):
    def build(step_size, num_steps, batch_size, mu, **kw) -> LocalSolver:
        return FedProxVRLocalSolver(
            step_size=step_size,
            num_steps=num_steps,
            batch_size=batch_size,
            mu=mu,
            estimator=estimator,
            **kw,
        )

    return build


def _gd(step_size, num_steps, batch_size, mu, **kw) -> LocalSolver:
    del kw
    return GDLocalSolver(
        step_size=step_size, num_steps=num_steps, batch_size=batch_size, mu=mu
    )


#: algorithm name -> builder(step_size, num_steps, batch_size, mu, **kw)
ALGORITHMS: Dict[str, Callable[..., LocalSolver]] = {
    "fedavg": _fedavg,
    "fedprox": _fedprox,
    "fedproxvr-svrg": _fedproxvr("svrg"),
    "fedproxvr-sarah": _fedproxvr("sarah"),
    "fedproxvr-sgd": _fedproxvr("sgd"),
    "gd": _gd,
}


def make_local_solver(
    name: str,
    *,
    step_size: float,
    num_steps: int,
    batch_size: int,
    mu: float = 0.0,
    **kwargs,
) -> LocalSolver:
    """Build a local solver by algorithm name.

    ``kwargs`` are forwarded to FedProxVR variants (e.g.
    ``iterate_selection``, ``theta``) and ignored by baselines that do
    not take them.
    """
    try:
        builder = ALGORITHMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choices: {sorted(ALGORITHMS)}"
        ) from None
    return builder(step_size, num_steps, batch_size, mu, **kwargs)
