"""§4.3 — choosing FedProxVR's parameters to minimize training time.

The simplified problem (23)-(24):

``minimize_{beta > 3, mu}  (1/Theta) * (1 + gamma * (5 beta^2 - 4 beta)/8)``

where ``gamma = d_cmp / d_com`` is the compute/communication weight
factor, ``theta`` is eliminated through eq. (22), and ``Theta`` must be
positive (Theorem 1).  The problem is non-convex but two-dimensional,
so we follow the paper: a dense log-space grid scan locates the basin
and a Nelder–Mead polish refines the optimum.

:func:`sweep_gamma` regenerates the four panels of Fig. 1 (optimal
``beta``, ``mu``, ``theta`` / ``Theta``, and the scaled training time as
functions of ``gamma``, for one or several heterogeneity levels
``sigma_bar^2``).

``scipy.optimize`` loads on the first call of
:func:`optimize_parameters`, not at import: ``import repro`` imports
this module, and no training run needs the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core import theory
from repro.core.theory import ProblemConstants
from repro.exceptions import InfeasibleParametersError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class OptimalParameters:
    """Solution of problem (23) at one weight factor ``gamma``."""

    gamma: float
    beta: float
    mu: float
    theta: float
    tau: float
    federated_factor: float
    objective: float

    def as_row(self) -> str:
        """One formatted row for the Fig. 1 replication table."""
        return (
            f"gamma={self.gamma:9.2e}  beta*={self.beta:8.3f}  "
            f"mu*={self.mu:8.3f}  theta*={self.theta:6.4f}  "
            f"tau*={self.tau:9.1f}  Theta*={self.federated_factor:9.3e}  "
            f"obj={self.objective:10.4e}"
        )


def objective(
    beta: float, mu: float, gamma: float, constants: ProblemConstants
) -> float:
    """Evaluate (23); returns ``inf`` outside the feasible region."""
    if beta <= 3.0 or mu <= constants.lam:
        return math.inf
    try:
        theta = theory.theta_from_beta(mu, beta, constants)
    except InfeasibleParametersError:
        return math.inf
    if not (0.0 < theta < 1.0):
        return math.inf
    factor = theory.federated_factor(theta, mu, constants)
    if factor <= 0.0 or not math.isfinite(factor):
        return math.inf
    tau = theory.tau_upper_bound_sarah(beta)
    return (1.0 + gamma * tau) / factor


def optimize_parameters(
    gamma: float,
    constants: ProblemConstants,
    *,
    beta_grid: Optional[np.ndarray] = None,
    mu_grid: Optional[np.ndarray] = None,
    polish: bool = True,
) -> OptimalParameters:
    """Solve problem (23) for one ``gamma``.

    Raises :class:`InfeasibleParametersError` when no grid point is
    feasible (e.g. heterogeneity so large that ``Theta > 0`` is
    unattainable on the default grid).
    """
    from scipy import optimize

    check_positive("gamma", gamma)
    if beta_grid is None:
        beta_grid = np.geomspace(3.05, 3e4, 140)
    if mu_grid is None:
        mu_lo = max(constants.lam * 1.05, 1e-3)
        mu_grid = np.geomspace(mu_lo, max(1e4, 1e3 * constants.L), 140)

    best = (math.inf, None, None)
    for beta in beta_grid:
        for mu in mu_grid:
            val = objective(float(beta), float(mu), gamma, constants)
            if val < best[0]:
                best = (val, float(beta), float(mu))
    if best[1] is None:
        raise InfeasibleParametersError(
            f"problem (23) infeasible on the search grid for gamma={gamma}, "
            f"constants={constants}"
        )
    val, beta, mu = best

    if polish:
        # Nelder-Mead in log space keeps iterates positive and handles
        # the objective's inf-walls gracefully.
        def f(z: np.ndarray) -> float:
            return objective(
                3.0 + math.exp(z[0]), constants.lam + math.exp(z[1]), gamma, constants
            )

        res = optimize.minimize(
            f,
            x0=[math.log(beta - 3.0), math.log(mu - constants.lam)],
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000},
        )
        if math.isfinite(res.fun) and res.fun <= val:
            val = float(res.fun)
            beta = 3.0 + math.exp(res.x[0])
            mu = constants.lam + math.exp(res.x[1])

    theta = theory.theta_from_beta(mu, beta, constants)
    factor = theory.federated_factor(theta, mu, constants)
    tau = theory.tau_upper_bound_sarah(beta)
    return OptimalParameters(
        gamma=gamma,
        beta=beta,
        mu=mu,
        theta=theta,
        tau=tau,
        federated_factor=factor,
        objective=val,
    )


def sweep_gamma(
    gammas: Sequence[float],
    constants: ProblemConstants,
    **kwargs,
) -> List[OptimalParameters]:
    """Fig. 1: optimal parameters across a range of weight factors."""
    return [optimize_parameters(float(g), constants, **kwargs) for g in gammas]


def recommend_run_config(
    gamma: float,
    constants: ProblemConstants,
    *,
    round_to_int_tau: bool = True,
) -> dict:
    """Translate an optimum into runnable experiment parameters.

    Returns a dict with ``beta``, ``mu``, ``tau`` (integer by default),
    ``theta`` and the implied ``step size multiplier`` ``1/beta`` — the
    bridge from §4.3's analysis to the §5 experiment harness.
    """
    opt = optimize_parameters(gamma, constants)
    tau = int(round(opt.tau)) if round_to_int_tau else opt.tau
    return {
        "beta": opt.beta,
        "mu": opt.mu,
        "tau": max(1, tau),
        "theta": opt.theta,
        "eta_times_L": 1.0 / opt.beta,
        "federated_factor": opt.federated_factor,
    }
