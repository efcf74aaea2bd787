"""Tests for repro.core.param_opt (§4.3 / Fig. 1)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import theory
from repro.core.param_opt import (
    OptimalParameters,
    objective,
    optimize_parameters,
    recommend_run_config,
    sweep_gamma,
)
from repro.core.theory import ProblemConstants
from repro.exceptions import InfeasibleParametersError

CONST = ProblemConstants(L=1.0, lam=0.5, sigma_bar_sq=0.0)


class TestObjective:
    def test_infinite_outside_beta_region(self):
        assert objective(2.0, 5.0, 0.01, CONST) == math.inf

    def test_infinite_when_mu_below_lambda(self):
        assert objective(10.0, 0.4, 0.01, CONST) == math.inf

    def test_infinite_when_factor_nonpositive(self):
        # tiny mu barely above lambda cannot make Theta positive
        assert objective(10.0, 0.51, 0.01, CONST) == math.inf

    def test_finite_at_feasible_point(self):
        val = objective(20.0, 15.0, 0.01, CONST)
        assert math.isfinite(val) and val > 0

    def test_matches_manual_computation(self):
        beta, mu, gamma = 20.0, 15.0, 0.01
        theta = theory.theta_from_beta(mu, beta, CONST)
        factor = theory.federated_factor(theta, mu, CONST)
        tau = theory.tau_upper_bound_sarah(beta)
        assert objective(beta, mu, gamma, CONST) == pytest.approx(
            (1 + gamma * tau) / factor
        )


class TestOptimizeParameters:
    def test_returns_feasible_optimum(self):
        opt = optimize_parameters(0.01, CONST)
        assert isinstance(opt, OptimalParameters)
        assert opt.beta > 3
        assert opt.mu > CONST.lam
        assert 0 < opt.theta < 1
        assert opt.federated_factor > 0
        assert math.isfinite(opt.objective)

    def test_polish_improves_or_matches_grid(self):
        raw = optimize_parameters(0.01, CONST, polish=False)
        polished = optimize_parameters(0.01, CONST, polish=True)
        assert polished.objective <= raw.objective + 1e-12

    def test_optimum_is_local_minimum(self):
        opt = optimize_parameters(0.05, CONST)
        base = opt.objective
        for db, dm in [(1.05, 1.0), (0.95, 1.0), (1.0, 1.05), (1.0, 0.95)]:
            val = objective(opt.beta * db, opt.mu * dm, 0.05, CONST)
            assert val >= base - 1e-9

    def test_gamma_validated(self):
        with pytest.raises(Exception):
            optimize_parameters(0.0, CONST)

    def test_infeasible_grid_raises(self):
        bad_grid = np.array([3.5])  # beta too small for Theta > 0 anywhere
        with pytest.raises(InfeasibleParametersError):
            optimize_parameters(
                0.01, CONST, beta_grid=bad_grid, mu_grid=np.array([0.6]), polish=False
            )

    def test_as_row_contains_fields(self):
        opt = optimize_parameters(0.01, CONST)
        row = opt.as_row()
        for token in ("gamma", "beta*", "mu*", "theta*", "Theta*"):
            assert token in row


class TestFig1Shapes:
    """The qualitative claims of §4.3 / Fig. 1."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_gamma(np.geomspace(1e-4, 1.0, 5), CONST)

    def test_beta_decreases_with_gamma(self, sweep):
        betas = [o.beta for o in sweep]
        assert betas[0] > betas[-1]
        assert all(b1 >= b2 * 0.99 for b1, b2 in zip(betas, betas[1:]))

    def test_tau_decreases_with_gamma(self, sweep):
        taus = [o.tau for o in sweep]
        assert taus[0] > taus[-1]

    def test_mu_increases_with_gamma(self, sweep):
        mus = [o.mu for o in sweep]
        assert mus[-1] > mus[0]

    def test_theta_increases_with_gamma(self, sweep):
        thetas = [o.theta for o in sweep]
        assert thetas[-1] > thetas[0]

    def test_heterogeneity_raises_optimal_mu_and_lowers_theta(self):
        het = ProblemConstants(L=1.0, lam=0.5, sigma_bar_sq=2.0)
        o_hom = optimize_parameters(0.01, CONST)
        o_het = optimize_parameters(0.01, het)
        assert o_het.mu > o_hom.mu
        assert o_het.theta < o_hom.theta
        assert o_het.federated_factor < o_hom.federated_factor


class TestRecommendRunConfig:
    def test_fields_present_and_consistent(self):
        rec = recommend_run_config(0.01, CONST)
        assert rec["tau"] >= 1
        assert rec["eta_times_L"] == pytest.approx(1.0 / rec["beta"])
        assert rec["federated_factor"] > 0

    def test_integer_tau_by_default(self):
        rec = recommend_run_config(0.01, CONST)
        assert isinstance(rec["tau"], int)

    def test_float_tau_optional(self):
        rec = recommend_run_config(0.01, CONST, round_to_int_tau=False)
        assert isinstance(rec["tau"], float)


class TestDeferredSolverImport:
    """``scipy.optimize`` is not loaded until the §4.3 solver runs."""

    SCRIPT = """
import json, sys
import repro, repro.fl.runner
before = {m: m in sys.modules for m in ("scipy.optimize", "scipy.ndimage")}
from repro import param_opt
from repro.core.theory import ProblemConstants
opt = param_opt.optimize_parameters(1e-2, ProblemConstants(L=1.0, lam=0.5))
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "beta": opt.beta}))
"""

    def test_fresh_interpreter_loads_optimize_on_first_call(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["before"] == {"scipy.optimize": False, "scipy.ndimage": True}
        assert result["after"] is True
        assert result["beta"] > 3.0
