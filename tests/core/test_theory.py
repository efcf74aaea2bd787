"""Tests for repro.core.theory (Lemma 1, Theorem 1, Corollary 1)."""

import math

import pytest

from repro.core import theory
from repro.core.theory import ProblemConstants
from repro.exceptions import InfeasibleParametersError


CONST = ProblemConstants(L=1.0, lam=0.5, sigma_bar_sq=0.0)


class TestProblemConstants:
    def test_mu_tilde(self):
        assert CONST.mu_tilde(2.0) == pytest.approx(1.5)

    def test_mu_must_exceed_lambda(self):
        with pytest.raises(InfeasibleParametersError):
            CONST.mu_tilde(0.5)

    def test_validation(self):
        with pytest.raises(Exception):
            ProblemConstants(L=0.0, lam=0.1)
        with pytest.raises(Exception):
            ProblemConstants(L=1.0, lam=-0.1)


class TestLemma1Bounds:
    def test_lower_bound_formula(self):
        beta, theta, mu = 10.0, 0.5, 2.0
        expected = 3 * (beta**2 + mu**2) / (theta**2 * 1.5 * (beta - 3))
        assert theory.tau_lower_bound(beta, theta, mu, CONST) == pytest.approx(expected)

    def test_lower_bound_grows_as_theta_shrinks(self):
        """Remark 1(2): tau = Omega(1/theta^2)."""
        lo1 = theory.tau_lower_bound(10, 0.5, 2.0, CONST)
        lo2 = theory.tau_lower_bound(10, 0.25, 2.0, CONST)
        assert lo2 == pytest.approx(4 * lo1)

    def test_lower_bound_grows_with_mu(self):
        """Remark 1(4): larger mu makes local convergence slower.

        Note mu enters both the numerator (mu^2) and mu~ = mu - lam; the
        Omega(mu) growth dominates for large mu."""
        assert theory.tau_lower_bound(10, 0.5, 50.0, CONST) > theory.tau_lower_bound(
            10, 0.5, 5.0, CONST
        )

    def test_beta_at_most_3_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            theory.tau_lower_bound(3.0, 0.5, 2.0, CONST)

    def test_sarah_upper_bound(self):
        assert theory.tau_upper_bound_sarah(10.0) == pytest.approx((500 - 40) / 8)

    def test_svrg_min_a_satisfies_condition(self):
        for tau in (0, 1, 5, 50):
            a = theory.svrg_min_a(tau)
            assert a - 4 >= 4 * math.sqrt(a * (tau + 1)) - 1e-9

    def test_svrg_min_a_is_tight(self):
        for tau in (0, 3, 20):
            a = theory.svrg_min_a(tau) * 0.999
            assert a - 4 < 4 * math.sqrt(a * (tau + 1))

    def test_svrg_upper_with_explicit_a(self):
        assert theory.tau_upper_bound_svrg(10.0, a=2.0) == pytest.approx(
            460 / 16 - 2
        )

    def test_svrg_self_consistent_bound(self):
        beta = 30.0
        tau = theory.tau_upper_bound_svrg(beta)
        assert tau >= 1
        # feasibility at the returned tau
        a = theory.svrg_min_a(tau)
        assert tau <= (5 * beta**2 - 4 * beta) / (8 * a) - 2 + 1e-9

    def test_svrg_stricter_than_sarah(self):
        """Remark 1(5): SVRG admits far fewer local iterations."""
        for beta in (10.0, 30.0, 100.0):
            assert theory.tau_upper_bound_svrg(beta) < theory.tau_upper_bound_sarah(
                beta
            )

    @staticmethod
    def _svrg_bound_by_linear_scan(beta):
        base = 5.0 * beta**2 - 4.0 * beta
        tau = 0
        while tau + 1 <= base / (8.0 * theory.svrg_min_a(tau + 1)) - 2.0:
            tau += 1
        rhs0 = base / (8.0 * theory.svrg_min_a(0)) - 2.0
        if tau == 0 and rhs0 < 0:
            return rhs0
        return float(tau)

    def test_svrg_self_consistent_bound_matches_linear_scan(self):
        # The grid starts just above beta = 3, where even tau = 0 is
        # infeasible and the negative bound itself comes back.
        betas = [3.0 + 1e-9, 3.5, 9.0, 9.5, 14.0, 14.5]
        betas += [3.0 + 0.37 * k**1.5 for k in range(1, 220)]
        for beta in betas:
            assert theory.tau_upper_bound_svrg(beta) == (
                self._svrg_bound_by_linear_scan(beta)
            ), beta
        assert theory.tau_upper_bound_svrg(3.0 + 1e-9) < 0

    def test_svrg_self_consistent_bound_at_beta_max(self):
        assert theory.tau_upper_bound_svrg(1e7) == 1976421.0


class TestLemma1Feasibility:
    def test_feasible_point(self):
        # Just above beta_min the feasible tau-interval is non-empty;
        # pick its midpoint (the lower bound keeps growing with beta, so
        # tau*(beta_min) itself is NOT feasible at a larger beta).
        beta = theory.beta_min(0.5, 2.0, CONST) * 1.05
        lo = theory.tau_lower_bound(beta, 0.5, 2.0, CONST)
        hi = theory.tau_upper_bound_sarah(beta)
        assert lo < hi
        assert theory.lemma1_feasible(beta, 0.5 * (lo + hi), 0.5, 2.0, CONST)

    def test_beta_below_3_infeasible(self):
        assert not theory.lemma1_feasible(2.0, 10, 0.5, 2.0, CONST)

    def test_tau_above_upper_infeasible(self):
        beta = 10.0
        hi = theory.tau_upper_bound_sarah(beta)
        assert not theory.lemma1_feasible(beta, hi * 2, 0.9, 2.0, CONST)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            theory.lemma1_feasible(10, 10, 0.5, 2.0, CONST, estimator="adam")


class TestBetaMin:
    def test_bounds_meet_at_beta_min(self):
        beta = theory.beta_min(0.5, 2.0, CONST)
        lo = theory.tau_lower_bound(beta, 0.5, 2.0, CONST)
        hi = theory.tau_upper_bound_sarah(beta)
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_beta_min_grows_as_theta_shrinks(self):
        """Remark 1(1)-(2): tighter accuracy needs smaller step size."""
        assert theory.beta_min(0.1, 2.0, CONST) > theory.beta_min(0.5, 2.0, CONST)

    def test_svrg_beta_min_larger_than_sarah(self):
        """Remark 1(5): SVRG requires a larger beta_min.

        SVRG's self-consistent upper bound grows only linearly in beta,
        so feasibility needs theta^2 * mu~ large; pick such a point.
        """
        theta, mu = 0.9, 30.0
        sarah = theory.beta_min(theta, mu, CONST, estimator="sarah")
        svrg = theory.beta_min(theta, mu, CONST, estimator="svrg")
        assert svrg > sarah

    def test_svrg_infeasible_at_tight_theta(self):
        """For moderate theta and small mu the SVRG conditions admit no
        beta at all — the quantitative content of Remark 1(5)."""
        with pytest.raises(InfeasibleParametersError):
            theory.beta_min(0.5, 2.0, CONST, estimator="svrg", beta_max=1e6)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParametersError):
            theory.beta_min(1e-9, 2.0, CONST, beta_max=100.0)

    def test_theta_from_beta_inverts_beta_min(self):
        """Eq. (22) evaluated at beta_min recovers theta."""
        theta = 0.4
        mu = 3.0
        beta = theory.beta_min(theta, mu, CONST)
        assert theory.theta_from_beta(mu, beta, CONST) == pytest.approx(theta, rel=1e-6)


class TestTheorem1:
    def test_federated_factor_positive_region(self):
        assert theory.federated_factor(0.05, 20.0, CONST) > 0

    def test_federated_factor_negative_for_small_mu(self):
        assert theory.federated_factor(0.05, 1.0, CONST) < 0

    def test_heterogeneity_shrinks_factor(self):
        """Remark 2(1): larger sigma^2 hurts convergence."""
        hom = theory.federated_factor(0.05, 20.0, CONST)
        het = theory.federated_factor(
            0.05, 20.0, ProblemConstants(L=1.0, lam=0.5, sigma_bar_sq=3.0)
        )
        assert het < hom

    def test_theta_cap(self):
        assert theory.theta_accuracy_cap(0.0) == pytest.approx(1 / math.sqrt(2))
        assert theory.theta_accuracy_cap(1.0) == pytest.approx(0.5)

    def test_theta_above_cap_gives_negative_factor(self):
        cap = theory.theta_accuracy_cap(0.0)
        assert theory.federated_factor(cap * 1.01, 1e6, CONST) < 0


class TestCorollary1:
    def test_iterations_scale_inverse_epsilon(self):
        t1 = theory.global_iterations_required(1.0, 0.05, 20.0, CONST, eps=0.1)
        t2 = theory.global_iterations_required(1.0, 0.05, 20.0, CONST, eps=0.01)
        assert t2 == pytest.approx(10 * t1)

    def test_infeasible_factor_raises(self):
        with pytest.raises(InfeasibleParametersError):
            theory.global_iterations_required(1.0, 0.5, 1.0, CONST, eps=0.1)

    def test_stationarity_bound_consistent(self):
        """(17) and (18) are inverses: T from (18) achieves eps in (17)."""
        eps = 0.05
        T = theory.global_iterations_required(2.0, 0.05, 20.0, CONST, eps=eps)
        achieved = theory.stationarity_bound(2.0, 0.05, 20.0, CONST, T=int(math.ceil(T)))
        assert achieved <= eps * 1.01


class TestTrainingTime:
    def test_formula_eq19(self):
        assert theory.training_time(100, 20, d_com=1.0, d_cmp=0.01) == pytest.approx(
            100 * (1.0 + 0.2)
        )

    def test_validation(self):
        with pytest.raises(Exception):
            theory.training_time(0, 20, 1.0, 0.01)
