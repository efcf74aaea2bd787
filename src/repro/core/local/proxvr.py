"""FedProxVR's local solver — Alg. 1 lines 3-10.

One inner loop on device ``n`` at global iteration ``s``:

1. anchor at the broadcast model: ``w^0 = w_bar``, ``v^0 = grad F_n(w^0)``
   (full local gradient, lines 3-4);
2. first proximal step ``w^1 = prox_{eta h_s}(w^0 - eta v^0)``;
3. for ``t = 1..tau``: sample a minibatch, update ``v^t`` by SARAH (8a)
   or SVRG (8b), step ``w^{t+1} = prox_{eta h_s}(w^t - eta v^t)``;
4. return ``w^{t'}`` with ``t'`` uniform over ``{0..tau}`` (line 10) —
   or the last / averaged iterate, selectable for the ablation study.

Optional ``theta``-stopping turns the fixed-``tau`` loop into the
inexact criterion (11): every ``check_interval`` steps the solver
evaluates ``||grad J_n(w^t)||`` and stops once it is below
``theta ||grad F_n(w_bar)||``.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.core.estimators import (
    GradientEstimator,
    make_batched_estimator,
    make_estimator,
)
from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.core.proximal import QuadraticProx
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.utils.validation import check_choice, check_positive, check_positive_int

_SELECTIONS = ("random", "last", "average")


class FedProxVRLocalSolver(LocalSolver):
    """Proximal variance-reduced local solver (the paper's contribution).

    Parameters
    ----------
    estimator:
        ``"svrg"``, ``"sarah"`` (or an estimator instance / ``"sgd"`` for
        the degenerate prox-SGD variant).
    mu:
        Proximal penalty of ``h_s`` (eq. (7)); ``mu = 0`` disables the
        prox, reproducing the Fig. 4 divergence setting.
    iterate_selection:
        ``"last"`` (default — what practical implementations return),
        ``"random"`` (Alg. 1 line 10, the choice the analysis needs), or
        ``"average"``.  The theory-validation tests use ``"random"``.
    theta:
        Optional local accuracy for criterion-(11) early stopping.
    check_interval:
        How often (in steps) the stopping criterion is evaluated.
    evaluate_final:
        When true (default), spend one extra full gradient to report the
        achieved ``||grad J_n||`` so experiments can audit (11).
    """

    name = "fedproxvr"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
        mu: float,
        estimator: Union[str, GradientEstimator] = "sarah",
        iterate_selection: str = "last",
        theta: Optional[float] = None,
        check_interval: int = 10,
        evaluate_final: bool = True,
    ) -> None:
        super().__init__(
            step_size=step_size, num_steps=num_steps, batch_size=batch_size
        )
        self.mu = check_positive("mu", mu, strict=False)
        # Estimators are stateful across one inner loop, and one solver
        # instance serves every client (possibly concurrently), so each
        # solve() gets a fresh estimator built from this prototype.
        if isinstance(estimator, GradientEstimator):
            self._estimator_cls = type(estimator)
        else:
            self._estimator_cls = type(make_estimator(estimator))
        self.estimator = self._estimator_cls()
        self.iterate_selection = check_choice(
            "iterate_selection", iterate_selection, _SELECTIONS
        )
        if theta is not None:
            theta = float(theta)
            if not 0.0 < theta < 1.0:
                raise ConfigurationError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self.check_interval = check_positive_int("check_interval", check_interval)
        self.evaluate_final = bool(evaluate_final)
        self.name = f"fedproxvr-{self.estimator.name}"

    def _surrogate_grad_norm(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        prox: QuadraticProx,
    ) -> float:
        grad_j = model.gradient(w, X, y) + prox.gradient(w)
        return float(np.linalg.norm(grad_j))

    def solve(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        rng: np.random.Generator,
    ) -> LocalSolveResult:
        n = X.shape[0]
        eta = self.step_size
        prox = QuadraticProx(self.mu, w_global)
        estimator = self._estimator_cls()  # fresh state per inner loop

        # Lines 3-4: anchor and first proximal step.
        w0 = np.array(w_global, dtype=np.float64, copy=True)
        full_grad = model.gradient(w0, X, y)
        start_norm = float(np.linalg.norm(full_grad))
        v = estimator.start_epoch(w0, full_grad)

        # Each ``w - eta * v`` is a fresh array, so the prox may run in
        # place on it (apply_: same ops as prox(), anchor term cached).
        iterates: List[np.ndarray] = [w0]
        w = prox.apply_(w0 - eta * v, eta)
        iterates.append(w)

        steps_taken = 0
        stopped_early = False
        target = self.theta * start_norm if self.theta is not None else None
        # Lines 5-9: tau stochastic proximal VR steps.
        for t in range(1, self.num_steps + 1):
            idx = self._sample_batch(rng, n)
            v = estimator.estimate(model, X[idx], y[idx], w)
            w = prox.apply_(w - eta * v, eta)
            iterates.append(w)
            steps_taken = t
            if target is not None and t % self.check_interval == 0:
                norm_j = self._surrogate_grad_norm(model, X, y, w, prox)
                if norm_j <= target:
                    stopped_early = True
                    break

        evals = 1 + estimator.num_evaluations
        if target is not None:
            evals += steps_taken // self.check_interval

        # Line 10: iterate selection over {w^0 .. w^tau}.
        if self.iterate_selection == "random":
            candidates = iterates[:-1] if len(iterates) > 1 else iterates
            w_out = candidates[int(rng.integers(0, len(candidates)))]
        elif self.iterate_selection == "last":
            w_out = iterates[-1]
        else:  # average
            w_out = np.mean(np.stack(iterates[1:]), axis=0)

        final_norm: Optional[float] = None
        if self.evaluate_final:
            final_norm = self._surrogate_grad_norm(model, X, y, w_out, prox)
            evals += 1

        return self._record_solve_metrics(
            LocalSolveResult(
                w_local=np.array(w_out, dtype=np.float64, copy=True),
                num_steps=steps_taken,
                num_gradient_evaluations=evals,
                start_grad_norm=start_norm,
                final_surrogate_grad_norm=final_norm,
                diagnostics={
                    "stopped_early": float(stopped_early),
                    "estimator_evals": float(estimator.num_evaluations),
                },
            )
        )

    def solve_cohort(self, models, shards, w_global, rngs, kernel):
        """Stacked-cohort Alg. 1: SVRG/SARAH recursions over a (K, D) stack.

        Anchor full gradients (lines 3-4) stay per-client calls on the
        heterogeneous shards; the ``tau`` stochastic steps (lines 5-9)
        run as stacked kernel/estimator/prox operations; iterate
        selection (line 10) draws from each client's own stream in
        client order, exactly as K sequential solves would.

        ``theta``-stopping (criterion (11)) makes control flow
        data-dependent per client, so that configuration reports "no
        batched path" and falls back to sequential solves.
        """
        if kernel is None or self.theta is not None:
            return None
        geometry = self._cohort_geometry(shards)
        if geometry is None:
            return None
        batch, features = geometry
        K = len(shards)
        eta = self.step_size
        w_global = np.asarray(w_global, dtype=np.float64)
        prox = QuadraticProx(self.mu, w_global)
        estimator = make_batched_estimator(self._estimator_cls)

        # Lines 3-4: anchor stack and per-client full local gradients.
        W0 = np.repeat(w_global[None, :], K, axis=0)
        full_grads = np.empty((K, w_global.size), dtype=np.float64)
        start_norms = np.empty(K)
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            full_grads[k] = model.gradient(W0[k], X, y)
            start_norms[k] = float(np.linalg.norm(full_grads[k]))
        V = estimator.start_epoch(W0, full_grads)

        # Iterates are only materialized when line 10 needs them.
        keep_iterates = self.iterate_selection != "last"
        iterates: List[np.ndarray] = [W0] if keep_iterates else []
        # Double-buffered update: same ops as ``prox(W - eta * V)`` —
        # scale, subtract, prox — with the result landing in the spare
        # buffer, which then becomes the current iterate.
        W = np.empty_like(W0)
        T = np.empty_like(W0)
        np.multiply(V, eta, out=W)
        np.subtract(W0, W, out=W)
        prox.apply_(W, eta)
        if keep_iterates:
            iterates.append(W.copy())

        X_batch = np.empty((K, batch, features), dtype=np.float64)
        y_batch = np.empty((K, batch), dtype=np.intp)
        # Lines 5-9: tau stochastic proximal VR steps, stacked.
        for _ in range(1, self.num_steps + 1):
            self._gather_minibatches(shards, rngs, X_batch, y_batch)
            V = estimator.estimate(kernel, X_batch, y_batch, W)
            np.multiply(V, eta, out=T)
            np.subtract(W, T, out=T)
            prox.apply_(T, eta)
            W, T = T, W
            if keep_iterates:
                iterates.append(W.copy())
        steps_taken = self.num_steps
        evals = 1 + estimator.num_evaluations

        # Line 10: iterate selection over {w^0 .. w^tau}, per client.
        if self.iterate_selection == "random":
            candidates = iterates[:-1] if len(iterates) > 1 else iterates
            w_outs = [
                candidates[int(rngs[k].integers(0, len(candidates)))][k]
                for k in range(K)
            ]
        elif self.iterate_selection == "last":
            w_outs = [W[k] for k in range(K)]
        else:  # average
            W_mean = np.mean(np.stack(iterates[1:]), axis=0)
            w_outs = [W_mean[k] for k in range(K)]

        results = []
        for k, ((X, y), model) in enumerate(zip(shards, models)):
            final_norm: Optional[float] = None
            per_client_evals = evals
            if self.evaluate_final:
                final_norm = self._surrogate_grad_norm(
                    model, X, y, w_outs[k], prox
                )
                per_client_evals += 1
            results.append(
                self._record_solve_metrics(
                    LocalSolveResult(
                        w_local=np.array(w_outs[k], dtype=np.float64, copy=True),
                        num_steps=steps_taken,
                        num_gradient_evaluations=per_client_evals,
                        start_grad_norm=start_norms[k],
                        final_surrogate_grad_norm=final_norm,
                        diagnostics={
                            "stopped_early": 0.0,
                            "estimator_evals": float(estimator.num_evaluations),
                        },
                    )
                )
            )
        return results
