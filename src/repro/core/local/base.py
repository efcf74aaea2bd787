"""Local-solver interface and result record.

A local solver implements Alg. 1 lines 3-10 (or a baseline's analogue):
given the broadcast global model it produces the device's local model
for this round, plus bookkeeping the server and the delay model consume
(gradient-evaluation counts map to computation delay ``d_cmp``).

Solvers may additionally implement :meth:`LocalSolver.solve_cohort`, the
batched execution path: a whole homogeneous cohort's inner loops run as
stacked ``(K, D)`` ndarray operations instead of K Python loops, with
per-(client, round) RNG streams consumed in exactly the order the
sequential path consumes them, so results are bit-identical either way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import Model
from repro.obs import telemetry
from repro.utils.validation import check_positive, check_positive_int

#: ratio buckets for the achieved-theta distribution (criterion (11)):
#: fine below 1 (criterion met by some margin), coarse above.
THETA_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0)



@dataclass
class LocalSolveResult:
    """Outcome of one device's local update in one global iteration."""

    w_local: np.ndarray
    num_steps: int
    num_gradient_evaluations: int
    #: ``||grad F_n(w_bar)||`` at the round's start (the RHS scale of (11))
    start_grad_norm: float
    #: ``||grad J_n(w_local)||`` at the returned iterate (LHS of (11)), if evaluated
    final_surrogate_grad_norm: Optional[float] = None
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def achieved_accuracy(self) -> Optional[float]:
        """Empirical local accuracy ``theta_hat`` of criterion (11).

        ``||grad J_n(w_n)|| / ||grad F_n(w_bar)||`` — values below the
        configured ``theta`` certify the round met its local criterion.
        """
        if self.final_surrogate_grad_norm is None:
            return None
        if self.start_grad_norm == 0.0:
            return 0.0 if self.final_surrogate_grad_norm == 0.0 else float("inf")
        return self.final_surrogate_grad_norm / self.start_grad_norm


class LocalSolver(ABC):
    """Abstract per-device solver; instances are stateless across rounds
    except for configuration, so one instance can serve many clients."""

    #: identifier recorded in histories
    name: str = "abstract"

    def __init__(
        self,
        *,
        step_size: float,
        num_steps: int,
        batch_size: int,
    ) -> None:
        self.step_size = check_positive("step_size", step_size)
        self.num_steps = check_positive_int("num_steps", num_steps, minimum=0)
        self.batch_size = check_positive_int("batch_size", batch_size)

    @abstractmethod
    def solve(
        self,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        rng: np.random.Generator,
    ) -> LocalSolveResult:
        """Run the inner loop from the broadcast model ``w_global``."""

    def _sample_batch(
        self, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Uniformly sample a minibatch of indices (Alg. 1 line 6)."""
        size = min(self.batch_size, n)
        if size == n:
            return np.arange(n)
        return rng.choice(n, size=size, replace=False)

    # -- batched cohort execution -------------------------------------

    def solve_cohort(
        self,
        models: Sequence[Model],
        shards: Sequence[Tuple[np.ndarray, np.ndarray]],
        w_global: np.ndarray,
        rngs: Sequence[np.random.Generator],
        kernel,
    ) -> Optional[List["LocalSolveResult"]]:
        """Run one round's inner loops for a homogeneous cohort at once.

        Parameters mirror K parallel :meth:`solve` calls: ``models``,
        ``shards`` (``(X, y)`` training pairs) and ``rngs`` are ordered
        per client; ``kernel`` is a
        :class:`repro.models.batched.BatchKernel` over the cohort's
        models (or ``None`` when no vectorized kernel exists).

        Returns results ordered like the inputs, or ``None`` when this
        solver (or this configuration) has no batched path — callers
        must then fall back to per-client :meth:`solve` calls.  The
        contract for implementations is **bit-identity**: result ``k``
        must equal what ``solve`` would have produced for client ``k``
        with the same RNG stream.
        """
        del models, shards, w_global, rngs, kernel
        return None

    def _cohort_geometry(
        self, shards: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Optional[Tuple[int, int]]:
        """``(B, num_features)`` when every shard yields the same
        effective minibatch size, else ``None`` (cohort not stackable)."""
        sizes = {min(self.batch_size, X.shape[0]) for X, _ in shards}
        features = {X.shape[1] for X, _ in shards}
        if len(sizes) != 1 or len(features) != 1:
            return None
        return sizes.pop(), features.pop()

    def _gather_minibatches(
        self,
        shards: Sequence[Tuple[np.ndarray, np.ndarray]],
        rngs: Sequence[np.random.Generator],
        X_out: np.ndarray,
        y_out: np.ndarray,
    ) -> None:
        """Sample one minibatch per client into the stacked buffers.

        Consumes each client's generator exactly like one sequential
        ``_sample_batch`` call, so interleaving clients step-by-step
        (instead of client-by-client) leaves every stream unchanged.
        Gathers stay per shard on purpose: each shard is small enough to
        be cache-resident, which beats one scattered gather from a
        concatenated copy of the whole cohort (measured on the fig2
        macro-bench).

        The cohort geometry guarantees every shard has the same
        effective minibatch size (= ``X_out.shape[1]``), so the
        sequential path's per-call ``min(batch_size, n)`` is hoisted:
        either every shard is sampled (``rng.choice``, same draw as
        ``_sample_batch``) or every shard is taken whole (no RNG
        consumed, matching ``_sample_batch``'s full-shard branch).
        """
        size = X_out.shape[1]
        full_idx = np.arange(size)  # shared by every full-shard gather
        for k, (X, y) in enumerate(shards):
            if size == X.shape[0]:
                idx = full_idx
            else:
                idx = rngs[k].choice(X.shape[0], size=size, replace=False)
            # ``idx`` is in range by construction, so "clip" never
            # clips; it spares the temporary NumPy writes through when
            # ``out=`` is given in the default "raise" mode.
            X.take(idx, axis=0, out=X_out[k], mode="clip")
            y_out[k] = y[idx]

    def _record_solve_metrics(self, result: LocalSolveResult) -> LocalSolveResult:
        """Publish one solve's inner-loop telemetry; returns ``result``.

        Called by every concrete solver just before returning, so
        per-client step/gradient-evaluation counts and the achieved
        local accuracy ``theta_hat`` are visible between
        ``RoundRecord`` snapshots.  One attribute check when disabled.
        """
        if not telemetry.enabled:
            return result
        telemetry.counter_add("fl.client.local_steps", result.num_steps, key=self.name)
        telemetry.counter_add(
            "fl.client.grad_evals", result.num_gradient_evaluations, key=self.name
        )
        theta_hat = result.achieved_accuracy
        if theta_hat is not None and np.isfinite(theta_hat):
            telemetry.gauge_set("fl.client.achieved_theta", float(theta_hat))
            telemetry.observe(
                "fl.client.achieved_theta_dist", float(theta_hat),
                buckets=THETA_BUCKETS,
            )
        return result
