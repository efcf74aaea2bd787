"""The federated server: Alg. 1's outer loop.

Per global iteration ``s``: broadcast ``w_bar^{(s-1)}``, run the round's
cohort through the executor, aggregate the returned local models with
the data-size weights (line 12), then record metrics and simulated
time.  Optional client sampling (``client_fraction < 1``) extends the
paper's full-participation protocol to the partial participation regime
of FedAvg.

The server schedules against a :class:`~repro.fl.registry.ClientRegistry`
— packed population metadata — and materializes clients through a pool:
:class:`~repro.fl.registry.EagerClientPool` when constructed from a
client list (the classic path, bit-identical to previous behavior), or
:class:`~repro.fl.registry.LazyClientPool` for massive registered
populations where only the ``K`` selected clients per round are ever
hydrated.  Aggregation weights and every population-weighted metric
come from registry metadata, so cost per round is O(K), not O(N).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fl.aggregation import weighted_average
from repro.fl.client import Client
from repro.fl.delays import DelayModel
from repro.fl.executor import ClientExecutor, SequentialExecutor
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.metrics import global_accuracy, global_loss_and_gradient_norm
from repro.fl.registry import ClientRegistry, EagerClientPool, LazyClientPool
from repro.models.base import Model
from repro.obs import diverged, telemetry
from repro.utils.rng import SeedLike, as_generator, derive_generator
from repro.utils.timing import SimulatedClock
from repro.utils.validation import check_in_range, check_positive_int

#: spawn-key tag separating the eval-cohort sampler from the
#: round-selection stream (any fixed int distinct from client ids works)
_EVAL_STREAM = 0x0E7A1

ClientSource = Union[Sequence[Client], EagerClientPool, LazyClientPool]


class FederatedServer:
    """Orchestrates global iterations over a registered client population."""

    def __init__(
        self,
        clients: ClientSource,
        eval_model: Model,
        *,
        executor: Optional[ClientExecutor] = None,
        delay_model: Optional[DelayModel] = None,
        client_fraction: float = 1.0,
        seed: SeedLike = 0,
        eval_client_cap: Optional[int] = None,
    ) -> None:
        if isinstance(clients, (EagerClientPool, LazyClientPool)):
            self._pool = clients
        else:
            if not clients:
                raise ConfigurationError("server needs >= 1 client")
            self._pool = EagerClientPool(list(clients))
        self.registry: ClientRegistry = self._pool.registry
        self.eval_model = eval_model
        self.executor = executor or SequentialExecutor()
        population = self._pool.population
        if population is not None:
            self.executor.register_clients(population)
        self.delay_model = delay_model
        self.client_fraction = check_in_range(
            "client_fraction", client_fraction, 0.0, 1.0, inclusive="right"
        )
        if eval_client_cap is not None:
            check_positive_int("eval_client_cap", eval_client_cap)
            if isinstance(seed, np.random.Generator):
                raise ConfigurationError(
                    "eval_client_cap needs a stable seed (int/SeedSequence) "
                    "for its dedicated sampling stream"
                )
        self.eval_client_cap = eval_client_cap
        self._seed = seed
        self._rng = as_generator(seed)
        self.clock = SimulatedClock()
        # Satellite of ISSUE 7: weights come from packed registry
        # metadata — the last O(N) walk over client objects is gone.
        self._weights = self.registry.weights()
        telemetry.gauge_set("fl.registry.size", float(self.registry.size))

    @property
    def clients(self) -> List[Client]:
        """The materialized population.

        Cheap for eager pools (the original list); an explicit O(N)
        hydration sweep for lazy pools — diagnostics only, the training
        path never calls this.
        """
        population = self._pool.population
        if population is not None:
            return population
        return list(self._pool.iter_clients(range(self.registry.size)))

    def _select_round_clients(self) -> List[int]:
        n = self.registry.size
        if self.client_fraction >= 1.0:
            return list(range(n))
        k = max(1, int(round(self.client_fraction * n)))
        return sorted(self._rng.choice(n, size=k, replace=False).tolist())

    def _eval_cohort(self) -> Tuple[Sequence[int], np.ndarray]:
        """Client indices + weights for a metrics pass.

        Default: the full population with the exact registry weights
        (bit-identical to the historical walk).  With
        ``eval_client_cap < N``: a weighted sample drawn from a
        dedicated RNG stream (independent of the round-selection
        stream), with the sampled clients' exact weights renormalized —
        the sampling-consistent estimator of the population metrics.
        """
        n = self.registry.size
        cap = self.eval_client_cap
        if cap is None or cap >= n:
            return range(n), self._weights
        entropy = (
            self._seed.entropy
            if isinstance(self._seed, np.random.SeedSequence)
            else self._seed
        )
        rng = derive_generator(entropy, _EVAL_STREAM)
        indices = np.sort(
            rng.choice(n, size=cap, replace=False, p=self._weights)
        ).tolist()
        return indices, self.registry.subset_weights(indices)

    def run_round(self, w_global: np.ndarray, round_index: int) -> dict:
        """One global iteration.

        Returns the aggregated model ``w``, the ``selected`` indices,
        the raw ``results`` and the round's :class:`RoundRecord`
        (diagnostics filled, eval fields left ``None``).
        """
        selected = self._select_round_clients()
        participants = self._pool.hydrate(selected)
        results = self.executor.run_round(participants, w_global, round_index)

        weights = self._weights[selected]
        w_new = weighted_average([r.w_local for r in results], weights)

        delays: List[float] = []
        if self.delay_model is not None:
            if len(self.delay_model) != self.registry.size:
                raise ConfigurationError(
                    f"delay model covers {len(self.delay_model)} devices, "
                    f"federation has {self.registry.size}"
                )
            # Charge only the participating devices; the synchronous
            # round costs the slowest of them (SimulatedClock takes max).
            # Index-addressable draws: the other N - K devices' delay
            # entries are never touched, let alone materialized.
            delays = [
                self.delay_model.round_delay_at(i, r.num_gradient_evaluations)
                for i, r in zip(selected, results)
            ]
        self.clock.advance_round(delays if delays else [0.0])

        # Straggler diagnostics from the executor's per-client timings:
        # the simulated clock only ever sees max(delays); the gap
        # (max - median wall seconds) says how lopsided the round was.
        straggler_gap: Optional[float] = None
        client_seconds = self.executor.last_client_seconds
        if client_seconds:
            straggler_gap = max(client_seconds) - statistics.median(client_seconds)
            telemetry.observe("fl.round.straggler_gap", straggler_gap)

        thetas = [
            r.achieved_accuracy
            for r in results
            if r.achieved_accuracy is not None and np.isfinite(r.achieved_accuracy)
        ]

        # FedProx-style gradient dissimilarity Γ̂ over the round's cohort:
        # Σ p̃ₙ gₙ² / (Σ p̃ₙ gₙ)² with gₙ = ‖∇Jₙ(w̄)‖ (already measured by
        # every local solve) and p̃ the renormalized cohort weights.  A
        # pure read of solver diagnostics — never touches RNG state or
        # the aggregation arithmetic, so bit-identity on/off is
        # structural.  Γ̂ ≈ 1 means IID-looking gradients; large values
        # mean the σ̄² heterogeneity assumption is under strain.
        grad_dissimilarity: Optional[float] = None
        norms = np.array(
            [r.start_grad_norm for r in results], dtype=np.float64
        )
        total_weight = float(weights.sum())
        if np.all(np.isfinite(norms)) and total_weight > 0.0:
            p = weights / total_weight
            mean_norm = float(np.dot(p, norms))
            den = mean_norm * mean_norm
            if den != 0.0:
                grad_dissimilarity = float(np.dot(p, norms * norms)) / den
                telemetry.gauge_set(
                    "fl.round.grad_dissimilarity", grad_dissimilarity
                )

        record = RoundRecord(
            round_index=round_index,
            sim_time=self.clock.elapsed,
            mean_local_steps=float(np.mean([r.num_steps for r in results])),
            mean_gradient_evaluations=float(
                np.mean([r.num_gradient_evaluations for r in results])
            ),
            mean_achieved_theta=float(np.mean(thetas)) if thetas else None,
            straggler_gap=straggler_gap,
            grad_dissimilarity=grad_dissimilarity,
        )
        return {"w": w_new, "selected": selected, "results": results, "record": record}

    def train(
        self,
        w0: np.ndarray,
        num_rounds: int,
        *,
        algorithm_name: str = "",
        dataset_name: str = "",
        config: Optional[dict] = None,
        eval_every: int = 1,
        verbose: bool = False,
        ledger=None,
        monitors=None,
    ) -> "tuple[TrainingHistory, np.ndarray]":
        """Run ``num_rounds`` global iterations from ``w0``.

        Returns ``(history, w_final)``.

        Metrics are evaluated every ``eval_every`` rounds (and always on
        the final round); evaluated rounds' records form the history.
        A run whose loss trips :func:`repro.obs.diverged` stops after
        that round, with the divergence recorded rather than raised.

        Every round's one :class:`RoundRecord` is committed to
        ``ledger`` (a :class:`repro.obs.RunLedger`; eval fields are
        ``None`` on unevaluated rounds) and observed by ``monitors`` (a
        :class:`repro.obs.MonitorSuite`); in fail-fast mode its
        :class:`repro.obs.MonitorFailFast` propagates out of this
        method after the triggering round has been committed.  Both are
        pure observers — no RNG or aggregation arithmetic depends on
        them, so results are bit-identical with or without them.
        """
        check_positive_int("num_rounds", num_rounds)
        check_positive_int("eval_every", eval_every)
        history = TrainingHistory(
            algorithm=algorithm_name or self._pool.solver.name,
            dataset=dataset_name,
            config=dict(config or {}),
        )
        w = np.array(w0, dtype=np.float64, copy=True)
        start = time.perf_counter()
        for s in range(1, num_rounds + 1):
            with telemetry.span("round", s=s):
                outcome = self.run_round(w, s)
                w, record = outcome["w"], outcome["record"]
                if s % eval_every == 0 or s == num_rounds:
                    with telemetry.span("eval", s=s):
                        indices, weights = self._eval_cohort()
                        record.train_loss, record.grad_norm = (
                            global_loss_and_gradient_norm(
                                self.eval_model,
                                self._pool.iter_clients(indices),
                                w,
                                weights=weights,
                            )
                        )
                        record.test_accuracy = global_accuracy(
                            self.eval_model, self._pool.iter_clients(indices), w
                        )
                    record.wall_time = time.perf_counter() - start
                    history.append(record)
                    if verbose:
                        print(
                            f"[{history.algorithm}] round {s:4d}  "
                            f"loss {record.train_loss:10.5f}  "
                            f"acc {record.test_accuracy:6.4f}  "
                            f"|grad| {record.grad_norm:9.4f}"
                        )
                # The commit (an fsync) is part of the round's cost, so
                # the round span covers it; the span's own event lands
                # after the commit and is made durable by the next one.
                telemetry.round_finished(s)
                if ledger is not None:
                    ledger.commit_round(
                        s,
                        asdict(record),
                        evaluated=record.train_loss is not None,
                        sim_time=record.sim_time,
                    )
            if monitors is not None:
                monitors.observe_round(record)
            if diverged(record.train_loss):
                break
        return history, w
