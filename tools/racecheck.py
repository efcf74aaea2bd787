"""Runtime interleaving stress harness for the concurrent executors.

The static RL8xx rules (``tools/reprolint/rules/concurrency.py``) argue
the thread-pool path *cannot* race; this harness checks the claim the
only way a scheduler respects — by running it under deliberately
adversarial interleavings and demanding bit-identical results:

1. **Bit-identity stress** — the same federated problem is solved once
   sequentially (the reference) and repeatedly on a thread pool whose
   workers each check out a worker model and then rendezvous at a
   :class:`threading.Barrier` before every local solve, so client
   updates start as close to simultaneously as the OS allows.  Every
   worker count and every repeat must reproduce the sequential history
   and final weights exactly (``==``, not ``allclose``) — per-(client,
   round) RNG streams make scheduling invisible, or the run fails.
2. **ShmArena leak audit** — arenas are torn down mid-population by an
   injected failure; any segment still attachable afterwards is an
   orphan (it would survive the process) and fails the audit.

Usage::

    python -m tools.racecheck --workers 2 8 --rounds 3 --repeats 2

Exit status 0 = all identical and no leaks; 1 otherwise.  CI runs a
reduced-scale invocation (see ``.github/workflows/ci.yml``); the
integration test ``tests/integration/test_race_stress.py`` drives the
same entry points in-process.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.shm import ShmArena, attach_array
from repro.core.algorithms import make_local_solver
from repro.datasets import make_synthetic
from repro.fl.executor import SequentialExecutor, ThreadPoolClientExecutor
from repro.fl.runner import build_clients, resolve_smoothness
from repro.fl.server import FederatedServer
from repro.models import MultinomialLogisticModel
from repro.utils.rng import spawn_seeds


class BarrierThreadExecutor(ThreadPoolClientExecutor):
    """Thread-pool executor that herds workers into lockstep starts.

    A fresh barrier per round makes every pool worker check out its
    model and then wait until the whole first wave holds one before any
    local solve begins — the most contended schedule a pool of that
    width can produce.  Stragglers of a ragged final wave time out
    quickly (a broken barrier waves the rest through), so the stress
    never deadlocks.
    """

    def __init__(self, model_factory, max_workers: int) -> None:
        super().__init__(model_factory, max_workers=max_workers)
        self.barrier_parties = max_workers

    def run_round(self, clients, w_global, round_index):
        if self._closed:
            raise RuntimeError("executor already closed")
        pool = self._ensure_pool(len(clients))
        parties = min(self.barrier_parties, len(clients))
        barrier = threading.Barrier(parties)

        def contended_update(client):
            with self._checkout() as model:
                try:
                    barrier.wait(timeout=0.25)
                except threading.BrokenBarrierError:
                    pass  # ragged wave: start anyway, contention already peaked
                return client.local_update(w_global, round_index, model)

        futures = [pool.submit(contended_update, c) for c in clients]
        return [f.result() for f in futures]


def build_problem(num_devices: int, seed: int):
    """A small heterogeneous softmax problem with one shard per device."""
    dataset = make_synthetic(
        0.5,
        0.5,
        num_devices=num_devices,
        num_features=12,
        num_classes=4,
        min_size=24,
        max_size=96,
        seed=seed,
    )

    def model_factory():
        return MultinomialLogisticModel(
            dataset.num_features, dataset.num_classes, l2=1e-4
        )

    return dataset, model_factory


def run_once(
    dataset,
    model_factory,
    executor,
    *,
    seed: int,
    num_rounds: int,
) -> Tuple[List[float], np.ndarray]:
    """One training run; returns ``(per-round train losses, w_final)``.

    Mirrors ``run_federated``'s wiring (same seed derivation, same step
    size, same solver, one model that every client shares), so
    sequential and thread runs differ only in scheduling and in which
    model instance a solve runs on.
    """
    init_seed, server_seed = (s.entropy for s in spawn_seeds(seed, 2))
    model = model_factory()
    L = resolve_smoothness(model, dataset, seed=seed)
    solver = make_local_solver(
        "fedproxvr-sarah",
        step_size=1.0 / (5.0 * L),
        num_steps=4,
        batch_size=16,
        mu=0.1,
    )
    clients = build_clients(dataset, model, solver, seed=seed)
    server = FederatedServer(
        clients, eval_model=model, executor=executor, seed=server_seed
    )
    w0 = model.init_parameters(init_seed)
    try:
        history, w_final = server.train(w0, num_rounds)
    finally:
        executor.close()
    return [r.train_loss for r in history.records], w_final


def stress_bit_identity(
    *,
    worker_counts: Sequence[int],
    num_devices: int,
    num_rounds: int,
    repeats: int,
    seed: int,
) -> List[str]:
    """Compare barrier-stressed thread runs against the sequential run.

    Returns a list of mismatch descriptions (empty = bit-identical).
    """
    dataset, model_factory = build_problem(num_devices, seed)
    ref_losses, ref_w = run_once(
        dataset,
        model_factory,
        SequentialExecutor(),
        seed=seed,
        num_rounds=num_rounds,
    )
    failures: List[str] = []
    for workers in worker_counts:
        for attempt in range(repeats):
            losses, w = run_once(
                dataset,
                model_factory,
                BarrierThreadExecutor(model_factory, max_workers=workers),
                seed=seed,
                num_rounds=num_rounds,
            )
            tag = f"workers={workers} attempt={attempt + 1}/{repeats}"
            if losses != ref_losses:
                failures.append(
                    f"{tag}: per-round losses diverge from sequential "
                    f"({losses} != {ref_losses})"
                )
            if not (
                w.shape == ref_w.shape
                and w.dtype == ref_w.dtype
                and np.array_equal(w, ref_w)
            ):
                delta = float(np.max(np.abs(w - ref_w))) if (
                    w.shape == ref_w.shape
                ) else float("nan")
                failures.append(
                    f"{tag}: final weights differ (max |delta| = {delta:g})"
                )
    return failures


def audit_shm_leaks(*, num_segments: int = 4, seed: int = 0) -> List[str]:
    """Fail an arena mid-population; report segments that survive.

    Returns the names of orphaned segments (empty = clean teardown).
    """
    rng = np.random.default_rng(seed)  # reprolint: disable=RL600
    specs = []
    try:
        with ShmArena() as arena:
            for _ in range(num_segments):
                specs.append(arena.put(rng.standard_normal(64)))
            raise RuntimeError("injected mid-population failure")
    except RuntimeError:
        pass
    orphans: List[str] = []
    for spec in specs:
        try:
            _, handle = attach_array(spec)
        except FileNotFoundError:
            continue
        handle.close()
        orphans.append(spec.shm_name)
    return orphans


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="racecheck",
        description="interleaving stress + shm leak audit for the "
        "concurrent federated executors",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 8],
        help="thread-pool widths to stress (default: 2 8)",
    )
    parser.add_argument("--devices", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="stressed runs per worker count (default: 2)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--skip-shm-audit",
        action="store_true",
        help="run only the bit-identity stress",
    )
    args = parser.parse_args(argv)

    failures = stress_bit_identity(
        worker_counts=args.workers,
        num_devices=args.devices,
        num_rounds=args.rounds,
        repeats=args.repeats,
        seed=args.seed,
    )
    runs = len(args.workers) * args.repeats
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
    else:
        print(
            f"bit-identity: {runs} stressed run(s) at workers="
            f"{args.workers} all match sequential exactly"
        )

    if not args.skip_shm_audit:
        orphans = audit_shm_leaks(seed=args.seed)
        if orphans:
            failures.append(f"shm audit: orphaned segments {orphans}")
            print(f"FAIL shm audit: orphaned segments {orphans}")
        else:
            print("shm audit: failure-injected arena left no orphans")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
