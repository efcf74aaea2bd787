"""Macro-benchmark for the committed performance trajectory.

Runs the paper's Fig. 2 convex workload (MLR on the Fashion-MNIST-like
federation) once per executor and algorithm, measures wall time, checks
that the batched cohort path reproduces the sequential bits exactly,
and writes a machine-readable artifact::

    PYTHONPATH=src python -m tools.perfbench --output BENCH_pr6.json

The artifact's *speedup ratios* (sequential / batched wall time) are the
committed perf trajectory: they are roughly machine-independent — both
paths run the same FLOPs through the same BLAS — so
``tools/perfgate.py`` can gate regressions on any host.  Absolute
seconds are recorded for context only.

``--scale`` shrinks/grows the workload like the benchmark suite's
``REPRO_BENCH_SCALE`` (devices floor at 8 so a cohort is always worth
stacking); ``--hotspots`` additionally records the top self-time spans
of one traced batched run.

``--client-scaling`` adds the massive-cohort axis (ISSUE 7): for each
registered-population size ``N`` it builds a lazy synthetic federation,
runs ``K`` participants per round through the virtual-client path, and
records setup wall time, tracemalloc peak memory, and per-round wall
time.  Because only packed metadata and the ``K`` hydrated shards are
ever resident, all three should stay nearly flat as ``N`` grows —
``tools/perfgate.py`` gates the max-N/min-N ratios.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from repro.core.algorithms import make_local_solver
from repro.datasets import make_fashion, make_synthetic
from repro.fl.delays import make_uniform_delays
from repro.fl.executor import SequentialExecutor
from repro.fl.runner import (
    FederatedRunConfig,
    build_client_pool,
    resolve_smoothness,
    run_federated,
)
from repro.fl.server import FederatedServer
from repro.models import MultinomialLogisticModel
from repro.utils.rng import spawn_seeds

SCHEMA = "repro.perfbench/v1"

#: default registered-population sizes of the --client-scaling axis
SCALING_DEVICES = (100, 10_000, 100_000)
#: participants per round on the scaling axis (K of the O(K) claim)
SCALING_PARTICIPANTS = 16

#: (algorithm, mu, solver_kwargs) of the Fig. 2 comparison.  The
#: variance-reduced solvers skip the optional final-gradient audit
#: (``evaluate_final=False``) for the same reason the bench evaluates
#: only once: the trajectory measures local-solve throughput, and the
#: audit is an identical per-client pass in both executors.  The
#: equivalence suite keeps the audit path's bit-identity covered.
ALGOS = [
    ("fedavg", 0.0, {}),
    ("fedproxvr-svrg", 0.1, {"evaluate_final": False}),
    ("fedproxvr-sarah", 0.1, {"evaluate_final": False}),
]


def scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(base * scale)))


def build_workload(args) -> Dict[str, object]:
    """The fixed macro-bench geometry: fig2's (beta=7, tau=20) panel.

    The larger-``tau`` fig2 setting is the one whose per-round cost is
    dominated by the local inner loops — exactly the work the batched
    cohort path vectorizes — so it is the committed trajectory's
    workload (the smaller ``tau=10`` panel measures the same code with
    a bigger fixed-cost share).
    """
    return {
        "dataset": "fashion",
        "num_devices": args.devices or scaled(20, args.scale, floor=8),
        "num_samples": args.samples or scaled(2400, args.scale, floor=240),
        "labels_per_device": 2,
        "min_size": 37,
        "max_size": 270,
        "dataset_seed": 0,
        "num_rounds": args.rounds or scaled(30, args.scale, floor=3),
        "num_local_steps": 20,
        "beta": 7.0,
        "batch_size": 32,
        "run_seed": 1,
    }


def make_dataset(workload: Dict[str, object]):
    return make_fashion(
        num_devices=workload["num_devices"],
        num_samples=workload["num_samples"],
        labels_per_device=workload["labels_per_device"],
        min_size=workload["min_size"],
        max_size=workload["max_size"],
        seed=workload["dataset_seed"],
    )


def run_workload(
    workload: Dict[str, object],
    algorithm: str,
    mu: float,
    executor: str,
    *,
    dataset=None,
    solver_kwargs: Optional[Dict[str, object]] = None,
    repeat: int = 1,
):
    """Best-of-``repeat`` wall time for one (algorithm, executor) cell.

    Every repetition runs the identical seeded experiment, so the final
    model is the same each time; the minimum wall time is the standard
    noise-robust estimate of the cell's cost.
    """
    if dataset is None:
        dataset = make_dataset(workload)

    def factory():
        return MultinomialLogisticModel(dataset.num_features, dataset.num_classes)

    config = FederatedRunConfig(
        algorithm=algorithm,
        num_rounds=workload["num_rounds"],
        num_local_steps=workload["num_local_steps"],
        beta=workload["beta"],
        mu=mu,
        batch_size=workload["batch_size"],
        seed=workload["run_seed"],
        # Evaluate once at the end: the trajectory measures local-solve
        # throughput, not the shared evaluation pass.
        eval_every=workload["num_rounds"],
        executor=executor,
        solver_kwargs=dict(solver_kwargs or {}),
    )
    seconds = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        history, w_final = run_federated(dataset, factory, config)
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, history, w_final


def capture_spans(
    workload,
    algorithm: str,
    mu: float,
    solver_kwargs=None,
    executor: str = "batched",
) -> List[dict]:
    """Span events of one traced run (default: batched)."""
    from repro.obs import InMemorySink, telemetry

    sink = InMemorySink()
    telemetry.configure([sink])
    try:
        run_workload(workload, algorithm, mu, executor, solver_kwargs=solver_kwargs)
    finally:
        telemetry.shutdown()
    return sink.by_type("span")


def emit_run_ledger(
    path: str,
    workload: Dict[str, object],
    algorithm: str,
    executor: str,
    seconds: float,
    history,
    spans: Optional[List[dict]] = None,
) -> None:
    """Write one macro-bench cell as a ``repro.ledger/v2`` file.

    The BENCH_*.json artifact commits only the speedup *ratios*; the
    ledger is the drill-down behind them — the run's resolved config,
    its per-round records, and (when captured) the span events of a
    traced run, whose self-time hotspots ``repro obs-diff`` aligns
    across executors or commits to explain a gate failure.
    """
    from repro.obs import RunLedger

    ledger = RunLedger(path)
    ledger.write_manifest(
        dict(history.config),
        attrs={
            "perfbench": True,
            "algorithm": algorithm,
            "executor": executor,
            "wall_seconds": round(seconds, 4),
            "workload": dict(workload),
        },
    )
    for rec in history.records:
        ledger.commit_round(
            rec.round_index, asdict(rec), sim_time=rec.sim_time
        )
    for span in spans or ():
        ledger.emit(span)
    ledger.close("completed")


def scaling_cell(
    num_devices: int,
    participants: int,
    *,
    rounds: int = 2,
    algorithm: str = "fedproxvr-svrg",
    mu: float = 0.1,
) -> Dict[str, object]:
    """One point on the client-scaling axis.

    Mirrors ``run_federated``'s construction sequence so the timed
    *setup* phase is exactly what a user run pays before round 1:
    dataset registration, smoothness probe, solver/pool/server build,
    and ``w0`` initialization.  ``tracemalloc`` peak covers setup plus
    the measured rounds — the resident-footprint number that must stay
    sublinear in ``N``.
    """
    participants = min(participants, num_devices)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        dataset = make_synthetic(
            1.0,
            1.0,
            num_devices=num_devices,
            num_features=60,
            num_classes=10,
            min_size=100,
            max_size=400,
            seed=0,
            lazy=True,
        )
        config = FederatedRunConfig(
            algorithm=algorithm,
            num_rounds=rounds,
            num_local_steps=10,
            beta=5.0,
            mu=mu,
            batch_size=32,
            seed=1,
            client_fraction=participants / num_devices,
            eval_every=rounds,
            max_eval_clients=participants,
        )
        init_seed, server_seed = (
            s.entropy for s in spawn_seeds(config.seed, 2)
        )
        probe_model = MultinomialLogisticModel(
            dataset.num_features, dataset.num_classes
        )
        L = resolve_smoothness(
            probe_model,
            dataset,
            seed=config.seed,
            probe_devices=config.smoothness_probe_devices,
        )
        solver = make_local_solver(
            config.algorithm,
            step_size=1.0 / (config.beta * L),
            num_steps=config.num_local_steps,
            batch_size=config.batch_size,
            mu=config.mu,
        )
        pool = build_client_pool(
            dataset,
            lambda: MultinomialLogisticModel(
                dataset.num_features, dataset.num_classes
            ),
            solver,
            share_model=True,
            seed=config.seed,
            virtual=True,
            client_fraction=config.client_fraction,
        )
        server = FederatedServer(
            pool,
            eval_model=probe_model,
            executor=SequentialExecutor(),
            delay_model=make_uniform_delays(num_devices),
            client_fraction=config.client_fraction,
            seed=server_seed,
            eval_client_cap=config.max_eval_clients,
        )
        w0 = probe_model.init_parameters(init_seed)
        setup_seconds = time.perf_counter() - t0

        t1 = time.perf_counter()
        history, _ = server.train(
            w0, rounds, algorithm_name=algorithm, eval_every=rounds
        )
        round_seconds = (time.perf_counter() - t1) / rounds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "registered_clients": num_devices,
        "participants": participants,
        "rounds": rounds,
        "setup_seconds": round(setup_seconds, 4),
        "per_round_seconds": round(round_seconds, 4),
        "peak_mem_mb": round(peak / 2**20, 3),
        "hydrations": pool.hydration_count,
        "lru_hits": pool.hit_count,
        "final_loss": round(history.records[-1].train_loss, 6),
    }


def run_client_scaling(
    devices: List[int], participants: int, *, rounds: int = 2, repeat: int = 1
) -> Dict[str, object]:
    """The client-scaling axis: one cell per registered-population size.

    ``repeat`` keeps the best (minimum) wall times per cell; memory is
    taken from the first repetition (allocation peaks are deterministic).
    """
    cells: List[Dict[str, object]] = []
    for n in devices:
        best: Optional[Dict[str, object]] = None
        for _ in range(max(1, repeat)):
            cell = scaling_cell(n, participants, rounds=rounds)
            if best is None:
                best = cell
            else:
                best["setup_seconds"] = min(
                    best["setup_seconds"], cell["setup_seconds"]
                )
                best["per_round_seconds"] = min(
                    best["per_round_seconds"], cell["per_round_seconds"]
                )
        assert best is not None
        cells.append(best)
        print(
            f"N={best['registered_clients']:>7d} K={best['participants']:<3d} "
            f"setup {best['setup_seconds']:7.3f}s   "
            f"round {best['per_round_seconds']:7.3f}s   "
            f"peak {best['peak_mem_mb']:8.2f} MiB   "
            f"hydrations {best['hydrations']}"
        )
    return {
        "participants": participants,
        "rounds": rounds,
        "measurement": {"repeat": repeat, "memory": "tracemalloc-peak"},
        "cells": cells,
    }


def run_bench(args) -> Dict[str, object]:
    workload = build_workload(args)
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "workload": workload,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": multiprocessing.cpu_count(),
            "machine": platform.machine(),
        },
        "measurement": {"repeat": args.repeat, "metric": "min-wall-seconds"},
    }
    if not args.skip_macro:
        payload.update(run_macro(workload, args))
    if args.client_scaling:
        payload["client_scaling"] = run_client_scaling(
            args.scaling_devices or list(SCALING_DEVICES),
            args.scaling_participants,
            rounds=args.scaling_rounds,
            repeat=args.repeat,
        )
    return payload


def run_macro(workload: Dict[str, object], args) -> Dict[str, object]:
    dataset = make_dataset(workload)
    results: Dict[str, dict] = {}
    ledger_dir = getattr(args, "ledger_dir", None)
    if ledger_dir:
        os.makedirs(ledger_dir, exist_ok=True)
    for algorithm, mu, solver_kwargs in ALGOS:
        seq_seconds, h_seq, w_seq = run_workload(
            workload, algorithm, mu, "sequential",
            dataset=dataset, solver_kwargs=solver_kwargs, repeat=args.repeat,
        )
        bat_seconds, h_bat, w_bat = run_workload(
            workload, algorithm, mu, "batched",
            dataset=dataset, solver_kwargs=solver_kwargs, repeat=args.repeat,
        )
        identical = bool(np.array_equal(w_seq, w_bat))
        results[algorithm] = {
            "sequential_seconds": round(seq_seconds, 4),
            "batched_seconds": round(bat_seconds, 4),
            "speedup": round(seq_seconds / bat_seconds, 4),
            "identical": identical,
        }
        print(
            f"{algorithm:18s} sequential {seq_seconds:7.2f}s   "
            f"batched {bat_seconds:7.2f}s   speedup {seq_seconds / bat_seconds:5.2f}x"
            f"   bit-identical: {identical}"
        )
        if ledger_dir:
            # One extra traced run per cell pays for the drill-down:
            # each ledger carries the cell's span events so
            # ``repro obs-diff`` can attribute a speedup (or a gate
            # failure) to specific spans, not just the total.
            for executor, seconds, history in (
                ("sequential", seq_seconds, h_seq),
                ("batched", bat_seconds, h_bat),
            ):
                spans = capture_spans(
                    workload, algorithm, mu, solver_kwargs, executor=executor
                )
                path = os.path.join(
                    ledger_dir, f"{algorithm}.{executor}.ledger.jsonl"
                )
                emit_run_ledger(
                    path, workload, algorithm, executor, seconds, history,
                    spans=spans,
                )
                print(f"  ledger: {path}")
    speedups = [r["speedup"] for r in results.values()]
    section: Dict[str, object] = {
        "results": results,
        "min_speedup": round(min(speedups), 4),
        "geomean_speedup": round(float(np.exp(np.mean(np.log(speedups)))), 4),
    }
    if args.hotspots:
        from repro.obs.report import top_hotspots

        algorithm, mu, solver_kwargs = ALGOS[-1]
        section["hotspots"] = top_hotspots(
            capture_spans(workload, algorithm, mu, solver_kwargs), k=8
        )
    return section


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 = the committed fig2 geometry)")
    parser.add_argument("--devices", type=int, default=None,
                        help="override device count (tests)")
    parser.add_argument("--samples", type=int, default=None,
                        help="override global corpus size (tests)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override round count (tests)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per cell; wall time is the best "
                             "of these (default 3)")
    parser.add_argument("--output", "-o", default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--hotspots", action="store_true",
                        help="record top self-time spans of a traced batched run")
    parser.add_argument("--ledger-dir", default=None,
                        help="also emit one repro.ledger/v2 file per "
                             "(algorithm, executor) macro cell into this "
                             "directory (config manifest, round records, "
                             "span events of a traced run) for repro obs-diff")
    parser.add_argument("--client-scaling", action="store_true",
                        help="also run the massive-cohort scaling axis "
                             "(virtual clients, lazy shards)")
    parser.add_argument("--scaling-devices", type=int, nargs="+", default=None,
                        help=f"registered-population sizes for the scaling "
                             f"axis (default {list(SCALING_DEVICES)})")
    parser.add_argument("--scaling-participants", type=int,
                        default=SCALING_PARTICIPANTS,
                        help="participants per round on the scaling axis "
                             f"(default {SCALING_PARTICIPANTS})")
    parser.add_argument("--scaling-rounds", type=int, default=2,
                        help="measured rounds per scaling cell (default 2)")
    parser.add_argument("--skip-macro", action="store_true",
                        help="skip the fig2 macro bench (scaling-only artifact)")
    args = parser.parse_args(argv)
    if args.skip_macro and not args.client_scaling:
        parser.error("--skip-macro requires --client-scaling")

    payload = run_bench(args)
    if "min_speedup" in payload:
        print(f"min speedup {payload['min_speedup']}x, "
              f"geomean {payload['geomean_speedup']}x")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
