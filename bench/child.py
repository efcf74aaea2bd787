"""One benchmark run in a fresh interpreter.

    python -m bench.child '{"workload": "fig2-mlr", "seed": 0, "mode": "run"}'

Modes:

``run``    build the dataset, train the workload's rounds, report setup
           and per-round wall times, the final-weights digest and loss;
``trace``  the same run with the layer wrappers of :mod:`bench.trace`
           installed, additionally reporting per-layer metrics;
``check``  two prefix runs of ``PREFIX_ROUNDS`` rounds at a given
           ``smoothness`` — one on the
           workload's executor, one on ``sequential`` — reporting both
           digests.

The result is printed as one JSON line on stdout.  Round boundaries come
from :class:`RoundClock`, a duck-typed stand-in for ``repro``'s run
ledger, so nothing inside ``repro`` is timed by ``repro`` itself.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from repro.datasets.base import LazyFederatedDataset
from repro.fl.runner import run_federated

from bench import trace as bench_trace
from bench import workloads


class RoundClock:
    """The ``ledger=`` hook of ``run_federated``: stamps round boundaries.

    ``write_manifest`` is called just before round 1 and ``commit_round``
    once each round has finished, so consecutive stamps bound each
    round's wall time.
    """

    def __init__(self, tracer: Optional[bench_trace.Tracer] = None) -> None:
        self.tracer = tracer
        self.manifest_t: Optional[float] = None
        self.commits: List[float] = []
        self.config: dict = {}
        self.status: Optional[str] = None
        self.hydrations_at_start = 0

    def write_manifest(self, run_config, *, entropy=None, attrs=None) -> None:
        self.config = dict(run_config)
        if self.tracer is not None:
            self.hydrations_at_start = _hydrations(self.tracer.pool)
            self.tracer.round = 1
        self.manifest_t = time.perf_counter()

    def commit_round(self, round_index, payload, *, evaluated=False, sim_time=None) -> None:
        self.commits.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.round = round_index + 1

    def close(self, status: str) -> None:
        if self.tracer is not None:
            self.tracer.round = None
        self.status = status


def _hydrations(pool) -> int:
    return int(getattr(pool, "hydration_count", 0))


def digest(w: np.ndarray) -> str:
    """SHA-256 of the final weights' float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(w, dtype=np.float64).tobytes()).hexdigest()


def run_once(wl: workloads.Workload, seed: int, *, traced: bool, trace_out: Optional[str]) -> dict:
    tracer = bench_trace.Tracer() if traced else None

    def model_factory():
        model = wl.make_model(dataset)
        if tracer is not None:
            bench_trace.instrument_model(tracer, model)
        return model

    clock = RoundClock(tracer)
    with bench_trace.installed(tracer) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        dataset = wl.make_dataset(seed)
        build_s = time.perf_counter() - t0
        if tracer is not None and isinstance(dataset, LazyFederatedDataset):
            bench_trace.instrument_lazy_dataset(tracer, dataset)
        history, w = run_federated(dataset, model_factory, wl.config(seed), ledger=clock)
    stamps = [clock.manifest_t] + clock.commits
    round_s = [b - a for a, b in zip(stamps, stamps[1:])]
    final_loss = history.records[-1].train_loss if history.records else float("nan")
    result = {
        "build_s": build_s,
        "setup_s": clock.manifest_t - t0,
        "train_s": stamps[-1] - stamps[0],
        "round_s": round_s,
        "rounds": len(round_s),
        "status": clock.status,
        "digest": digest(w),
        "final_loss": final_loss,
        "L": clock.config.get("L"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = bench_trace.layer_metrics(
            tracer.spans,
            tracer.counters,
            rounds=len(round_s),
            train_s=result["train_s"],
            build_s=build_s,
            workers=wl.workers,
            hydrations=_hydrations(tracer.pool) - clock.hydrations_at_start,
        )
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as fh:
                spans = [asdict(s) for s in tracer.spans]
                json.dump({"workload": wl.name, "seed": seed, "spans": spans}, fh)
    return result


def run_check(wl: workloads.Workload, seed: int, smoothness: float) -> dict:
    dataset = wl.make_dataset(seed)
    digests = []
    for executor in (wl.executor, "sequential"):
        config = wl.config(
            seed, rounds=workloads.PREFIX_ROUNDS, executor=executor, smoothness=smoothness
        )
        _, w = run_federated(dataset, lambda: wl.make_model(dataset), config)
        digests.append({"executor": executor, "digest": digest(w)})
    return {"digests": digests}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    wl = workloads.get(spec["workload"], smoke=spec.get("smoke", False))
    if spec["mode"] == "check":
        result = run_check(wl, spec["seed"], spec["smoothness"])
    else:
        result = run_once(
            wl, spec["seed"], traced=spec["mode"] == "trace", trace_out=spec.get("trace_out")
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
