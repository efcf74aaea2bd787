"""Run the benchmark's workloads and report their metrics.

    python -m bench run   [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
                          [--smoke] [--out F.json] [--trace-out F.json]
    python -m bench trace [same options]            # = run --trace 1

For each workload ``run`` starts fresh ``python -m bench.child``
subprocesses, one at a time, until it has measured for ``--seconds`` and
has at least ``MIN_RUNS`` runs.  Round percentiles pool the rounds of
all runs; setup, throughput and memory are medians over runs.  It
then runs the correctness gate, prints every metric with its unit and
sample count, and ends with one JSON line::

    {"correct": true, "attempted": 124, "failed": 0, "metrics": {...}}

``--trace 1`` adds one traced run per workload and the JSON line carries
the per-layer metrics instead.  The exit code is 0 only when every check
passed; it is 2, with no JSON line, when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench import workloads
from bench.trace import SHARE_OF

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = "repro.bench/v1"
DEFAULT_SECONDS = 15

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "client_steps_per_s": "steps/s",
    "round_s_p50": "s",
    "round_s_p90": "s",
    "peak_rss_mb": "MiB",
}

#: per-layer metric -> unit (everything the traced run reports)
LAYER_UNITS = {
    "datasets.build_s": "s",
    "datasets.shard_s": "s",
    "datasets.shards": "count",
    "fl.runner.smoothness_s": "s",
    "fl.runner.pool_build_s": "s",
    "fl.registry.hydrate_s": "s",
    "fl.registry.hydrations": "count",
    "fl.registry.lru_hit_ratio": "ratio",
    "fl.executor.run_round_s": "s",
    "fl.executor.queue_wait_s": "s",
    "fl.executor.parallel_eff": "ratio",
    "fl.executor.batched_share": "ratio",
    "core.local.solve_s": "s",
    "core.local.self_s": "s",
    "core.local.client_steps": "count",
    "core.local.us_per_client_step": "us",
    "models.grad_s": "s",
    "models.grad_calls": "count",
    "models.batched.gradient_stack_s": "s",
    "models.batched.calls": "count",
    "core.estimators.estimate_self_s": "s",
    "core.proximal.prox_s": "s",
    "nn.conv2d.fwd_s": "s",
    "nn.conv2d.bwd_s": "s",
    "nn.maxpool2d.s": "s",
    "nn.dense.s": "s",
    "nn.other.s": "s",
    "fl.metrics.loss_grad_s": "s",
    "fl.metrics.accuracy_s": "s",
    "fl.metrics.clients_per_eval": "count",
    "fl.server.self_s": "s",
    **{share: "ratio" for share in SHARE_OF},
    "trace_overhead_frac": "ratio",
}

#: the per-layer metrics of the JSON line: times that are exactly zero
#: on workloads that never enter their layer travel as shares instead
LINE_LAYER = tuple(name for name in LAYER_UNITS if name not in SHARE_OF.values())


def host_record() -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    record: Dict[str, object] = {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        import numpy

        record["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = blas.get("name")
        record["blas_version"] = blas.get("version")
    except (ImportError, TypeError, KeyError) as exc:
        record["blas"] = f"unknown ({type(exc).__name__})"
    return record


def spawn(spec: dict, timeout: float) -> dict:
    """Run one child; its JSON result, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{spec['mode']} run timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{spec['mode']} run exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _run_problem(wl: workloads.Workload, run: dict) -> Optional[str]:
    if "error" in run:
        return run["error"]
    if run["status"] != "completed" or run["rounds"] != wl.rounds:
        return f"run ended {run['status']} after {run['rounds']}/{wl.rounds} rounds"
    if not math.isfinite(run["final_loss"]):
        return f"final train loss is {run['final_loss']}"
    return None


def measure(
    wl: workloads.Workload,
    *,
    seed: int,
    seconds: float,
    smoke: bool,
    trace: bool,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one workload, gate its outputs, and reduce its metrics."""
    base = {"workload": wl.name, "seed": seed, "smoke": smoke}
    min_runs = workloads.SMOKE_RUNS if smoke else workloads.MIN_RUNS
    runs: List[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = smoke or elapsed >= seconds or any(_run_problem(wl, r) for r in runs)
        if len(runs) >= min_runs and enough:
            break
        runs.append(spawn({**base, "mode": "run"}, wl.timeout_s))

    # Correctness gate: a run that fails any check fails all its rounds.
    problems = [_run_problem(wl, r) for r in runs]
    digests = [r["digest"] for r, p in zip(runs, problems) if p is None]
    reference = statistics.mode(digests) if digests else None
    pinned = workloads.PINNED_FINAL_LOSS.get(wl.name)
    check_pinned = pinned is not None and not smoke and seed == workloads.PINNED_SEED
    errors: List[str] = []
    ok: List[dict] = []
    for i, (r, problem) in enumerate(zip(runs, problems)):
        if problem is None and r["digest"] != reference:
            problem = "final-weights digest differs from the other runs"
        elif problem is None and check_pinned and (
            abs(r["final_loss"] - pinned) > workloads.PINNED_RTOL * abs(pinned)
        ):
            problem = f"final loss {r['final_loss']!r} != pinned {pinned!r}"
        if problem:
            errors.append(f"run {i}: {problem}")
        else:
            ok.append(r)
    attempted = len(runs) * wl.rounds
    failed = (len(runs) - len(ok)) * wl.rounds

    check: Optional[dict] = None
    if ok:
        check = spawn({**base, "mode": "check", "smoothness": ok[0]["L"]}, wl.timeout_s)
        check_rounds = 2 * workloads.PREFIX_ROUNDS
        attempted += check_rounds
        problem = check.get("error")
        if problem is None and len({d["digest"] for d in check["digests"]}) != 1:
            problem = f"executors disagree: {check['digests']}"
        if problem:
            errors.append(f"prefix check: {problem}")
            failed += check_rounds

    record = {**base, "runs": runs, "check": check}
    metrics: Dict[str, dict] = {}
    if ok:
        steps = wl.rounds * wl.clients_per_round * wl.tau
        pooled = [t for r in ok for t in r["round_s"]]
        values = {
            "setup_s": (statistics.median(r["setup_s"] for r in ok), len(ok)),
            "client_steps_per_s": (statistics.median(steps / r["train_s"] for r in ok), len(ok)),
            "round_s_p50": (statistics.median(pooled), len(pooled)),
            "round_s_p90": (
                statistics.quantiles(pooled, n=10, method="inclusive")[8], len(pooled)
            ),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), len(ok)),
        }
        metrics = {
            name: {"value": v, "unit": END_TO_END[name], "samples": n}
            for name, (v, n) in values.items()
        }

    if trace and ok:
        traced = spawn({**base, "mode": "trace", "trace_out": trace_out}, wl.timeout_s)
        attempted += wl.rounds
        problem = _run_problem(wl, traced)
        if problem is None and traced["digest"] != reference:
            problem = "traced digest differs from the untraced runs"
        if problem:
            errors.append(f"traced run: {problem}")
            failed += wl.rounds
        else:
            layers = dict(traced["layers"])
            untraced = statistics.median(r["train_s"] for r in ok)
            layers["trace_overhead_frac"] = traced["train_s"] / untraced - 1.0
            record["layers"] = {
                name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS
            }
        record["traced_run"] = {k: v for k, v in traced.items() if k != "layers"}

    metrics["round_fail_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    record.update(
        correct=not errors and bool(ok),
        attempted=attempted,
        failed=failed,
        errors=errors,
        metrics=metrics,
    )
    return record


def _print_record(record: dict, out) -> None:
    runs = record["runs"]
    verdict = "correct" if record["correct"] else "INCORRECT"
    print(
        f"{record['workload']} (seed {record['seed']}): {len(runs)} runs, "
        f"{record['failed']}/{record['attempted']} rounds failed, {verdict}",
        file=out,
    )
    for error in record["errors"]:
        print(f"  ! {error}", file=out)
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<8} n={m['samples']}", file=out)
    for name, m in record.get("layers", {}).items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}", file=out)


def _append_set(path: str, result: dict) -> None:
    target = Path(path)
    doc = {"schema": SCHEMA, "sets": []}
    if target.exists():
        doc = json.loads(target.read_text(encoding="utf-8"))
    doc["sets"].append(result)
    target.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _trace_path(trace_out: Optional[str], name: str, many: bool) -> Optional[str]:
    if not trace_out:
        return None
    if not many:
        return str(Path(trace_out).resolve())
    p = Path(trace_out).resolve()
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}"))


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.NAMES)
    many = len(names) > 1
    records = []
    for name in names:
        wl = workloads.get(name, smoke=args.smoke)
        record = measure(
            wl,
            seed=args.seed,
            seconds=args.seconds,
            smoke=args.smoke,
            trace=bool(args.trace),
            trace_out=_trace_path(args.trace_out, name, many),
        )
        _print_record(record, sys.stdout)
        records.append(record)

    result = {
        "schema": SCHEMA,
        "host": host_record(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {r["workload"]: r for r in records},
    }
    if args.out:
        _append_set(args.out, result)

    line: Dict[str, dict] = {}
    for r in records:
        source = r.get("layers", {}) if args.trace else r["metrics"]
        wanted = LINE_LAYER if args.trace else END_TO_END
        for name in wanted:
            if name in source:
                key = f"{r['workload']}.{name}" if many else name
                line[key] = {"value": source[name]["value"], "unit": source[name]["unit"]}
    correct = all(r["correct"] for r in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": line,
            }
        )
    )
    return 0 if correct else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command, help=f"{command} the workloads")
        p.add_argument("--workload", action="append", choices=workloads.NAMES,
                       help="workload to run (repeatable; default: all)")
        p.add_argument("--seed", type=int, default=0, help="dataset and run seed (default 0)")
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help=f"measure each workload at least this long (default {DEFAULT_SECONDS})")
        p.add_argument("--trace", type=int, choices=(0, 1), default=int(command == "trace"),
                       help="1: add a traced run and report per-layer metrics")
        p.add_argument("--smoke", action="store_true", help="tiny workloads, two runs each")
        p.add_argument("--out", help="append this set's full results to this JSON file")
        p.add_argument("--trace-out", help="write the traced run's spans to this JSON file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))
