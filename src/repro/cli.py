"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     — train one algorithm on one dataset and print the history
(``--ledger PATH`` records the run: see ``docs/OBSERVABILITY.md``).
``compare`` — train several algorithms under identical settings.
``theory``  — evaluate Lemma 1 bounds and Theorem 1's factor at given knobs.
``optimize``— solve the §4.3 problem for one or more gamma values (Fig. 1).
``obs-report`` — render a run ledger from ``repro run --ledger``: rounds,
alerts, span tree and self-time hotspots.
``obs-diff`` — align two run ledgers and report metric/hotspot deltas
with a regression verdict.
``obs-check`` — validate a ledger and assert alert/round expectations
(the CI building block for monitored demo runs).

The CLI is a thin veneer over the public API, so every option maps 1:1
onto :class:`repro.fl.runner.FederatedRunConfig` / the theory functions.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import param_opt, theory
from repro.core.algorithms import ALGORITHMS
from repro.core.theory import ProblemConstants
from repro.datasets import make_digits, make_fashion, make_synthetic
from repro.datasets.base import FederatedDataset
from repro.exceptions import ConfigurationError, InfeasibleParametersError
from repro.fl.history import format_comparison
from repro.fl.runner import EXECUTOR_CHOICES, FederatedRunConfig, run_federated
from repro.models import (
    Model,
    MultinomialLogisticModel,
    make_mlp_model,
    make_paper_cnn_model,
)
from repro.obs import (
    LEDGER_SCHEMA,
    LedgerReader,
    MonitorFailFast,
    RunLedger,
    default_monitor_suite,
    diff_ledgers,
    render_diff,
    telemetry,
)
from repro.obs.report import render_report

DATASETS = ("synthetic", "digits", "fashion")
MODELS = ("mlr", "mlp", "cnn")


def build_dataset(name: str, *, num_devices: int, num_samples: int, seed: int) -> FederatedDataset:
    """Instantiate a dataset by CLI name."""
    if name == "synthetic":
        return make_synthetic(
            1.0, 1.0, num_devices=num_devices,
            min_size=40, max_size=max(80, num_samples // max(1, num_devices)),
            seed=seed,
        )
    if name == "digits":
        return make_digits(num_devices=num_devices, num_samples=num_samples, seed=seed)
    if name == "fashion":
        return make_fashion(num_devices=num_devices, num_samples=num_samples, seed=seed)
    raise ConfigurationError(f"unknown dataset {name!r}; choices: {DATASETS}")


def build_model_factory(name: str, dataset: FederatedDataset) -> Callable[[], Model]:
    """Model factory by CLI name, sized to the dataset."""
    if name == "mlr":
        return lambda: MultinomialLogisticModel(
            dataset.num_features, dataset.num_classes
        )
    if name == "mlp":
        return lambda: make_mlp_model(
            dataset.num_features, dataset.num_classes, (64,), seed=0
        )
    if name == "cnn":
        side = int(round(dataset.num_features**0.5))
        if side * side != dataset.num_features:
            raise ConfigurationError(
                "cnn model needs square image features (e.g. the digits/fashion datasets)"
            )
        return lambda: make_paper_cnn_model(
            (1, side, side), dataset.num_classes, channel_scale=0.25, seed=0
        )
    raise ConfigurationError(f"unknown model {name!r}; choices: {MODELS}")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=DATASETS, default="synthetic")
    p.add_argument("--model", choices=MODELS, default="mlr")
    p.add_argument("--devices", type=int, default=20)
    p.add_argument("--samples", type=int, default=2000,
                   help="global corpus size for image datasets")
    p.add_argument("--rounds", "-T", type=int, default=50)
    p.add_argument("--tau", type=int, default=10, help="local iterations")
    p.add_argument("--beta", type=float, default=5.0, help="eta = 1/(beta L)")
    p.add_argument("--mu", type=float, default=0.1, help="proximal penalty")
    p.add_argument("--batch-size", "-B", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=5)
    p.add_argument("--executor", choices=EXECUTOR_CHOICES, default="sequential",
                   help="client scheduling: 'batched' runs homogeneous cohorts "
                        "as stacked solves (see docs/PERFORMANCE.md)")
    p.add_argument("--ledger", metavar="PATH",
                   help="record the run in a crash-safe repro.ledger/v2 run "
                        "ledger here (config, rounds, spans, metric deltas, "
                        "alerts) and run the default monitor suite (inspect "
                        "with 'repro obs-report' / 'repro obs-check'; compare "
                        "runs with 'repro obs-diff')")
    p.add_argument("--profile-nn", action="store_true",
                   help="with --ledger, time every nn layer forward/backward "
                        "(adds overhead; off by default)")
    p.add_argument("--fail-fast", action="store_true",
                   help="with --ledger, abort the run on the first "
                        "error-severity monitor alert (exit code 3)")


def _prepare(
    args, algorithms: Sequence[str]
) -> Tuple[FederatedDataset, Callable[[], Model], List[FederatedRunConfig]]:
    """Build each algorithm's run config and check the flags, then build
    and announce the dataset + model factory.

    A bad setting is rejected before anything is printed or written.
    """
    configs = [_make_config(args, algorithm) for algorithm in algorithms]
    if (args.fail_fast or args.profile_nn) and not args.ledger:
        raise ConfigurationError("--fail-fast and --profile-nn need --ledger")
    if args.ledger:
        # Reject an unwritable ledger directory before building the
        # dataset; compare's per-algorithm ledgers share this directory.
        directory = os.path.dirname(args.ledger) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
            raise ConfigurationError(
                f"cannot open ledger {args.ledger!r}: "
                f"{directory!r} is not a writable directory"
            )
    dataset = build_dataset(
        args.dataset, num_devices=args.devices, num_samples=args.samples, seed=args.seed
    )
    factory = build_model_factory(args.model, dataset)
    print(dataset.summary())
    return dataset, factory, configs


def _make_config(args, algorithm: str) -> FederatedRunConfig:
    return FederatedRunConfig(
        algorithm=algorithm,
        num_rounds=args.rounds,
        num_local_steps=args.tau,
        beta=args.beta,
        # FedAvg's solver ignores mu: record the 0 it runs with, so the
        # manifest and the Theorem-1 monitor see the same value.
        mu=0.0 if algorithm == "fedavg" else args.mu,
        batch_size=args.batch_size,
        seed=args.seed,
        eval_every=args.eval_every,
        executor=args.executor,
    )


@contextmanager
def _ledger_session(args, path: Optional[str]):
    """Yield ``(ledger, monitors)`` for one run; ``(None, None)`` unledgered.

    The ledger is the telemetry session's only sink, so the run's
    spans and per-round metric deltas land in it beside the rounds.
    """
    if path is None:
        yield None, None
        return
    try:
        ledger = RunLedger(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot open ledger {path!r}: {exc}") from exc
    telemetry.configure([ledger], nn_profiling=args.profile_nn)
    try:
        yield ledger, default_monitor_suite(fail_fast=args.fail_fast)
    except BaseException:
        # run_federated closes the ledger with the run's status; this
        # marks runs that failed before it got that far (close is
        # idempotent, so it never overrides that status).
        ledger.close("failed")
        raise
    finally:
        telemetry.shutdown()
        print(f"ledger written to {path} "
              f"({ledger.alert_count} alert(s); inspect with: "
              f"repro obs-report {path})")


def _ledger_path_for(path: str, algorithm: str) -> str:
    """Per-algorithm ledger path: ``runs.jsonl`` -> ``runs.fedavg.jsonl``."""
    root, ext = os.path.splitext(path)
    return f"{root}.{algorithm}{ext or '.jsonl'}"


def cmd_run(args) -> int:
    dataset, factory, (config,) = _prepare(args, [args.algorithm])
    try:
        with _ledger_session(args, args.ledger) as (ledger, monitors):
            run_federated(
                dataset, factory, config,
                verbose=True, ledger=ledger, monitors=monitors,
            )
    except MonitorFailFast as exc:
        print(f"fail-fast: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_compare(args) -> int:
    dataset, factory, configs = _prepare(args, args.algorithms)
    histories = []
    for config in configs:
        algorithm = config.algorithm
        # One ledger (and telemetry session) per algorithm: a manifest
        # binds one run.
        path = _ledger_path_for(args.ledger, algorithm) if args.ledger else None
        try:
            with _ledger_session(args, path) as (ledger, monitors):
                history, _ = run_federated(
                    dataset, factory, config, ledger=ledger, monitors=monitors,
                )
        except MonitorFailFast as exc:
            print(f"fail-fast ({algorithm}): {exc}", file=sys.stderr)
            return 3
        histories.append(history)
        print(f"  {algorithm:>18s}: final loss {history.final('train_loss'):.4f}  "
              f"acc {history.final('test_accuracy'):.4f}")
    print()
    print(format_comparison(histories))
    return 0


def cmd_obs_report(args) -> int:
    try:
        print(render_report(args.ledger, top=args.top), end="")
    except (OSError, ValueError) as exc:
        print(f"error: cannot render {args.ledger!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_obs_diff(args) -> int:
    try:
        result = diff_ledgers(
            args.ledger_a, args.ledger_b, rel_threshold=args.rel_threshold
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot diff ledgers: {exc}", file=sys.stderr)
        return 2
    print(render_diff(result, top=args.top))
    if args.fail_on_regression and result["verdict"] != "ok":
        return 1
    return 0


def cmd_obs_check(args) -> int:
    """Validate a ledger and assert CI expectations on it."""
    try:
        reader = LedgerReader(args.ledger)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.ledger!r}: {exc}", file=sys.stderr)
        return 2
    errors = reader.validate()
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    resume = reader.resume_point()
    alerts = reader.alerts()
    fired = sorted({a.get("monitor", "?") for a in alerts})
    print(f"{args.ledger}: valid {LEDGER_SCHEMA}  "
          f"rounds={len(reader.rounds())} alerts={len(alerts)} "
          f"status={resume['status'] or 'crashed'} "
          f"resume-cursor={resume['cursor']} next-round={resume['next_round']}"
          + ("  [torn final line dropped]" if resume["truncated"] else ""))
    failures = []
    if args.max_alerts is not None and len(alerts) > args.max_alerts:
        failures.append(
            f"{len(alerts)} alert(s) exceed --max-alerts {args.max_alerts}: "
            + ", ".join(fired)
        )
    for expected in args.expect_alert or ():
        if expected not in fired:
            failures.append(
                f"expected an alert from monitor {expected!r}; "
                f"got {fired or 'none'}"
            )
    if args.require_rounds is not None and len(reader.rounds()) < args.require_rounds:
        failures.append(
            f"only {len(reader.rounds())} committed round(s), "
            f"--require-rounds wants {args.require_rounds}"
        )
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_theory(args) -> int:
    constants = ProblemConstants(L=args.L, lam=args.lam, sigma_bar_sq=args.sigma_sq)
    print(f"constants: L={args.L} lambda={args.lam} sigma^2={args.sigma_sq}")
    try:
        lo = theory.tau_lower_bound(args.beta, args.theta, args.mu, constants)
        hi_sarah = theory.tau_upper_bound_sarah(args.beta)
        hi_svrg = theory.tau_upper_bound_svrg(args.beta)
        print(f"Lemma 1: tau in [{lo:.1f}, {hi_sarah:.1f}] (SARAH), "
              f"[{lo:.1f}, {hi_svrg:.1f}] (SVRG)")
        feasible = theory.lemma1_feasible(
            args.beta, 0.5 * (lo + hi_sarah), args.theta, args.mu, constants
        )
        print(f"SARAH midpoint feasible: {feasible}")
    except InfeasibleParametersError as exc:
        print(f"Lemma 1 infeasible: {exc}")
    factor = theory.federated_factor(args.theta, args.mu, constants)
    print(f"Theorem 1: Theta = {factor:.5g} "
          f"(theta cap {theory.theta_accuracy_cap(args.sigma_sq):.4f})")
    if factor > 0:
        T = theory.global_iterations_required(
            args.delta0, args.theta, args.mu, constants, args.eps
        )
        print(f"Corollary 1: T >= {T:.1f} for eps = {args.eps}")
    return 0


def cmd_optimize(args) -> int:
    constants = ProblemConstants(L=args.L, lam=args.lam, sigma_bar_sq=args.sigma_sq)
    gammas = (
        np.geomspace(args.gamma_min, args.gamma_max, args.points)
        if args.points > 1
        else [args.gamma_min]
    )
    print(f"Fig. 1 sweep: L={args.L} lambda={args.lam} sigma^2={args.sigma_sq}")
    for opt in param_opt.sweep_gamma(gammas, constants):
        print("  " + opt.as_row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedProxVR (ICPP 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one algorithm")
    p_run.add_argument(
        "--algorithm", "-a", default="fedproxvr-sarah",
        type=str.lower, choices=sorted(ALGORITHMS),
    )
    _add_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="train several algorithms")
    p_cmp.add_argument(
        "--algorithms", "-a", nargs="+",
        type=str.lower, choices=sorted(ALGORITHMS),
        default=["fedavg", "fedproxvr-svrg", "fedproxvr-sarah"],
    )
    _add_run_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_th = sub.add_parser("theory", help="evaluate Lemma 1 / Theorem 1")
    p_th.add_argument("--L", type=float, default=1.0)
    p_th.add_argument("--lam", type=float, default=0.5)
    p_th.add_argument("--sigma-sq", type=float, default=0.0)
    p_th.add_argument("--beta", type=float, default=10.0)
    p_th.add_argument("--theta", type=float, default=0.3)
    p_th.add_argument("--mu", type=float, default=5.0)
    p_th.add_argument("--delta0", type=float, default=1.0)
    p_th.add_argument("--eps", type=float, default=0.01)
    p_th.set_defaults(func=cmd_theory)

    p_opt = sub.add_parser("optimize", help="solve the section-4.3 problem (Fig. 1)")
    p_opt.add_argument("--L", type=float, default=1.0)
    p_opt.add_argument("--lam", type=float, default=0.5)
    p_opt.add_argument("--sigma-sq", type=float, default=0.0)
    p_opt.add_argument("--gamma-min", type=float, default=1e-4)
    p_opt.add_argument("--gamma-max", type=float, default=1.0)
    p_opt.add_argument("--points", type=int, default=7)
    p_opt.set_defaults(func=cmd_optimize)

    p_rep = sub.add_parser(
        "obs-report", help="summarize a run ledger from 'repro run --ledger'"
    )
    p_rep.add_argument("ledger", help="path to the run ledger")
    p_rep.add_argument("--top", type=int, default=10,
                       help="number of hotspot rows (default 10)")
    p_rep.set_defaults(func=cmd_obs_report)

    p_diff = sub.add_parser(
        "obs-diff",
        help="diff two run ledgers (metric series + hotspot self-times)",
    )
    p_diff.add_argument("ledger_a", help="baseline run ledger")
    p_diff.add_argument("ledger_b", help="candidate run ledger")
    p_diff.add_argument("--top", type=int, default=10,
                        help="number of hotspot rows (default 10)")
    p_diff.add_argument("--rel-threshold", type=float, default=0.25,
                        help="relative slowdown counted as a regression "
                             "(default 0.25 = 25%%)")
    p_diff.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when the verdict is 'regression'")
    p_diff.set_defaults(func=cmd_obs_diff)

    p_chk = sub.add_parser(
        "obs-check",
        help="validate a run ledger and assert alert/round expectations",
    )
    p_chk.add_argument("ledger", help="run ledger to check")
    p_chk.add_argument("--max-alerts", type=int, default=None,
                       help="fail (exit 1) when more alerts were recorded")
    p_chk.add_argument("--expect-alert", metavar="MONITOR", action="append",
                       default=None,
                       help="fail (exit 1) unless this monitor fired, e.g. "
                            "theorem1_contraction (repeatable)")
    p_chk.add_argument("--require-rounds", type=int, default=None,
                       help="fail (exit 1) with fewer committed rounds")
    p_chk.set_defaults(func=cmd_obs_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    try:
        return args.func(args)
    except (ConfigurationError, InfeasibleParametersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
