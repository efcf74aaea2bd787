"""Telemetry demo: record a short federated run in a ledger and summarize it.

Runs FedProxVR-SARAH for a few rounds on a small synthetic federation
with a telemetry session whose only sink is the run ledger, writing

* ``trace_run.ledger.jsonl`` — the run ledger: manifest, committed
  rounds, spans, per-round metric deltas and monitor alerts,

then renders the ledger's report in-process (the same output as
``repro obs-report trace_run.ledger.jsonl``).

Run:  python examples/trace_run.py [output-dir]
"""

import sys

from repro import (
    FederatedRunConfig,
    MultinomialLogisticModel,
    make_synthetic,
    run_federated,
)
from repro.obs import RunLedger, default_monitor_suite, telemetry
from repro.obs.report import render_report


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    ledger_path = f"{out_dir}/trace_run.ledger.jsonl"

    dataset = make_synthetic(
        alpha=1.0, beta=1.0, num_devices=10, num_features=60, seed=0
    )
    print(dataset.summary())

    ledger = RunLedger(ledger_path)
    telemetry.configure([ledger])
    try:
        history, _ = run_federated(
            dataset,
            lambda: MultinomialLogisticModel(
                dataset.num_features, dataset.num_classes
            ),
            FederatedRunConfig(
                algorithm="fedproxvr-sarah",
                num_rounds=10,
                num_local_steps=10,
                beta=5.0,
                mu=0.1,
                batch_size=32,
                seed=1,
                eval_every=2,
            ),
            ledger=ledger,
            monitors=default_monitor_suite(),
        )
    finally:
        telemetry.shutdown()

    print(f"\nfinal loss {history.final('train_loss'):.4f}, "
          f"straggler gap (last round) "
          f"{history.records[-1].straggler_gap:.6f}s\n")
    print(render_report(ledger_path, top=5))
    print(f"artifact: {ledger_path}")


if __name__ == "__main__":
    main()
