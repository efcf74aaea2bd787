"""Satellite: span integrity under the thread-pool executor.

Eight clients solve concurrently across several rounds; every
``local_solve`` span must nest under the *correct* round parent, no
event may be lost, and the run ledger's JSONL lines must not interleave.
"""

from __future__ import annotations

import sys

from repro.core.local import FedAvgLocalSolver
from repro.datasets import make_synthetic
from repro.fl.client import Client
from repro.fl.executor import ThreadPoolClientExecutor
from repro.models import MultinomialLogisticModel
from repro.obs import LedgerReader, RunLedger, telemetry
from tests.obs.schema_validator import validate_file

NUM_CLIENTS = 8
NUM_ROUNDS = 5


def _make_clients():
    dataset = make_synthetic(
        alpha=1.0, beta=1.0, num_devices=NUM_CLIENTS, num_features=10,
        num_classes=3, min_size=20, max_size=40, seed=3,
    )
    solver = FedAvgLocalSolver(step_size=0.01, num_steps=4, batch_size=8)

    def model_factory():
        return MultinomialLogisticModel(dataset.num_features, dataset.num_classes)

    model = model_factory()
    clients = [
        Client(d.device_id, d, model, solver, base_seed=0) for d in dataset.devices
    ]
    return clients, model.init_parameters(0), model_factory


def test_spans_nest_under_correct_round_and_none_are_lost(
    memory_session, tmp_path
):
    clients, w0, model_factory = _make_clients()
    with ThreadPoolClientExecutor(model_factory, max_workers=8) as executor:
        for s in range(1, NUM_ROUNDS + 1):
            with telemetry.span("round", s=s):
                results = executor.run_round(clients, w0, s)
            assert len(results) == len(clients)
            assert len(executor.last_client_seconds) == len(clients)

    spans = memory_session.by_type("span")
    rounds = [e for e in spans if e["name"] == "round"]
    solves = [e for e in spans if e["name"] == "local_solve"]

    # nothing lost: one span per (client, round) plus one per round
    assert len(rounds) == NUM_ROUNDS
    assert len(solves) == NUM_CLIENTS * NUM_ROUNDS

    # every local_solve hangs off the round span whose `s` attribute
    # matches the round it was submitted for
    round_by_id = {e["span_id"]: e["attrs"]["s"] for e in rounds}
    for solve in solves:
        assert solve["parent_id"] in round_by_id, "solve span lost its parent"
        assert round_by_id[solve["parent_id"]] == solve["attrs"]["round"]

    # all 8 clients appear in every round, exactly once each
    for s in range(1, NUM_ROUNDS + 1):
        client_ids = sorted(
            e["attrs"]["client"] for e in solves if e["attrs"]["round"] == s
        )
        assert client_ids == sorted(c.client_id for c in clients)

    # counters saw every solve (8 clients x 5 rounds x 4 steps)
    snap = telemetry.metrics.snapshot()
    assert snap["fl.client.local_steps{fedavg}"]["total"] == (
        NUM_CLIENTS * NUM_ROUNDS * 4
    )


def test_jsonl_lines_do_not_interleave_across_threads(tmp_path):
    clients, w0, model_factory = _make_clients()
    path = tmp_path / "threads.jsonl"
    ledger = RunLedger(str(path), fsync=False)
    ledger.write_manifest({})
    telemetry.configure([ledger])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force thread switches mid-emit
    try:
        with ThreadPoolClientExecutor(model_factory, max_workers=8) as executor:
            for s in range(1, NUM_ROUNDS + 1):
                with telemetry.span("round", s=s):
                    executor.run_round(clients, w0, s)
    finally:
        sys.setswitchinterval(interval)
        telemetry.shutdown()

    # every line parses and passes schema validation (strictly
    # increasing cursors) => no torn writes and no lost cursor updates
    assert validate_file(str(path)) == []
    names = [e["name"] for e in LedgerReader(str(path)).by_type("span")]
    assert names.count("local_solve") == NUM_CLIENTS * NUM_ROUNDS
    assert names.count("round") == NUM_ROUNDS
