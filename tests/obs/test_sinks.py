"""Tests for the telemetry sinks (the run ledger and the in-memory sink)."""

from __future__ import annotations

import json

import pytest

from repro.obs import InMemorySink, LedgerError, RunLedger, telemetry
from tests.obs.schema_validator import validate_file


class TestInMemorySink:
    def test_collects_in_order(self):
        sink = InMemorySink()
        sink.emit({"type": "round_metrics", "round": 1, "metrics": {}})
        sink.emit({"type": "span", "name": "a"})
        assert [e["type"] for e in sink.events] == ["round_metrics", "span"]
        assert [e["name"] for e in sink.by_type("span")] == ["a"]


class TestLedgerSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.emit({"type": "span", "name": "early"})  # held until manifest
        ledger.write_manifest({})
        ledger.emit({"type": "round_metrics", "round": 1, "sim_time": None,
                     "metrics": {}})
        ledger.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["type"] for e in events] == [
            "manifest", "span", "round_metrics", "end"
        ]
        assert events[1]["name"] == "early"
        assert [e["cursor"] for e in events[1:]] == [0, 1, 2]

    def test_emit_after_close_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "run.jsonl"), fsync=False)
        ledger.write_manifest({})
        ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            ledger.emit({"type": "span", "name": "late"})

    def test_emit_takes_only_telemetry_events(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "run.jsonl"), fsync=False)
        with pytest.raises(LedgerError, match="emit takes"):
            ledger.emit({"type": "round", "round": 1})
        ledger.close()

    def test_full_session_produces_schema_valid_file(self, tmp_path):
        path = tmp_path / "session.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        telemetry.configure([ledger])
        with telemetry.span("run"):
            with telemetry.span("round", s=1):
                telemetry.counter_add("fl.client.grad_evals", 3)
            telemetry.round_finished(1)
        ledger.write_manifest({"algorithm": "fedavg"})
        telemetry.shutdown()  # closes the ledger
        assert validate_file(str(path)) == []
