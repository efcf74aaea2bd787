"""Tests for the append-only run ledger (``repro.ledger/v2``).

Covers the durability contract the checkpoint/resume control plane
depends on: cursor monotonicity, torn-final-line crash recovery,
mid-file corruption detection, and the reader's resume arithmetic.
The standalone CI validator is cross-checked against the in-package
reader on the same files.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerError,
    LedgerReader,
    RunLedger,
    package_digest,
)
from tests.obs.schema_validator import validate_file


def _write_run(path, *, rounds=3, alerts=0, status="completed"):
    ledger = RunLedger(str(path), fsync=False)
    ledger.write_manifest(
        {"algorithm": "fedavg", "tau": 5},
        entropy={"seed": 0},
        attrs={"dataset": "toy"},
    )
    for s in range(1, rounds + 1):
        ledger.commit_round(
            s, {"round_index": s, "train_loss": 3.0 / s}, sim_time=float(s)
        )
    for i in range(alerts):
        ledger.alert(rounds, "theorem1_contraction", f"alert {i}")
    ledger.close(status)
    return ledger


class TestRunLedger:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = _write_run(path, rounds=3, alerts=1, status="completed")
        reader = LedgerReader(str(path))
        assert reader.validate() == []
        assert reader.manifest["schema"] == LEDGER_SCHEMA
        assert reader.manifest["run_id"] == ledger.run_id
        assert reader.manifest["config"] == {"algorithm": "fedavg", "tau": 5}
        assert reader.manifest["entropy"] == {"seed": 0}
        assert len(reader.rounds()) == 3
        assert len(reader.alerts()) == 1
        assert reader.status == "completed"
        assert reader.last_committed_round == 3
        assert not reader.truncated

    def test_cursors_strictly_increase(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=4, alerts=2)
        reader = LedgerReader(str(path))
        cursors = [
            e["cursor"] for e in reader.events if e.get("type") != "manifest"
        ]
        assert cursors == sorted(cursors)
        assert len(set(cursors)) == len(cursors)
        assert reader.last_cursor == cursors[-1]

    def test_manifest_must_come_first_and_only_once(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "run.jsonl"), fsync=False)
        ledger.write_manifest({})
        with pytest.raises(LedgerError, match="already written"):
            ledger.write_manifest({})
        ledger.close()

    def test_write_after_close_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "run.jsonl"), fsync=False)
        ledger.write_manifest({})
        ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            ledger.commit_round(1, {})

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({})
        ledger.close()
        ledger.close("failed")  # ignored: first close wins
        reader = LedgerReader(str(path))
        assert reader.status == "completed"
        assert len(reader.by_type("end")) == 1

    def test_context_manager_stamps_failure(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with RunLedger(str(path), fsync=False) as ledger:
                ledger.write_manifest({})
                ledger.commit_round(1, {"train_loss": 1.0})
                raise RuntimeError("boom")
        reader = LedgerReader(str(path))
        assert reader.validate() == []
        assert reader.status == "failed"

    def test_package_digest_is_stable_hex(self):
        a, b = package_digest(), package_digest()
        assert a == b
        assert len(a) == 64
        int(a, 16)  # hex


class TestCrashRecovery:
    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3, status="completed")
        # Simulate a crash mid-write of a 4th round: the end event is
        # gone and the last line is half a JSON object.
        lines = path.read_text().splitlines()[:-1]
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        reader = LedgerReader(str(path))
        assert reader.truncated
        assert reader.validate() == []
        assert len(reader.rounds()) == 2  # the torn 3rd round is lost
        resume = reader.resume_point()
        assert resume["round"] == 2
        assert resume["next_round"] == 3
        assert resume["truncated"] is True
        assert resume["status"] is None  # no end event: unclean shutdown
        assert validate_file(str(path)) == []

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]  # corrupt a committed round, not the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="corrupt mid-file"):
            LedgerReader(str(path))
        assert validate_file(str(path)) != []

    def test_resume_point_on_fresh_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({})
        ledger.close()
        resume = LedgerReader(str(path)).resume_point()
        assert resume["round"] is None
        assert resume["next_round"] == 1

    def test_tail_from_cursor(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=4)
        reader = LedgerReader(str(path))
        tailed = list(reader.tail(from_cursor=2))
        assert all(e["cursor"] >= 2 for e in tailed)
        assert {e["round"] for e in tailed if e["type"] == "round"} == {3, 4}


class TestValidation:
    def _events(self, path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def _rewrite(self, path, events):
        path.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n"
        )

    def test_detects_non_monotonic_cursor(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3)
        events = self._events(path)
        events[2]["cursor"] = events[3]["cursor"]
        self._rewrite(path, events)
        errors = LedgerReader(str(path)).validate()
        assert any("monotonic" in e for e in errors)
        assert any(
            "increasing" in e for e in validate_file(str(path))
        )

    def test_detects_decreasing_round(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3)
        events = self._events(path)
        events[3]["round"] = 1
        self._rewrite(path, events)
        assert any(
            "non-decreasing" in e
            for e in LedgerReader(str(path)).validate()
        )

    def test_detects_missing_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=1)
        self._rewrite(path, self._events(path)[1:])
        assert any(
            "manifest" in e for e in LedgerReader(str(path)).validate()
        )
        assert any(
            "manifest" in e for e in validate_file(str(path))
        )

    def test_detects_wrong_schema_tag(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=1)
        events = self._events(path)
        events[0]["schema"] = "repro.ledger/v999"
        self._rewrite(path, events)
        assert any(
            "schema" in e for e in LedgerReader(str(path)).validate()
        )

    def test_detects_events_after_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=2)
        events = self._events(path)
        events.append(dict(events[2], cursor=events[-1]["cursor"] + 1))
        self._rewrite(path, events)
        assert any(
            "last event" in e for e in LedgerReader(str(path)).validate()
        )

    def test_empty_file_invalid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert LedgerReader(str(path)).validate() != []
        assert validate_file(str(path)) != []


class TestObsCheckCli:
    """The ``repro obs-check`` gate CI runs against demo ledgers."""

    def _check(self, path, *flags):
        from repro.cli import main

        return main(["obs-check", str(path), *flags])

    def test_healthy_ledger_passes_strict_gate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3)
        assert self._check(
            path, "--max-alerts", "0", "--require-rounds", "3"
        ) == 0

    def test_alert_budget_and_round_floor_fail(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=2, alerts=1)
        assert self._check(path, "--max-alerts", "0") == 1
        assert self._check(path, "--require-rounds", "3") == 1
        assert "check failed" in capsys.readouterr().err

    def test_expect_alert_is_repeatable(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _write_run(path, rounds=3, alerts=1)  # theorem1_contraction fires
        assert self._check(path, "--expect-alert", "theorem1_contraction") == 0
        # every expected monitor must fire, not just the last flag
        assert self._check(
            path,
            "--expect-alert", "theorem1_contraction",
            "--expect-alert", "divergence",
        ) == 1
        assert "divergence" in capsys.readouterr().err
