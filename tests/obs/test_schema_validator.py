"""Tests for the stdlib schema validator itself."""

from __future__ import annotations

import json

from repro.obs import RunLedger
from tests.obs import schema_validator as sv


def _valid_span():
    return {
        "type": "span", "cursor": 0, "name": "round", "span_id": 1,
        "parent_id": None, "t_wall": 1.0, "duration": 0.1,
        "thread": "MainThread", "attrs": {"s": 1}, "sim_time": None,
    }


class TestValidateEvent:
    def test_valid_span_passes(self):
        assert sv.validate_event(_valid_span()) == []

    def test_unknown_type_flagged(self):
        assert sv.validate_event({"type": "mystery"})

    def test_missing_required_field(self):
        span = _valid_span()
        del span["duration"]
        errors = sv.validate_event(span)
        assert any("duration" in e for e in errors)

    def test_wrong_type_flagged(self):
        span = _valid_span()
        span["span_id"] = "one"
        errors = sv.validate_event(span)
        assert any("span_id" in e for e in errors)

    def test_unknown_field_flagged(self):
        span = _valid_span()
        span["surprise"] = 1
        errors = sv.validate_event(span)
        assert any("surprise" in e for e in errors)

    def test_negative_duration_flagged(self):
        span = _valid_span()
        span["duration"] = -0.5
        assert any("negative" in e for e in sv.validate_event(span))

    def test_unregistered_span_name_flagged(self):
        span = _valid_span()
        span["name"] = "my_new_span"
        errors = sv.validate_event(span)
        assert any("unregistered span name" in e for e in errors)

    def test_ledger_event_fields_checked(self):
        end = {"type": "end", "cursor": 3, "rounds": 1, "alerts": 0}
        assert any("status" in e for e in sv.validate_event(end))

    def test_process_field_allowed_on_spans(self):
        span = _valid_span()
        span["name"] = "local_solve"
        span["process"] = "ForkProcess-1"
        assert sv.validate_event(span) == []

    def test_unregistered_metric_name_flagged(self):
        event = {
            "type": "round_metrics", "cursor": 0, "round": 1, "sim_time": None,
            "metrics": {
                "fl.surprise.metric": {"kind": "counter", "total": 1.0},
            },
        }
        errors = sv.validate_event(event)
        assert any("unregistered metric name" in e for e in errors)

    def test_keyed_metric_id_resolves_to_base_name(self):
        event = {
            "type": "round_metrics", "cursor": 0, "round": 1, "sim_time": None,
            "metrics": {
                "obs.monitor.alerts{divergence}": {
                    "kind": "counter", "total": 1.0,
                },
            },
        }
        assert sv.validate_event(event) == []

    def test_histogram_shape_checked(self):
        event = {
            "type": "round_metrics", "cursor": 0, "round": 1, "sim_time": None,
            "metrics": {
                "h": {"kind": "histogram", "count": 1, "sum": 0.1,
                      "buckets": [1.0, 2.0], "counts": [1, 0]},
            },
        }
        errors = sv.validate_event(event)
        assert any("len(counts)" in e for e in errors)


class TestValidateFile:
    def test_empty_file_is_invalid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert sv.validate_file(str(path))

    def test_first_event_must_be_manifest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_valid_span()) + "\n")
        errors = sv.validate_file(str(path))
        assert any("manifest" in e for e in errors)

    def test_cli_main(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({"algorithm": "fedavg"})
        span = _valid_span()
        del span["cursor"]  # the ledger assigns it
        ledger.emit(span)
        ledger.close()
        assert sv.main([str(path)]) == 0
        assert sv.main([]) == 2
        path.write_text("garbage\n{}\n")
        assert sv.main([str(path)]) == 1
