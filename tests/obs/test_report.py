"""Tests for the obs-report renderer over synthetic run ledgers."""

from __future__ import annotations

import pytest

from repro.obs.ledger import LedgerReader, RunLedger
from repro.obs.report import aggregate_tree, render_report, top_hotspots


def _span(span_id, parent_id, name, duration, process=None, **attrs):
    event = {
        "type": "span", "name": name, "span_id": span_id,
        "parent_id": parent_id, "t_wall": 0.0, "duration": duration,
        "thread": "MainThread", "attrs": attrs, "sim_time": None,
    }
    if process is not None:
        event["process"] = process
    return event


@pytest.fixture()
def ledger_file(tmp_path):
    events = [
        _span(2, 1, "round", 0.6, s=1),
        _span(3, 1, "round", 0.4, s=2),
        _span(4, 2, "local_solve", 0.5, client=0, round=1),
        _span(5, 3, "local_solve", 0.3, client=0, round=2),
        _span(1, None, "run", 1.0),
        {"type": "round_metrics", "round": 1, "sim_time": 1.0, "metrics": {}},
    ]
    path = tmp_path / "run.ledger.jsonl"
    ledger = RunLedger(str(path), fsync=False)
    ledger.write_manifest({"algorithm": "fedavg"})
    for event in events:
        ledger.emit(event)
    ledger.close()
    return str(path)


def _events(path):
    return LedgerReader(path).events


class TestLoadEvents:
    """The report reads its input through :class:`LedgerReader`."""

    def test_roundtrip(self, ledger_file):
        events = _events(ledger_file)
        assert len(events) == 8  # manifest + 6 telemetry events + end
        assert len([e for e in events if e["type"] == "span"]) == 5

    def test_bad_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "manifest"}\nnot json\n{}\n')
        with pytest.raises(ValueError, match=":2"):
            render_report(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            render_report(str(path))


class TestAggregateTree:
    def test_paths_and_totals(self, ledger_file):
        agg = aggregate_tree(_events(ledger_file))
        assert agg[("run",)]["count"] == 1
        assert agg[("run", "round")]["count"] == 2
        assert agg[("run", "round")]["total"] == pytest.approx(1.0)
        assert agg[("run", "round", "local_solve")]["total"] == pytest.approx(0.8)
        assert agg[("run", "round")]["max"] == pytest.approx(0.6)

    def test_orphan_parent_id_tolerated(self):
        # parent_id pointing at a span missing from the trace (e.g. the
        # file was truncated) must not crash or loop
        agg = aggregate_tree([_span(7, 99, "orphan", 0.1)])
        assert agg == {("orphan",): {"count": 1, "total": 0.1, "max": 0.1}}


class TestHotspots:
    def test_self_time_subtracts_children(self, ledger_file):
        rows = {r["name"]: r for r in top_hotspots(_events(ledger_file), 10)}
        assert rows["local_solve"]["self"] == pytest.approx(0.8)
        # rounds: (0.6 - 0.5) + (0.4 - 0.3)
        assert rows["round"]["self"] == pytest.approx(0.2)
        assert rows["run"]["self"] == pytest.approx(0.0)

    def test_k_limits_rows(self, ledger_file):
        assert len(top_hotspots(_events(ledger_file), None)) == 3
        assert len(top_hotspots(_events(ledger_file), 1)) == 1


class TestCrossProcessSpans:
    """Span ids are only unique per process (forked workers inherit the
    parent's counter); the report must key by (process, span_id)."""

    def _mp_trace(self):
        # Coordinator: run(1) > round(2).  Two workers whose *local*
        # span ids collide with the coordinator's (both reuse id 2 for
        # their own spans), parenting into coordinator span 2.
        return [
            _span(1, None, "run", 1.0),
            _span(2, 1, "round", 0.9),
            _span(2, 2, "local_solve", 0.4, process="Worker-1"),
            _span(2, 2, "local_solve", 0.3, process="Worker-2"),
        ]

    def test_colliding_ids_do_not_merge_across_processes(self):
        agg = aggregate_tree(self._mp_trace())
        assert agg[("run", "round", "local_solve")]["count"] == 2
        assert agg[("run", "round", "local_solve")]["total"] == pytest.approx(0.7)
        # the coordinator's round span is not confused with worker id 2
        assert agg[("run", "round")]["count"] == 1

    def test_worker_parent_resolves_to_coordinator_namespace(self):
        # Worker span's parent_id=2 is unknown in its own process, so
        # it must fall back to the coordinator's ("", 2) round span.
        rows = {r["name"]: r for r in top_hotspots(self._mp_trace(), 10)}
        # round self time = 0.9 - (0.4 + 0.3): worker children subtract
        assert rows["round"]["self"] == pytest.approx(0.2)
        assert rows["local_solve"]["self"] == pytest.approx(0.7)

    def test_hotspots_aggregate_by_name_across_processes(self):
        rows = top_hotspots(self._mp_trace(), 10)
        names = [r["name"] for r in rows]
        assert names.count("local_solve") == 1  # one row, both processes


class TestRenderLedgerReport:
    def _ledger(self, tmp_path, *, alerts=0):
        path = tmp_path / "run.ledger.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({"algorithm": "fedavg", "tau": 5})
        ledger.commit_round(
            1,
            {"round_index": 1, "train_loss": 2.5, "grad_norm": 0.5,
             "grad_dissimilarity": 1.08},
            sim_time=1.0,
        )
        for _ in range(alerts):
            ledger.alert(1, "divergence", "loss is non-finite: nan")
        ledger.emit(_span(1, None, "local_solve", 0.1))
        ledger.close()
        return str(path)

    def test_contains_sections(self, tmp_path):
        text = render_report(self._ledger(tmp_path))
        assert "repro.ledger/v2" in text
        assert "status: completed" in text
        assert "algorithm='fedavg'" in text
        assert "grad_dissimilarity" in text
        assert "1.08" in text
        assert "alerts: 0" in text
        assert "hotspots" in text and "local_solve" in text

    def test_renders_alerts(self, tmp_path):
        text = render_report(self._ledger(tmp_path, alerts=1))
        assert "alerts: 1" in text
        assert "[error] divergence" in text

    def test_flags_torn_tail(self, tmp_path):
        path = self._ledger(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round", "curs')
        text = render_report(path)
        assert "[torn final line dropped]" in text


class TestRenderReport:
    def test_contains_sections_and_names(self, ledger_file):
        text = render_report(ledger_file, top=3)
        assert "span tree" in text
        assert "hotspots" in text
        assert "local_solve" in text
        assert "repro.ledger/v2" in text

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({})
        ledger.close()
        text = render_report(str(path))
        assert "(no span events)" in text
