"""Tests for cross-run ledger diffing (``repro obs-diff``)."""

from __future__ import annotations

import pytest

from repro.obs.diff import diff_ledgers, render_diff
from repro.obs.ledger import RunLedger


def write_ledger(
    path,
    *,
    config=None,
    losses=(3.0, 2.0, 1.5),
    wall_time=0.1,
    hotspots=None,
    alerts=0,
):
    ledger = RunLedger(str(path), fsync=False)
    ledger.write_manifest(dict(config or {"algorithm": "fedavg", "seed": 1}))
    for s, loss in enumerate(losses, start=1):
        ledger.commit_round(
            s,
            {
                "round_index": s,
                "train_loss": loss,
                "grad_norm": loss / 2.0,
                "wall_time": wall_time,
            },
            sim_time=float(s),
        )
    for i in range(alerts):
        ledger.alert(len(losses), "divergence", f"alert {i}")
    # one root span per name: its self time is its duration
    for span_id, (name, sec) in enumerate((hotspots or {}).items(), start=1):
        ledger.emit({
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": None, "t_wall": 0.0, "duration": sec,
            "thread": "MainThread", "attrs": {}, "sim_time": None,
        })
    ledger.close()
    return str(path)


class TestDiffLedgers:
    def test_identical_runs_diff_clean(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl")
        b = write_ledger(tmp_path / "b.jsonl")
        result = diff_ledgers(a, b)
        assert result["verdict"] == "ok"
        assert result["shared_rounds"] == 3
        assert result["config_deltas"] == {}
        assert result["same_source"] is True
        assert result["metrics"]["train_loss"]["delta"] == 0.0

    def test_config_deltas_surfaced(self, tmp_path):
        a = write_ledger(
            tmp_path / "a.jsonl", config={"algorithm": "fedavg", "seed": 1}
        )
        b = write_ledger(
            tmp_path / "b.jsonl", config={"algorithm": "fedavg", "seed": 2}
        )
        result = diff_ledgers(a, b)
        assert result["config_deltas"] == {"seed": {"a": 1, "b": 2}}

    def test_wall_time_regression_flips_verdict(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl", wall_time=0.1)
        b = write_ledger(tmp_path / "b.jsonl", wall_time=0.2)
        result = diff_ledgers(a, b, rel_threshold=0.25)
        assert result["verdict"] == "regression"
        assert "wall_time" in result["regressions"]
        # statistical fields are reported, never judged
        assert "train_loss" not in result["regressions"]

    def test_wall_time_improvement_is_ok(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl", wall_time=0.2)
        b = write_ledger(tmp_path / "b.jsonl", wall_time=0.1)
        assert diff_ledgers(a, b)["verdict"] == "ok"

    def test_loss_drift_reported_but_not_judged(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl", losses=(3.0, 2.0, 1.5))
        b = write_ledger(tmp_path / "b.jsonl", losses=(3.0, 2.5, 2.4))
        result = diff_ledgers(a, b)
        assert result["verdict"] == "ok"
        assert result["metrics"]["train_loss"]["delta"] > 0

    def test_hotspot_regression(self, tmp_path):
        a = write_ledger(
            tmp_path / "a.jsonl", hotspots={"local_solve": 0.10, "eval": 0.01}
        )
        b = write_ledger(
            tmp_path / "b.jsonl", hotspots={"local_solve": 0.50, "eval": 0.01}
        )
        result = diff_ledgers(a, b)
        assert result["hotspots"]["local_solve"]["regression"]
        assert "span:local_solve" in result["regressions"]
        assert result["verdict"] == "regression"

    def test_sub_noise_hotspot_delta_ignored(self, tmp_path):
        # 3x relative jump but under the absolute noise floor: timer jitter
        a = write_ledger(tmp_path / "a.jsonl", hotspots={"eval": 0.0005})
        b = write_ledger(tmp_path / "b.jsonl", hotspots={"eval": 0.0015})
        assert diff_ledgers(a, b)["verdict"] == "ok"

    def test_structural_span_change_not_a_regression(self, tmp_path):
        # executor swap: time moves between spans, total judged elsewhere
        a = write_ledger(tmp_path / "a.jsonl", hotspots={"local_solve": 0.1})
        b = write_ledger(tmp_path / "b.jsonl", hotspots={"cohort_solve": 0.1})
        result = diff_ledgers(a, b)
        assert result["verdict"] == "ok"
        assert result["hotspots"]["cohort_solve"]["status"] == "new"
        assert result["hotspots"]["local_solve"]["status"] == "vanished"
        assert result["hotspots"]["cohort_solve"]["rel_delta"] is None

    def test_alert_counts_surfaced(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl")
        b = write_ledger(tmp_path / "b.jsonl", alerts=2)
        result = diff_ledgers(a, b)
        assert result["alerts_a"] == 0
        assert result["alerts_b"] == 2

    def test_invalid_ledger_raises(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "round", "cursor": 0, "round": 1}\n')
        with pytest.raises(ValueError, match="invalid ledger"):
            diff_ledgers(a, str(bad))


class TestRenderDiff:
    def test_render_contains_key_sections(self, tmp_path):
        a = write_ledger(
            tmp_path / "a.jsonl",
            config={"seed": 1},
            hotspots={"local_solve": 0.1},
        )
        b = write_ledger(
            tmp_path / "b.jsonl",
            config={"seed": 2},
            wall_time=0.5,
            hotspots={"local_solve": 0.3, "cohort_solve": 0.2},
        )
        text = render_diff(diff_ledgers(a, b))
        assert "ledger diff:" in text
        assert "config deltas:" in text
        assert "seed: 1 -> 2" in text
        assert "wall_time" in text
        assert "<< regression" in text
        assert "new" in text
        assert "verdict: REGRESSION" in text

    def test_render_ok_verdict(self, tmp_path):
        a = write_ledger(tmp_path / "a.jsonl")
        b = write_ledger(tmp_path / "b.jsonl")
        assert "verdict: ok" in render_diff(diff_ledgers(a, b))
