"""Tests for the committed perf trajectory (tools/perfbench + tools/perfgate).

Two halves:

* gate-logic tests — synthetic perfbench JSON payloads exercising the
  pass/fail/ratchet/schema paths of ``tools.perfgate`` without running
  any training;
* a reduced-scale **smoke** run of the real macro-bench, asserting the
  artifact schema and that the batched executor stays bit-identical on
  a real (tiny) workload.
"""

import json

import pytest

from tools.perfgate import SCHEMA, check, check_scaling, load_report
from tools.perfgate import main as perfgate_main


def make_report(results):
    return {"schema": SCHEMA, "workload": {}, "results": results}


def scaling_cell(n, setup=0.02, mem=6.0, per_round=0.05):
    return {
        "registered_clients": n,
        "participants": 8,
        "rounds": 2,
        "setup_seconds": setup,
        "per_round_seconds": per_round,
        "peak_mem_mb": mem,
        "hydrations": 16,
        "lru_hits": 0,
    }


def make_scaling_report(cells, results=None):
    payload = {
        "schema": SCHEMA,
        "workload": {},
        "client_scaling": {"participants": 8, "rounds": 2, "cells": cells},
    }
    if results is not None:
        payload["results"] = results
    return payload


def cell(speedup, identical=True):
    return {
        "sequential_seconds": 1.0,
        "batched_seconds": 1.0 / speedup,
        "speedup": speedup,
        "identical": identical,
    }


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestGateLogic:
    def test_passes_at_baseline(self):
        baseline = make_report({"fedavg": cell(1.5)})
        current = make_report({"fedavg": cell(1.5)})
        passed, lines = check(current, baseline, tolerance=0.6)
        assert passed and any("ok" in line for line in lines)

    def test_passes_within_tolerance(self):
        baseline = make_report({"fedavg": cell(1.5)})
        current = make_report({"fedavg": cell(1.0)})  # floor = 0.9
        passed, _ = check(current, baseline, tolerance=0.6)
        assert passed

    def test_fails_below_tolerance(self):
        baseline = make_report({"fedavg": cell(2.0)})
        current = make_report({"fedavg": cell(1.0)})  # floor = 1.2
        passed, lines = check(current, baseline, tolerance=0.6)
        assert not passed and any("FAIL" in line for line in lines)

    def test_fails_when_not_identical(self):
        baseline = make_report({"fedavg": cell(1.5)})
        current = make_report({"fedavg": cell(5.0, identical=False)})
        passed, lines = check(current, baseline, tolerance=0.6)
        assert not passed
        assert any("bit-identical" in line for line in lines)

    def test_fails_on_missing_algorithm(self):
        baseline = make_report({"fedavg": cell(1.5), "fedproxvr-svrg": cell(1.5)})
        current = make_report({"fedavg": cell(1.5)})
        passed, lines = check(current, baseline, tolerance=0.6)
        assert not passed and any("missing" in line for line in lines)

    def test_extra_current_algorithms_are_ignored(self):
        baseline = make_report({"fedavg": cell(1.5)})
        current = make_report({"fedavg": cell(1.5), "new-algo": cell(0.1)})
        passed, _ = check(current, baseline, tolerance=0.6)
        assert passed


class TestScalingGate:
    def test_flat_trajectory_passes(self):
        report = make_scaling_report(
            [scaling_cell(100), scaling_cell(100_000, setup=0.03, mem=6.4)]
        )
        passed, lines = check_scaling(report, tolerance=2.0)
        assert passed, lines

    def test_linear_memory_fails(self):
        # O(N) residency: memory grows 100x with the population.
        report = make_scaling_report(
            [scaling_cell(100, mem=20.0), scaling_cell(10_000, mem=2000.0)]
        )
        passed, lines = check_scaling(report, tolerance=2.0)
        assert not passed
        assert any("peak_mem_mb" in line and "FAIL" in line for line in lines)

    def test_linear_setup_fails(self):
        report = make_scaling_report(
            [scaling_cell(100, setup=0.2), scaling_cell(10_000, setup=20.0)]
        )
        passed, lines = check_scaling(report, tolerance=2.0)
        assert not passed

    def test_noise_floor_absorbs_tiny_differences(self):
        # 0.001s -> 0.004s is a 4x ratio but far below timer resolution.
        report = make_scaling_report(
            [scaling_cell(100, setup=0.001), scaling_cell(10_000, setup=0.004)]
        )
        passed, lines = check_scaling(report, tolerance=2.0)
        assert passed, lines

    def test_budgets_bound_the_max_cell(self):
        report = make_scaling_report(
            [scaling_cell(100), scaling_cell(10_000, mem=100.0)]
        )
        passed, _ = check_scaling(report, tolerance=100.0, mem_budget_mb=50.0)
        assert not passed
        passed, _ = check_scaling(report, tolerance=100.0, mem_budget_mb=200.0)
        assert passed

    def test_missing_cells_fail(self):
        passed, lines = check_scaling({"schema": SCHEMA}, tolerance=2.0)
        assert not passed and any("no client_scaling" in line for line in lines)

    def test_cells_sorted_by_population(self):
        # Cells given large-first must still compare max-N against min-N.
        report = make_scaling_report(
            [scaling_cell(10_000, mem=600.0), scaling_cell(100, mem=6.0)]
        )
        passed, _ = check_scaling(report, tolerance=2.0)
        assert not passed

    def test_scaling_only_artifact_loads(self, tmp_path):
        path = write(
            tmp_path / "scaling.json",
            make_scaling_report([scaling_cell(100), scaling_cell(10_000)]),
        )
        payload = load_report(path)
        assert "client_scaling" in payload
        assert perfgate_main([path]) == 0

    def test_cli_gates_scaling_section(self, tmp_path):
        bad = write(
            tmp_path / "bad.json",
            make_scaling_report(
                [scaling_cell(100, mem=20.0), scaling_cell(10_000, mem=900.0)]
            ),
        )
        assert perfgate_main([bad]) == 1

    def test_macro_and_scaling_both_gate(self, tmp_path):
        baseline = write(tmp_path / "base.json", make_report({"a": cell(1.5)}))
        combined = write(
            tmp_path / "combined.json",
            make_scaling_report(
                [scaling_cell(100), scaling_cell(10_000)],
                results={"a": cell(1.4)},
            ),
        )
        assert perfgate_main([combined, "--baseline", baseline]) == 0
        regressed = write(
            tmp_path / "regressed.json",
            make_scaling_report(
                [scaling_cell(100), scaling_cell(10_000)],
                results={"a": cell(0.2)},
            ),
        )
        assert perfgate_main([regressed, "--baseline", baseline]) == 1


class TestCli:
    def test_gate_pass_and_fail_exit_codes(self, tmp_path):
        baseline = write(tmp_path / "base.json", make_report({"a": cell(1.5)}))
        good = write(tmp_path / "good.json", make_report({"a": cell(1.4)}))
        bad = write(tmp_path / "bad.json", make_report({"a": cell(0.5)}))
        assert perfgate_main([good, "--baseline", baseline]) == 0
        assert perfgate_main([bad, "--baseline", baseline]) == 1

    def test_update_ratchets_baseline(self, tmp_path):
        baseline = write(tmp_path / "base.json", make_report({"a": cell(1.2)}))
        better = write(tmp_path / "better.json", make_report({"a": cell(1.8)}))
        assert perfgate_main([better, "--baseline", baseline, "--update"]) == 0
        assert load_report(baseline)["results"]["a"]["speedup"] == 1.8

    def test_rejects_wrong_schema(self, tmp_path):
        path = write(tmp_path / "bad.json", {"schema": "nope", "results": {"a": {}}})
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_rejects_empty_results(self, tmp_path):
        path = write(tmp_path / "empty.json", {"schema": SCHEMA, "results": {}})
        with pytest.raises(ValueError, match="no results"):
            load_report(path)


class TestMacroBenchSmoke:
    """Reduced-scale end-to-end run of the real macro-bench."""

    def test_smoke_artifact_and_bit_identity(self, tmp_path):
        from tools.perfbench import main as perfbench_main

        out = tmp_path / "bench.json"
        rc = perfbench_main([
            "--devices", "8", "--samples", "320", "--rounds", "1",
            "--repeat", "1", "--output", str(out),
        ])
        assert rc == 0
        payload = load_report(str(out))  # validates schema on the way in
        assert set(payload["results"]) == {
            "fedavg", "fedproxvr-svrg", "fedproxvr-sarah"
        }
        for algorithm, result in payload["results"].items():
            assert result["identical"], (
                f"{algorithm}: batched result must stay bit-identical"
            )
            assert result["speedup"] > 0
        assert payload["min_speedup"] <= payload["geomean_speedup"]
        # ... and the smoke artifact gates cleanly against itself.
        assert perfgate_main([str(out), "--baseline", str(out)]) == 0

    def test_ledger_dir_emits_per_cell_ledgers(self, tmp_path):
        from repro.obs.diff import diff_ledgers
        from repro.obs.ledger import LedgerReader
        from tests.obs.schema_validator import validate_file
        from tools.perfbench import main as perfbench_main

        ledger_dir = tmp_path / "ledgers"
        rc = perfbench_main([
            "--devices", "8", "--samples", "320", "--rounds", "1",
            "--repeat", "1", "--ledger-dir", str(ledger_dir),
        ])
        assert rc == 0
        names = sorted(p.name for p in ledger_dir.iterdir())
        assert names == sorted(
            f"{algo}.{execu}.ledger.jsonl"
            for algo in ("fedavg", "fedproxvr-svrg", "fedproxvr-sarah")
            for execu in ("sequential", "batched")
        )
        for path in ledger_dir.iterdir():
            assert LedgerReader(str(path)).validate() == []
            assert validate_file(str(path)) == []
        reader = LedgerReader(str(ledger_dir / "fedavg.batched.ledger.jsonl"))
        manifest = reader.manifest
        assert manifest["attrs"]["perfbench"] is True
        assert manifest["attrs"]["executor"] == "batched"
        assert manifest["attrs"]["wall_seconds"] > 0
        assert reader.rounds()  # per-round records from the history
        # the drill-down payload: the traced cell run's span events
        assert "cohort_solve" in {e["name"] for e in reader.by_type("span")}
        # the executor pair diffs cleanly: bit-identical metrics, and a
        # structural span swap must not read as a regression
        result = diff_ledgers(
            str(ledger_dir / "fedavg.sequential.ledger.jsonl"),
            str(ledger_dir / "fedavg.batched.ledger.jsonl"),
        )
        assert result["shared_rounds"] >= 1
        assert result["metrics"]["train_loss"]["delta"] == 0.0
        assert result["same_source"] is True
        assert result["hotspots"]["local_solve"]["status"] == "vanished"
        assert result["hotspots"]["cohort_solve"]["status"] == "new"

    def test_client_scaling_smoke(self, tmp_path):
        from tools.perfbench import main as perfbench_main

        out = tmp_path / "scaling.json"
        rc = perfbench_main([
            "--client-scaling", "--skip-macro",
            "--scaling-devices", "20", "200",
            "--scaling-participants", "4", "--scaling-rounds", "1",
            "--repeat", "1", "--output", str(out),
        ])
        assert rc == 0
        payload = load_report(str(out))
        cells = payload["client_scaling"]["cells"]
        assert [c["registered_clients"] for c in cells] == [20, 200]
        for c in cells:
            assert c["participants"] == 4
            assert c["hydrations"] > 0
            assert c["peak_mem_mb"] > 0
        # O(K) residency at tiny scale: 10x population must not cost
        # 10x anything (the gate's floors absorb micro-run noise).
        assert perfgate_main([str(out), "--scaling-tolerance", "2.0"]) == 0

    def test_skip_macro_requires_scaling(self):
        from tools.perfbench import main as perfbench_main

        with pytest.raises(SystemExit):
            perfbench_main(["--skip-macro"])
