"""End-to-end instrumentation tests over the federated stack.

These run real (tiny) federated experiments with telemetry enabled and
check the acceptance-level properties: run ledgers validate against the
schema, round spans account for the run wall time, straggler gaps reach
``RoundRecord``, solver counters reconcile with history, and the nn
profiling hook produces per-layer timings only when asked.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.cli import main
from repro.fl.history import TrainingHistory
from repro.fl.runner import FederatedRunConfig, run_federated
from repro.models import MultinomialLogisticModel, make_mlp_model
from repro.obs import (
    InMemorySink,
    LedgerReader,
    RoundRecord,
    RunLedger,
    default_monitor_suite,
    telemetry,
)
from repro.obs.report import render_report
from tests.obs.schema_validator import validate_file


class InflatedLossModel(MultinomialLogisticModel):
    """Reports ``scale`` times its loss; gradients, so training, unchanged."""

    def __init__(self, num_features, num_classes, scale):
        super().__init__(num_features, num_classes)
        self.scale = scale

    def loss_and_gradient(self, w, X, y):
        loss, grad = super().loss_and_gradient(w, X, y)
        return self.scale * loss, grad


def _config(**overrides):
    base = dict(
        algorithm="fedproxvr-sarah",
        num_rounds=4,
        num_local_steps=5,
        beta=5.0,
        mu=0.1,
        batch_size=16,
        seed=0,
        eval_every=1,
    )
    base.update(overrides)
    return FederatedRunConfig(**base)


class TestTracedRun:
    @pytest.fixture()
    def traced_run(self, tiny_dataset, tiny_model_factory, tmp_path):
        path = str(tmp_path / "run.ledger.jsonl")
        ledger = RunLedger(path)
        telemetry.configure([ledger])
        try:
            history, _ = run_federated(
                tiny_dataset, tiny_model_factory, _config(), ledger=ledger
            )
        finally:
            telemetry.shutdown()
        return history, path, LedgerReader(path)

    def test_trace_validates_and_report_renders(self, traced_run):
        history, path, reader = traced_run
        assert validate_file(path) == []
        assert reader.validate() == []
        report = render_report(path, top=5)
        assert "span tree" in report
        assert "local_solve" in report
        assert "round" in report

    def test_round_durations_sum_to_run_wall_time(self, traced_run):
        _, _, reader = traced_run
        spans = reader.by_type("span")
        run = [e for e in spans if e["name"] == "run"]
        rounds = [e for e in spans if e["name"] == "round"]
        assert len(run) == 1 and len(rounds) == 4
        round_total = sum(e["duration"] for e in rounds)
        # rounds are the run span's only substantive children: their
        # durations must account for (almost) all of the run wall time
        assert round_total <= run[0]["duration"] + 1e-9
        assert round_total >= 0.8 * run[0]["duration"]

    def test_straggler_gap_recorded_in_history(self, traced_run):
        history, _, _ = traced_run
        for record in history.records:
            assert record.straggler_gap is not None
            assert record.straggler_gap >= 0.0

    def test_counters_reconcile_with_history(self, traced_run):
        history, _, reader = traced_run
        num_clients = 6
        expected_evals = sum(
            r.mean_gradient_evaluations * num_clients for r in history.records
        )
        metric = "fl.client.grad_evals{fedproxvr-sarah}"
        total = sum(
            e["metrics"][metric]["total"]
            for e in reader.by_type("round_metrics")
        )
        assert total == pytest.approx(expected_evals)
        assert telemetry.metrics.snapshot()[metric]["total"] == total

    def test_round_metric_events_cover_every_round(self, traced_run):
        _, _, reader = traced_run
        rounds = [e["round"] for e in reader.by_type("round_metrics")]
        assert rounds == [1, 2, 3, 4]
        for event in reader.by_type("round_metrics"):
            assert event["sim_time"] is not None

    def test_sim_time_stamped_on_round_spans(self, traced_run):
        _, _, reader = traced_run
        rounds = [e for e in reader.by_type("span") if e["name"] == "round"]
        sim_times = [e["sim_time"] for e in rounds]
        assert all(t is not None for t in sim_times)
        assert sim_times == sorted(sim_times)  # simulated time is monotone


class TestDisabledRunUnchanged:
    def test_straggler_gap_recorded_with_telemetry_off(
        self, tiny_dataset, tiny_model_factory
    ):
        assert not telemetry.enabled
        history, _ = run_federated(tiny_dataset, tiny_model_factory, _config())
        for record in history.records:
            assert record.straggler_gap is not None
            assert record.straggler_gap >= 0.0

    def test_results_identical_with_and_without_telemetry(
        self, tiny_dataset, tiny_model_factory
    ):
        history_off, w_off = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        telemetry.configure([InMemorySink()])
        try:
            history_on, w_on = run_federated(
                tiny_dataset, tiny_model_factory, _config()
            )
        finally:
            telemetry.shutdown()
        np.testing.assert_array_equal(w_off, w_on)
        assert history_off.series("train_loss") == history_on.series("train_loss")


class TestLedgeredRun:
    def _run(self, dataset, factory, tmp_path, **config_overrides):
        path = tmp_path / "run.ledger.jsonl"
        ledger = RunLedger(str(path))
        monitors = default_monitor_suite()
        history, w = run_federated(
            dataset, factory, _config(**config_overrides),
            ledger=ledger, monitors=monitors,
        )
        return history, w, str(path), monitors

    def test_ledger_validates_and_mirrors_history(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history, _, path, monitors = self._run(
            tiny_dataset, tiny_model_factory, tmp_path
        )
        assert validate_file(path) == []
        reader = LedgerReader(str(path))
        assert reader.validate() == []
        assert reader.status == "completed"
        rounds = reader.rounds()
        assert [e["round"] for e in rounds] == [1, 2, 3, 4]
        assert [e["record"]["train_loss"] for e in rounds] == (
            history.series("train_loss")
        )
        # a healthy tiny run must be alert-silent
        assert monitors.alerts == []
        assert reader.alerts() == []
        # manifest records the resolved config and RNG entropy
        manifest = reader.manifest
        assert manifest["config"]["algorithm"] == "fedproxvr-sarah"
        assert set(manifest["entropy"]) >= {"seed"}

    def test_grad_dissimilarity_committed_each_round(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history, _, path, _ = self._run(
            tiny_dataset, tiny_model_factory, tmp_path
        )
        for event in LedgerReader(path).rounds():
            gamma = event["record"]["grad_dissimilarity"]
            assert gamma is not None and gamma >= 1.0  # Jensen: Γ̂ ≥ 1
        assert history.records[0].grad_dissimilarity == (
            LedgerReader(path).rounds()[0]["record"]["grad_dissimilarity"]
        )

    def test_every_round_commits_the_full_round_record(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        _, _, path, _ = self._run(
            tiny_dataset, tiny_model_factory, tmp_path, eval_every=2
        )
        by_round = {e["round"]: e for e in LedgerReader(path).rounds()}
        assert set(by_round) == {1, 2, 3, 4}
        names = {f.name for f in fields(RoundRecord)}
        eval_fields = ("train_loss", "grad_norm", "test_accuracy", "wall_time")
        for s, event in by_round.items():
            unevaluated = s % 2 == 1
            assert set(event["record"]) == names
            assert event["evaluated"] is not unevaluated
            for name in eval_fields:
                assert (event["record"][name] is None) is unevaluated

    def test_history_rebuilds_from_ledger(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history, _, path, _ = self._run(
            tiny_dataset, tiny_model_factory, tmp_path, eval_every=2
        )
        assert [r.round_index for r in history.records] == [2, 4]
        assert TrainingHistory.from_ledger(path).to_dict() == history.to_dict()

    @pytest.mark.parametrize("scale, diverges", [(1e7, False), (1e9, True)])
    def test_one_divergence_rule_stops_alerts_and_closes(
        self, tiny_dataset, tmp_path, scale, diverges
    ):
        # The loss starts near scale * log(4): ~1.4e7 sits below the
        # ceiling, ~1.4e9 above it.  Training, the tripwire and the
        # ledger status must all agree on which side each run is on.
        def factory():
            return InflatedLossModel(
                tiny_dataset.num_features, tiny_dataset.num_classes, scale
            )

        history, _, path, _ = self._run(tiny_dataset, factory, tmp_path)
        reader = LedgerReader(path)
        assert np.isfinite(history.series("train_loss")).all()
        assert history.num_rounds == (1 if diverges else 4)
        assert reader.last_committed_round == history.num_rounds
        fired = {a["monitor"] for a in reader.alerts()}
        assert ("divergence" in fired) is diverges
        assert reader.status == ("diverged" if diverges else "completed")

    def test_bit_identical_with_ledger_and_monitors_on(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history_off, w_off = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        _, w_on, _, _ = self._run(tiny_dataset, tiny_model_factory, tmp_path)
        np.testing.assert_array_equal(w_off, w_on)
        assert history_off.series("train_loss") == [
            e["record"]["train_loss"]
            for e in LedgerReader(
                str(tmp_path / "run.ledger.jsonl")
            ).rounds()
        ]


class TestThreadExecutorRun:
    def test_traced_thread_run_matches_sequential(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        path = str(tmp_path / "thread.ledger.jsonl")
        ledger = RunLedger(path)
        telemetry.configure([ledger])
        try:
            history_thread, w_thread = run_federated(
                tiny_dataset, tiny_model_factory,
                _config(executor="thread", max_workers=4), ledger=ledger,
            )
        finally:
            telemetry.shutdown()
        history_seq, w_seq = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        np.testing.assert_allclose(w_thread, w_seq)
        assert validate_file(path) == []
        solves = [
            e for e in LedgerReader(path).by_type("span")
            if e["name"] == "local_solve"
        ]
        assert len(solves) == 6 * 4  # clients x rounds


class TestNNProfiling:
    def _mlp_factory(self, dataset):
        return lambda: make_mlp_model(
            dataset.num_features, dataset.num_classes, (8,), seed=0
        )

    def test_layer_timings_only_when_opted_in(self, tiny_dataset):
        factory = self._mlp_factory(tiny_dataset)
        config = _config(num_rounds=1, algorithm="fedavg", mu=0.1)

        telemetry.configure([InMemorySink()])
        try:
            run_federated(tiny_dataset, factory, config)
            snap_plain = telemetry.metrics.snapshot()
        finally:
            telemetry.shutdown()
        assert not any(m.startswith("nn.layer.") for m in snap_plain)

        telemetry.configure([InMemorySink()], nn_profiling=True)
        try:
            run_federated(tiny_dataset, factory, config)
            snap_prof = telemetry.metrics.snapshot()
        finally:
            telemetry.shutdown()
        forward = [m for m in snap_prof if m.startswith("nn.layer.forward_seconds")]
        backward = [m for m in snap_prof if m.startswith("nn.layer.backward_seconds")]
        assert forward and backward
        # per-layer keys like "0:Dense" / "1:ReLU" appear in the metric id
        assert any("Dense" in m for m in forward)
        for mid in forward:
            assert snap_prof[mid]["count"] > 0


class TestCliRunLedger:
    """``repro run --ledger``: the one file a CLI run writes."""

    ROUNDS = 3

    @pytest.fixture(scope="class")
    def ledgers(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli")
        paths = []
        for seed in (1, 2):
            path = str(out / f"seed{seed}.ledger.jsonl")
            assert main([
                "run", "--devices", "5", "--rounds", str(self.ROUNDS),
                "--tau", "5", "--eval-every", "1", "--seed", str(seed),
                "--ledger", path,
            ]) == 0
            paths.append(path)
        return paths

    def test_ledger_passes_both_validators(self, ledgers):
        for path in ledgers:
            assert LedgerReader(path).validate() == []
            assert validate_file(path) == []

    def test_spans_follow_the_manifest(self, ledgers):
        events = LedgerReader(ledgers[0]).events
        assert events[0]["type"] == "manifest"
        assert events[0]["attrs"]["model"] == "MultinomialLogisticModel"
        # emitted before the manifest, written right after it
        assert events[1]["type"] == "span"
        assert events[1]["name"] == "estimate_smoothness"
        names = {e["name"] for e in events if e["type"] == "span"}
        assert names >= {"run", "round", "eval", "local_solve"}

    def test_round_metrics_and_straggler_gap_every_round(self, ledgers):
        reader = LedgerReader(ledgers[0])
        rounds = list(range(1, self.ROUNDS + 1))
        assert [e["round"] for e in reader.by_type("round_metrics")] == rounds
        assert [e["round"] for e in reader.rounds()] == rounds
        for event in reader.rounds():
            assert event["record"]["straggler_gap"] is not None

    def test_obs_report_prints_span_tree_and_hotspots(self, ledgers, capsys):
        assert main(["obs-report", ledgers[0]]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "hotspots (self time)" in out
        assert "local_solve" in out

    def test_obs_diff_has_local_solve_hotspot_row(self, ledgers, capsys):
        assert main(["obs-diff", *ledgers]) == 0
        out = capsys.readouterr().out
        assert "span self-time" in out
        assert any(
            line.split()[:1] == ["local_solve"] for line in out.splitlines()
        )

    @pytest.mark.parametrize("flag", ["--fail-fast", "--profile-nn"])
    def test_monitor_and_profile_flags_need_a_ledger(self, flag, capsys):
        assert main(["run", "--rounds", "1", flag]) == 2
        assert "need --ledger" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run"], ["compare", "--algorithms", "fedavg"]]
    )
    def test_ledger_in_missing_directory_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "r.jsonl"
        assert main([
            *command, "--devices", "4", "--rounds", "1", "--tau", "2",
            "--ledger", str(path),
        ]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "cannot open ledger" in err
        assert out == ""  # rejected before the dataset is built and announced

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--beta", "0"],
            ["run", "--eval-every", "0"],
            ["run", "--algorithm", "pfedme"],
            ["compare", "-a", "fedavg", "bogus"],
        ],
    )
    def test_bad_setting_is_rejected_before_dataset_and_ledger(
        self, command, tmp_path, capsys
    ):
        assert main([
            *command, "--devices", "4", "--rounds", "1", "--tau", "2",
            "--ledger", str(tmp_path / "r.jsonl"),
        ]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []
