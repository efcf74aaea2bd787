"""Tests for repro.fl.history."""

from dataclasses import asdict

import pytest

from repro.fl.history import RoundRecord, TrainingHistory, format_comparison
from repro.obs.ledger import LOSS_CEILING, RunLedger


def record(i, loss, acc=0.5, grad=1.0):
    return RoundRecord(
        round_index=i,
        train_loss=loss,
        grad_norm=grad,
        test_accuracy=acc,
        sim_time=float(i),
        wall_time=float(i) * 0.1,
    )


def through_ledger(history, tmp_path):
    """Commit ``history``'s records to a run ledger and read it back."""
    path = str(tmp_path / "run.ledger.jsonl")
    ledger = RunLedger(path, fsync=False)
    ledger.write_manifest(
        dict(history.config, algorithm=history.algorithm),
        attrs={"dataset": history.dataset},
    )
    for r in history.records:
        ledger.commit_round(r.round_index, asdict(r), sim_time=r.sim_time)
    ledger.close()
    return TrainingHistory.from_ledger(path)


class TestTrainingHistory:
    def make(self):
        h = TrainingHistory(algorithm="fedavg", dataset="toy", config={"tau": 5})
        for i, loss in enumerate([3.0, 2.0, 1.5], start=1):
            h.append(record(i, loss, acc=0.3 + 0.1 * i))
        return h

    def test_series(self):
        h = self.make()
        assert h.series("train_loss") == [3.0, 2.0, 1.5]
        assert h.num_rounds == 3

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            self.make().series("nope")

    def test_final_and_best(self):
        h = self.make()
        assert h.final("train_loss") == 1.5
        assert h.best("test_accuracy") == pytest.approx(0.6)
        assert h.best("train_loss", maximize=False) == 1.5

    def test_empty_history_nan(self):
        h = TrainingHistory("a", "b")
        assert h.final("train_loss") != h.final("train_loss")  # NaN
        assert h.series("train_loss") == []

    def test_diverged_on_nan(self):
        h = TrainingHistory("a", "b")
        h.append(record(1, float("nan")))
        assert h.diverged()

    def test_diverged_on_ceiling(self):
        below = TrainingHistory("a", "b")
        below.append(record(1, LOSS_CEILING))
        assert not below.diverged()
        above = TrainingHistory("a", "b")
        above.append(record(1, 10 * LOSS_CEILING))
        assert above.diverged()

    def test_rounds_to_targets(self):
        h = self.make()
        assert h.rounds_to_loss(2.0) == 2
        assert h.rounds_to_loss(0.1) is None
        assert h.rounds_to_accuracy(0.5) == 2
        assert h.rounds_to_accuracy(0.99) is None

    def test_roundtrip_dict(self):
        h = self.make()
        back = TrainingHistory.from_dict(h.to_dict())
        assert back.algorithm == h.algorithm
        assert back.config == h.config
        assert back.series("train_loss") == h.series("train_loss")

    def test_from_ledger_file(self, tmp_path):
        h = self.make()
        back = through_ledger(h, tmp_path)
        assert back.algorithm == "fedavg"
        assert back.dataset == "toy"
        assert back.config == {"tau": 5, "algorithm": "fedavg"}
        assert back.records == h.records

    def test_straggler_gap_roundtrips_through_json(self, tmp_path):
        h = TrainingHistory("fedavg", "toy")
        r = record(1, 1.0)
        r.straggler_gap = 0.125
        h.append(r)
        back = through_ledger(h, tmp_path)
        assert back.records[0].straggler_gap == 0.125
        assert back.series("straggler_gap") == [0.125]

    def test_loads_old_files_without_straggler_gap(self):
        # histories serialized before the field existed must still load
        h = self.make()
        payload = h.to_dict()
        for rec in payload["records"]:
            del rec["straggler_gap"]
        back = TrainingHistory.from_dict(payload)
        assert all(r.straggler_gap is None for r in back.records)

    def test_grad_dissimilarity_roundtrips_through_json(self, tmp_path):
        h = TrainingHistory("fedavg", "toy")
        r = record(1, 1.0)
        r.grad_dissimilarity = 1.25
        h.append(r)
        back = through_ledger(h, tmp_path)
        assert back.records[0].grad_dissimilarity == 1.25
        assert back.series("grad_dissimilarity") == [1.25]

    def test_loads_pre_v2_files_without_grad_dissimilarity(self):
        h = self.make()
        payload = h.to_dict()
        for rec in payload["records"]:
            del rec["grad_dissimilarity"]
        back = TrainingHistory.from_dict(payload)
        assert all(r.grad_dissimilarity is None for r in back.records)

    def test_ignores_unknown_record_keys_from_future_versions(self):
        # forward tolerance: a newer writer may add fields this reader
        # does not know; loading must drop them instead of crashing
        h = self.make()
        payload = h.to_dict()
        for rec in payload["records"]:
            rec["a_future_field"] = 42
        back = TrainingHistory.from_dict(payload)
        assert back.series("train_loss") == h.series("train_loss")
        assert not hasattr(back.records[0], "a_future_field")


class TestFormatComparison:
    def test_contains_all_algorithms(self):
        h1 = TrainingHistory("fedavg", "toy")
        h1.append(record(1, 1.0, acc=0.7))
        h2 = TrainingHistory("fedproxvr-sarah", "toy")
        h2.append(record(1, 0.9, acc=0.8))
        text = format_comparison([h1, h2])
        assert "fedavg" in text
        assert "fedproxvr-sarah" in text
        assert "0.8" in text
