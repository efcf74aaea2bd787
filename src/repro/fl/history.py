"""Training histories: per-round records plus export helpers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from repro.obs.ledger import LedgerReader, RoundRecord, diverged

#: the known RoundRecord field names; :meth:`TrainingHistory.from_dict`
#: drops anything else so histories written by *newer* code still load
_RECORD_FIELDS = frozenset(f.name for f in fields(RoundRecord))


@dataclass
class TrainingHistory:
    """Full record of a federated run."""

    algorithm: str
    dataset: str
    config: Dict[str, object] = field(default_factory=dict)
    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add one round's record."""
        self.records.append(record)

    @property
    def num_rounds(self) -> int:
        """Number of completed global iterations."""
        return len(self.records)

    def series(self, name: str) -> List[float]:
        """Extract one metric as a list across rounds."""
        if not self.records:
            return []
        if not hasattr(self.records[0], name):
            raise KeyError(f"unknown metric {name!r}")
        return [getattr(r, name) for r in self.records]

    def final(self, name: str) -> float:
        """Last value of a metric (``nan`` for empty histories)."""
        values = self.series(name)
        return values[-1] if values else float("nan")

    def best(self, name: str, *, maximize: bool = True) -> float:
        """Best value of a metric over the run."""
        values = [v for v in self.series(name) if v == v]  # drop NaN
        if not values:
            return float("nan")
        return max(values) if maximize else min(values)

    def diverged(self) -> bool:
        """Whether any recorded loss trips :func:`repro.obs.diverged`."""
        return any(diverged(v) for v in self.series("train_loss"))

    def rounds_to_loss(self, target: float) -> Optional[int]:
        """First round index whose train loss is <= ``target``."""
        for r in self.records:
            if r.train_loss <= target:
                return r.round_index
        return None

    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """First round index whose test accuracy is >= ``target``."""
        for r in self.records:
            if r.test_accuracy >= target:
                return r.round_index
        return None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`."""
        history = cls(
            algorithm=str(payload["algorithm"]),
            dataset=str(payload["dataset"]),
            config=dict(payload.get("config", {})),
        )
        for rec in payload.get("records", []):
            # Forward tolerance, mirroring the old-file tolerance the
            # optional fields give us: unknown keys (written by a newer
            # version) are dropped instead of exploding the constructor.
            history.append(
                RoundRecord(
                    **{k: v for k, v in rec.items() if k in _RECORD_FIELDS}
                )
            )
        return history

    @classmethod
    def from_ledger(cls, path: str) -> "TrainingHistory":
        """The history of a ledgered run: its evaluated rounds' records.

        Algorithm and config come from the ledger's manifest, the
        dataset name from the manifest's attrs.
        """
        reader = LedgerReader(path)
        manifest = reader.manifest or {}
        config = manifest.get("config", {})
        return cls.from_dict(
            {
                "algorithm": config.get("algorithm", ""),
                "dataset": manifest.get("attrs", {}).get("dataset", ""),
                "config": config,
                "records": [
                    e["record"] for e in reader.rounds() if e.get("evaluated")
                ],
            }
        )


def format_comparison(
    histories: Sequence[TrainingHistory], *, metric: str = "test_accuracy"
) -> str:
    """Tabular text comparison of several runs (used by benches)."""
    lines = [f"{'algorithm':>22s} {'final loss':>12s} {'best ' + metric:>16s} {'rounds':>7s}"]
    for h in histories:
        lines.append(
            f"{h.algorithm:>22s} {h.final('train_loss'):12.5f} "
            f"{h.best(metric):16.5f} {h.num_rounds:7d}"
        )
    return "\n".join(lines)
