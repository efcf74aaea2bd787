"""A federated client: one device's data, model handle, and local solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.local.base import LocalSolveResult, LocalSolver
from repro.datasets.base import DeviceData
from repro.models.base import Model
from repro.utils.rng import derive_generator


@dataclass
class Client:
    """Simulated device participating in federated training.

    ``model`` may be shared by any number of clients: a model is a pure
    function of ``(w, X, y)`` (:class:`~repro.models.base.Model`).  Two
    solves running at once need two models, so the thread pool passes
    each solve a worker model of its own.

    ``base_seed`` makes the client's per-round randomness a pure
    function of ``(client id, round index)``, so results are identical
    under any executor and any client-completion order.
    """

    client_id: int
    data: DeviceData
    model: Model
    solver: LocalSolver
    base_seed: int = 0

    def round_rng(self, round_index: int) -> np.random.Generator:
        """The deterministic RNG stream for one (client, round) pair."""
        return derive_generator(self.base_seed, self.client_id, round_index)

    def local_update(
        self, w_global: np.ndarray, round_index: int, model: Optional[Model] = None
    ) -> LocalSolveResult:
        """Run the local solver on this device's training shard (with
        ``model`` in place of the client's own, if given)."""
        return self.solver.solve(
            self.model if model is None else model,
            self.data.X_train,
            self.data.y_train,
            w_global,
            self.round_rng(round_index),
        )

    @property
    def num_train(self) -> int:
        """Local training-set size ``D_n``."""
        return self.data.num_train

    def evaluate(
        self, w: np.ndarray, *, split: str = "test"
    ) -> Optional[float]:
        """Local accuracy on train or test shard (``None`` if empty)."""
        if split == "train":
            X, y = self.data.X_train, self.data.y_train
        elif split == "test":
            X, y = self.data.X_test, self.data.y_test
        else:
            raise ValueError(f"split must be 'train' or 'test', got {split!r}")
        if X.shape[0] == 0:
            return None
        return self.model.accuracy(w, X, y)
