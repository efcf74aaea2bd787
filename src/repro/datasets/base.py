"""Containers for federated data.

A :class:`FederatedDataset` is a list of per-device shards plus global
metadata.  Device weights are the paper's ``D_n / D`` (computed over
*training* samples, which is what both the aggregation rule in Alg. 1
line 12 and the global objective (2) weight by).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError


@dataclass
class DeviceData:
    """One device's local shard, already split into train and test."""

    device_id: int
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self) -> None:
        self.X_train = np.asarray(self.X_train, dtype=np.float64)
        self.X_test = np.asarray(self.X_test, dtype=np.float64)
        self.y_train = np.asarray(self.y_train)
        self.y_test = np.asarray(self.y_test)
        if self.X_train.ndim != 2 or self.X_test.ndim != 2:
            raise DimensionMismatchError("device features must be 2-D matrices")
        if self.X_train.shape[0] != self.y_train.shape[0]:
            raise DimensionMismatchError("train X/y length mismatch")
        if self.X_test.shape[0] != self.y_test.shape[0]:
            raise DimensionMismatchError("test X/y length mismatch")
        if self.X_train.shape[0] == 0:
            raise ConfigurationError(
                f"device {self.device_id} has no training samples"
            )

    @property
    def num_train(self) -> int:
        """Number of local training samples (the paper's ``D_n``)."""
        return int(self.X_train.shape[0])

    @property
    def num_test(self) -> int:
        """Number of local held-out samples."""
        return int(self.X_test.shape[0])

    @property
    def train_labels(self) -> np.ndarray:
        """Distinct labels present in the training shard."""
        return np.unique(self.y_train)


def _valid_labels(labels: np.ndarray, num_classes: int) -> bool:
    """Whether every label is an integer in ``[0, num_classes)``."""
    if labels.size == 0:
        return True
    # array_equal with the floor also rejects NaN (NaN != NaN).
    if labels.dtype.kind not in "iuf" or not np.array_equal(labels, np.floor(labels)):
        return False
    return bool(labels.min() >= 0 and labels.max() < num_classes)


@dataclass
class FederatedDataset:
    """All device shards plus task-level metadata."""

    devices: List[DeviceData]
    num_features: int
    num_classes: int
    name: str = "federated"
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigurationError("a federated dataset needs >= 1 device")
        seen = set()
        for dev in self.devices:
            # Each client's per-round RNG stream is keyed by its id, so two
            # devices with one id would draw the same minibatches.
            if dev.device_id in seen:
                raise ConfigurationError(f"device id {dev.device_id} appears twice")
            seen.add(dev.device_id)
            if dev.X_train.shape[1] != self.num_features:
                raise DimensionMismatchError(
                    f"device {dev.device_id} has {dev.X_train.shape[1]} features, "
                    f"dataset declares {self.num_features}"
                )
            # Checked once here: the loss heads index by label without
            # re-validating on every gradient call, and a NaN or inf
            # feature fails here, naming its device, rather than later
            # as a non-finite step size.
            for split, X, labels in (
                ("train", dev.X_train, dev.y_train),
                ("test", dev.X_test, dev.y_test),
            ):
                if not np.isfinite(X).all():
                    raise ConfigurationError(
                        f"device {dev.device_id} has non-finite {split} features"
                    )
                if not _valid_labels(labels, self.num_classes):
                    raise ConfigurationError(
                        f"device {dev.device_id} has {split} labels outside the "
                        f"integers 0..{self.num_classes - 1}"
                    )

    @property
    def num_devices(self) -> int:
        """The paper's ``N``."""
        return len(self.devices)

    def device(self, index: int) -> DeviceData:
        """Shard of device ``index`` (same protocol as the lazy dataset)."""
        return self.devices[index]

    @property
    def device_ids(self) -> np.ndarray:
        """Per-device ids as a packed int64 vector, in device order."""
        return np.array([d.device_id for d in self.devices], dtype=np.int64)

    @property
    def train_sizes(self) -> np.ndarray:
        """Per-device ``D_n`` as a packed int64 vector."""
        return np.array([d.num_train for d in self.devices], dtype=np.int64)

    @property
    def total_train(self) -> int:
        """The paper's ``D = sum_n D_n``."""
        return int(sum(d.num_train for d in self.devices))

    def weights(self) -> np.ndarray:
        """Aggregation weights ``p_n = D_n / D`` (sum to one)."""
        sizes = np.array([d.num_train for d in self.devices], dtype=np.float64)
        return sizes / sizes.sum()

    def global_train(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated training data (for centralized reference runs)."""
        X = np.concatenate([d.X_train for d in self.devices], axis=0)
        y = np.concatenate([d.y_train for d in self.devices], axis=0)
        return X, y

    def global_test(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated test data (devices may have empty test shards)."""
        X = np.concatenate([d.X_test for d in self.devices], axis=0)
        y = np.concatenate([d.y_test for d in self.devices], axis=0)
        return X, y

    def size_range(self) -> Tuple[int, int]:
        """(min, max) per-device training sizes — the paper reports these."""
        sizes = [d.num_train for d in self.devices]
        return (min(sizes), max(sizes))

    def summary(self) -> str:
        """Human-readable one-paragraph description."""
        lo, hi = self.size_range()
        labels = [len(d.train_labels) for d in self.devices]
        return (
            f"{self.name}: {self.num_devices} devices, {self.total_train} train "
            f"samples (per-device range [{lo}, {hi}]), {self.num_features} "
            f"features, {self.num_classes} classes, "
            f"labels/device in [{min(labels)}, {max(labels)}]"
        )


class LazyFederatedDataset:
    """A federation whose shards are materialized on demand.

    Registered-population metadata — per-device training sizes, feature
    and class counts — lives in packed ndarrays, so holding ``N = 10^6``
    devices costs megabytes, not the gigabytes of ``N`` resident shards.
    ``device(k)`` rebuilds device ``k``'s :class:`DeviceData` from its
    seed-derived stream; generators guarantee the rebuilt shard is
    bit-identical to the one the eager constructor would have produced,
    so lazy and eager runs of the same seed agree exactly.

    Aggregation weights ``p_n = D_n / D`` and every other Theorem-1
    quantity that only needs sizes read :attr:`train_sizes` without
    touching a shard.  ``.devices`` materializes (and caches) the whole
    federation for backward compatibility — an explicit O(N) escape
    hatch, not something the lazy training path ever calls.
    """

    def __init__(
        self,
        device_factory: Callable[[int], DeviceData],
        *,
        train_sizes: np.ndarray,
        num_features: int,
        num_classes: int,
        name: str = "federated-lazy",
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.device_factory = device_factory
        self.train_sizes = np.asarray(train_sizes, dtype=np.int64)
        if self.train_sizes.ndim != 1 or self.train_sizes.shape[0] == 0:
            raise ConfigurationError(
                "train_sizes must be a non-empty 1-D vector"
            )
        if int(self.train_sizes.min()) < 1:
            raise ConfigurationError(
                "every device needs >= 1 training sample"
            )
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.name = name
        self.extra: Dict[str, object] = dict(extra or {})
        self._materialized: Optional[List[DeviceData]] = None

    @property
    def num_devices(self) -> int:
        """The paper's ``N`` — a metadata lookup, no shards involved."""
        return int(self.train_sizes.shape[0])

    @property
    def device_ids(self) -> np.ndarray:
        """Per-device ids: ``arange(N)``, which :meth:`device` enforces."""
        return np.arange(self.num_devices, dtype=np.int64)

    @property
    def total_train(self) -> int:
        """The paper's ``D = sum_n D_n`` from packed metadata."""
        return int(self.train_sizes.sum())

    def weights(self) -> np.ndarray:
        """Aggregation weights ``p_n = D_n / D`` from packed metadata."""
        sizes = self.train_sizes.astype(np.float64)
        return sizes / sizes.sum()

    def device(self, index: int) -> DeviceData:
        """Materialize device ``index``'s shard from its seeded stream."""
        if not 0 <= index < self.num_devices:
            raise ConfigurationError(
                f"device index {index} out of range [0, {self.num_devices})"
            )
        if self._materialized is not None:
            return self._materialized[index]
        dev = self.device_factory(index)
        if dev.device_id != index:
            raise ConfigurationError(
                f"device factory returned id {dev.device_id} for index {index}"
            )
        if dev.num_train != int(self.train_sizes[index]):
            raise ConfigurationError(
                f"device {index} materialized {dev.num_train} train samples, "
                f"metadata says {int(self.train_sizes[index])}"
            )
        if dev.X_train.shape[1] != self.num_features:
            raise DimensionMismatchError(
                f"device {index} has {dev.X_train.shape[1]} features, "
                f"dataset declares {self.num_features}"
            )
        return dev

    @property
    def devices(self) -> List[DeviceData]:
        """All shards, materialized and cached — an explicit O(N) walk."""
        if self._materialized is None:
            self._materialized = [self.device(k) for k in range(self.num_devices)]
        return self._materialized

    def materialize(self) -> FederatedDataset:
        """Eager :class:`FederatedDataset` with every shard resident."""
        return FederatedDataset(
            devices=list(self.devices),
            num_features=self.num_features,
            num_classes=self.num_classes,
            name=self.name,
            extra=dict(self.extra),
        )

    def global_train(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated training data (materializes every shard)."""
        X = np.concatenate([d.X_train for d in self.devices], axis=0)
        y = np.concatenate([d.y_train for d in self.devices], axis=0)
        return X, y

    def global_test(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated test data (materializes every shard)."""
        X = np.concatenate([d.X_test for d in self.devices], axis=0)
        y = np.concatenate([d.y_test for d in self.devices], axis=0)
        return X, y

    def probe_train(self, max_devices: int) -> Tuple[np.ndarray, np.ndarray]:
        """Training data of the first ``max_devices`` shards.

        The smoothness probe's bounded stand-in for ``global_train``:
        when ``max_devices >= N`` it returns exactly the global
        concatenation, so small-federation runs keep the eager path's
        ``L`` bit-for-bit.
        """
        count = min(int(max_devices), self.num_devices)
        if count < 1:
            raise ConfigurationError("probe needs >= 1 device")
        shards = [self.device(k) for k in range(count)]
        X = np.concatenate([d.X_train for d in shards], axis=0)
        y = np.concatenate([d.y_train for d in shards], axis=0)
        return X, y

    def size_range(self) -> Tuple[int, int]:
        """(min, max) per-device training sizes from packed metadata."""
        return (int(self.train_sizes.min()), int(self.train_sizes.max()))

    def summary(self) -> str:
        """Human-readable one-paragraph description (metadata only)."""
        lo, hi = self.size_range()
        return (
            f"{self.name}: {self.num_devices} devices (lazy), "
            f"{self.total_train} train samples (per-device range "
            f"[{lo}, {hi}]), {self.num_features} features, "
            f"{self.num_classes} classes"
        )
