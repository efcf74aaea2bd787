"""Tests for repro.datasets.base containers."""

import numpy as np
import pytest

from repro.datasets.base import DeviceData, FederatedDataset
from repro.exceptions import ConfigurationError, DimensionMismatchError


def make_device(device_id=0, n_train=10, n_test=4, d=3, label=0):
    rng = np.random.default_rng(device_id)
    return DeviceData(
        device_id,
        rng.standard_normal((n_train, d)),
        np.full(n_train, label),
        rng.standard_normal((n_test, d)),
        np.full(n_test, label),
    )


class TestDeviceData:
    def test_counts(self):
        dev = make_device(n_train=7, n_test=3)
        assert dev.num_train == 7
        assert dev.num_test == 3

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceData(0, np.zeros((0, 3)), np.zeros(0), np.zeros((1, 3)), np.zeros(1))

    def test_empty_test_allowed(self):
        dev = DeviceData(0, np.zeros((2, 3)), np.zeros(2), np.zeros((0, 3)), np.zeros(0))
        assert dev.num_test == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DeviceData(0, np.zeros((3, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1))

    def test_1d_features_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DeviceData(0, np.zeros(3), np.zeros(3), np.zeros((1, 2)), np.zeros(1))

    def test_train_labels(self):
        dev = DeviceData(
            0,
            np.zeros((4, 2)),
            np.array([1, 1, 3, 3]),
            np.zeros((0, 2)),
            np.zeros(0),
        )
        np.testing.assert_array_equal(dev.train_labels, [1, 3])


class TestFederatedDataset:
    def test_weights_sum_to_one_and_proportional(self):
        devs = [make_device(0, n_train=10), make_device(1, n_train=30)]
        ds = FederatedDataset(devs, num_features=3, num_classes=2)
        w = ds.weights()
        assert w.sum() == pytest.approx(1.0)
        assert w[1] == pytest.approx(0.75)

    def test_total_train(self):
        devs = [make_device(i, n_train=5 + i) for i in range(3)]
        ds = FederatedDataset(devs, num_features=3, num_classes=2)
        assert ds.total_train == 5 + 6 + 7

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FederatedDataset([], num_features=3, num_classes=2)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            FederatedDataset([make_device(0, d=4)], num_features=3, num_classes=2)

    def test_global_concatenation(self):
        devs = [make_device(0, n_train=4), make_device(1, n_train=6)]
        ds = FederatedDataset(devs, num_features=3, num_classes=2)
        X, y = ds.global_train()
        assert X.shape == (10, 3)
        assert y.shape == (10,)
        Xt, yt = ds.global_test()
        assert Xt.shape[0] == sum(d.num_test for d in devs)

    def test_size_range(self):
        devs = [make_device(0, n_train=4), make_device(1, n_train=9)]
        ds = FederatedDataset(devs, num_features=3, num_classes=2)
        assert ds.size_range() == (4, 9)

    def test_summary_mentions_key_facts(self):
        ds = FederatedDataset([make_device(0)], num_features=3, num_classes=2, name="toy")
        s = ds.summary()
        assert "toy" in s and "1 devices" in s and "3" in s

    def test_duplicate_device_ids_rejected(self):
        devs = [make_device(2), make_device(0), make_device(2, n_train=5)]
        with pytest.raises(ConfigurationError, match="device id 2 appears twice"):
            FederatedDataset(devs, num_features=3, num_classes=2)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, split, bad):
        dev = make_device(3)
        getattr(dev, f"X_{split}")[1, 2] = bad
        with pytest.raises(
            ConfigurationError, match=f"device 3 has non-finite {split} features"
        ):
            FederatedDataset([make_device(0), dev], num_features=3, num_classes=2)
