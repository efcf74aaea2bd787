"""Tests for repro.datasets.io (npz round-tripping)."""

import json

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.datasets.io import load_federated_dataset, save_federated_dataset
from repro.exceptions import ConfigurationError


class TestRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        ds = make_synthetic(1.0, 0.5, num_devices=4, num_features=10,
                            num_classes=3, min_size=20, max_size=40, seed=0)
        path = save_federated_dataset(ds, tmp_path / "data")
        back = load_federated_dataset(path)
        assert back.name == ds.name
        assert back.num_features == ds.num_features
        assert back.num_classes == ds.num_classes
        assert back.num_devices == ds.num_devices
        for a, b in zip(ds.devices, back.devices):
            assert a.device_id == b.device_id
            np.testing.assert_array_equal(a.X_train, b.X_train)
            np.testing.assert_array_equal(a.y_train, b.y_train)
            np.testing.assert_array_equal(a.X_test, b.X_test)
            np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_extra_metadata_preserved(self, tmp_path):
        ds = make_synthetic(2.0, 0.0, num_devices=2, num_features=5,
                            num_classes=2, min_size=10, max_size=20, seed=1)
        back = load_federated_dataset(save_federated_dataset(ds, tmp_path / "x"))
        assert back.extra["alpha"] == 2.0
        assert back.extra["iid"] is False

    def test_suffix_appended(self, tmp_path):
        ds = make_synthetic(1, 1, num_devices=2, num_features=5, num_classes=2,
                            min_size=10, max_size=20, seed=2)
        path = save_federated_dataset(ds, tmp_path / "noext")
        assert path.suffix == ".npz"

    def test_weights_preserved(self, tmp_path):
        ds = make_synthetic(1, 1, num_devices=5, num_features=5, num_classes=2,
                            min_size=10, max_size=200, seed=3)
        back = load_federated_dataset(save_federated_dataset(ds, tmp_path / "w"))
        np.testing.assert_allclose(back.weights(), ds.weights())


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_federated_dataset(tmp_path / "nope.npz")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigurationError):
            load_federated_dataset(path)


def _tampered(tmp_path, key, make):
    """A saved 3-device archive whose array ``key`` is replaced by ``make(old)``."""
    ds = make_synthetic(1, 1, num_devices=3, num_features=5, num_classes=3,
                        min_size=10, max_size=20, seed=4)
    path = save_federated_dataset(ds, tmp_path / "data")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays[key] = make(arrays[key])
    np.savez_compressed(path, **arrays)
    return path


class TestLabelValidation:
    """Archives are outside input: labels must be class ids in
    ``[0, num_classes)``, checked once when the dataset is built."""

    @pytest.mark.parametrize(
        "key,bad",
        [("dev1_ytr", -1), ("dev2_yte", 3), ("dev1_ytr", 1.5)],
        ids=["negative", "num_classes", "fractional"],
    )
    def test_out_of_range_or_fractional_label_rejected(self, tmp_path, key, bad):
        def corrupt(labels):
            labels = labels.astype(np.float64 if isinstance(bad, float) else labels.dtype)
            labels[0] = bad
            return labels

        path = _tampered(tmp_path, key, corrupt)
        device = int(key[3])
        with pytest.raises(ConfigurationError, match=f"device {device} "):
            load_federated_dataset(path)

    def test_integer_valued_float_labels_load(self, tmp_path):
        path = _tampered(tmp_path, "dev0_yte", lambda y: np.zeros(y.shape[0]))
        back = load_federated_dataset(path)
        assert back.devices[0].y_test.dtype == np.float64
        assert not back.devices[0].y_test.any()


class TestFeatureValidation:
    """Archived features must be finite: a NaN or inf would otherwise
    surface later as a non-finite step size, far from the bad data."""

    @staticmethod
    def _set(value):
        def make(X):
            X = X.copy()
            X[0, 1] = value
            return X

        return make

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key,split", [("dev1_Xtr", "train"), ("dev2_Xte", "test")]
    )
    def test_non_finite_features_rejected(self, tmp_path, key, split, bad):
        path = _tampered(tmp_path, key, self._set(bad))
        device = int(key[3])
        with pytest.raises(
            ConfigurationError, match=f"device {device} has non-finite {split} features"
        ):
            load_federated_dataset(path)

    def test_finite_features_load(self, tmp_path):
        path = _tampered(tmp_path, "dev0_Xtr", self._set(1e300))
        assert load_federated_dataset(path).devices[0].X_train[0, 1] == 1e300


class TestDeviceIdValidation:
    def test_duplicate_ids_rejected_on_load(self, tmp_path):
        def duplicate_ids(meta_json):
            meta = json.loads(str(meta_json))
            meta["device_ids"] = [0, 1, 0]
            return np.array(json.dumps(meta))

        path = _tampered(tmp_path, "meta_json", duplicate_ids)
        with pytest.raises(ConfigurationError, match="device id 0 appears twice"):
            load_federated_dataset(path)
