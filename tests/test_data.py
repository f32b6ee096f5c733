import math

import numpy as np
import pytest

from dptrain.data import (
    Dataset,
    DatasetFormatError,
    load_csv_dataset,
    save_csv_dataset,
    synthetic_dataset,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
        ds = load_csv_dataset(path)
        assert len(ds) == 2 and ds.dim == 2
        np.testing.assert_array_equal(ds.labels, [0.0, 1.0])

    def test_standardization(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\n0,1.0,5.0\n1,3.0,5.0\n0,5.0,5.0\n")
        ds = load_csv_dataset(path)
        assert ds.features[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert ds.features[:, 0].std() == pytest.approx(1.0, abs=1e-12)
        # constant column becomes all zeros
        np.testing.assert_array_equal(ds.features[:, 1], np.zeros(3))

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "label,f0\n1,10.0\n0,20.0\n1,30.0\n")
        ds = load_csv_dataset(path)
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0, 1.0])
        assert ds.features[0, 0] < ds.features[1, 0] < ds.features[2, 0]

    def test_round_trip(self, tmp_path):
        original = synthetic_dataset(50, 3, 2.0, 0.1, seed=4)
        path = tmp_path / "round.csv"
        save_csv_dataset(original, path)
        loaded = load_csv_dataset(path)
        np.testing.assert_array_equal(loaded.labels, original.labels)
        mean = original.features.mean(axis=0)
        std = original.features.std(axis=0)
        np.testing.assert_allclose(loaded.features, (original.features - mean) / std,
                                   atol=1e-12)

    def test_reload_is_identical(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\n0,1.5,-2.0\n1,0.5,3.0\n1,2.5,0.0\n")
        a = load_csv_dataset(path)
        b = load_csv_dataset(path)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "label,f0\n0,1.0\nbroken\n")
        with pytest.raises(DatasetFormatError, match=r":3"):
            load_csv_dataset(path)

    def test_inconsistent_width(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetFormatError, match=r":3"):
            load_csv_dataset(path)

    def test_bad_label(self, tmp_path):
        path = write(tmp_path, "label,f0\n2,1.0\n")
        with pytest.raises(DatasetFormatError, match="label"):
            load_csv_dataset(path)

    def test_non_finite_feature(self, tmp_path):
        path = write(tmp_path, "label,f0\n0,inf\n")
        with pytest.raises(DatasetFormatError, match="non-finite"):
            load_csv_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_csv_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "label,f0\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_csv_dataset(path)

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "y,x0\n0,1.0\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_csv_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label\n0\n", "no feature columns"),
            ("label,x0\n0,1.0\n", "header must be label,f0$"),
            ("label,f0\n0,1.0\n1,one\n", ":3: could not convert"),
        ],
        ids=["no-features", "feature-name", "unparsable"],
    )
    def test_malformed_file(self, tmp_path, text, message):
        with pytest.raises(DatasetFormatError, match=message):
            load_csv_dataset(write(tmp_path, text))


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = synthetic_dataset(100, 5, 3.0, 0.05, seed=9)
        b = synthetic_dataset(100, 5, 3.0, 0.05, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synthetic_dataset(100, 5, 3.0, 0.05, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_balanced_labels_before_noise(self):
        ds = synthetic_dataset(200, 4, 1.0, 0.0, seed=0)
        assert ds.labels.sum() == 100

    def test_separation_shifts_first_axis_only(self):
        ds = synthetic_dataset(4000, 3, 6.0, 0.0, seed=1)
        pos = ds.features[ds.labels == 1.0]
        neg = ds.features[ds.labels == 0.0]
        assert pos[:, 0].mean() == pytest.approx(3.0, abs=0.15)
        assert neg[:, 0].mean() == pytest.approx(-3.0, abs=0.15)
        assert abs(pos[:, 1].mean()) < 0.15

    def test_label_noise_flips_exact_count(self):
        clean = synthetic_dataset(200, 2, 2.0, 0.0, seed=3)
        noisy = synthetic_dataset(200, 2, 2.0, 0.1, seed=3)
        assert int((clean.labels != noisy.labels).sum()) == 20

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            synthetic_dataset(1, 2, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(10, 0, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(10, 2, -1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(10, 2, 1.0, 0.5, seed=0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_rejects_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            synthetic_dataset(10, 2, separation, 0.0, seed=0)

    def test_subset(self):
        ds = synthetic_dataset(10, 2, 1.0, 0.0, seed=0)
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features[0], ds.features[1])

    def test_dataset_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError, match=r"features must be \[n, dim\] and labels \[n\]"):
            Dataset(np.zeros(3), np.zeros(3))
