"""Dataset ingestion: CSV files and the synthetic two-blob binary task.

CSV layout is ``label,f0,f1,...,f{d-1}`` with a header row; labels are 0/1
and features must parse as finite floats. Loading standardizes each feature
column to mean 0 / std 1 (constant columns become all zeros) and preserves
row order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "load_csv_dataset",
    "save_csv_dataset",
    "synthetic_dataset",
]


class DatasetFormatError(ValueError):
    """A dataset file does not follow the expected CSV layout."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # [n, dim] float64
    labels: np.ndarray  # [n] values in {0, 1}

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be [n, dim] and labels [n]")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature and label counts differ")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


def load_csv_dataset(path) -> Dataset:
    """Load and standardize a labeled CSV file.

    Raises :class:`DatasetFormatError` naming the offending line for
    malformed rows, inconsistent widths, bad labels or non-finite features.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        if not header or header[0] != "label":
            raise DatasetFormatError(f"{path}: header must start with 'label'")
        width = len(header) - 1
        if width < 1:
            raise DatasetFormatError(f"{path}: no feature columns")
        expected = ["label"] + [f"f{i}" for i in range(width)]
        if header != expected:
            raise DatasetFormatError(f"{path}: header must be {','.join(expected)}")

        labels: list[float] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {width + 1} fields, got {len(row)}"
                )
            try:
                label = float(row[0])
                feats = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            if label not in (0.0, 1.0):
                raise DatasetFormatError(f"{path}:{lineno}: label must be 0 or 1")
            if not all(np.isfinite(feats)):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
            labels.append(label)
            rows.append(feats)

    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    centered = features - mean
    standardized = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return Dataset(standardized, np.array(labels, dtype=np.float64))


def save_csv_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the loadable CSV layout (without re-standardizing)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for label, feats in zip(dataset.labels, dataset.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in feats])


def _check_synthetic(n: int, dim: int, separation: float, label_noise: float) -> None:
    """Raise ``ValueError``, naming the parameter, unless the two-blob task is well defined."""
    if n < 2:
        raise ValueError(f"n: need at least two samples, got {n}")
    if dim < 1:
        raise ValueError(f"dim: need at least one feature, got {dim}")
    if separation < 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    if not np.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    if not 0 <= label_noise < 0.5:
        raise ValueError(f"label_noise: label noise must be in [0, 0.5), got {label_noise}")


def _split_sizes(
    n: int, test_fraction: float, train_fraction: float, test_rows: int | None = None
) -> tuple[int, int]:
    """Rows held out of ``n`` for testing, and rows of the rest that train.

    ``test_rows`` is the size of a separate test set; then none of the
    ``n`` rows are held out. A split that leaves the test, train or
    validation part empty raises ``ValueError``.
    """
    held = int(n * test_fraction) if test_rows is None else 0
    rest = n - held
    n_train = int(rest * train_fraction)
    n_test = held if test_rows is None else test_rows
    if not (n_test and 0 < n_train < rest):
        raise ValueError(f"split leaves no data: {n_test} test rows, {n_train} of {rest} to train")
    return held, n_train


def synthetic_dataset(
    n: int,
    dim: int,
    class_separation: float,
    label_noise: float,
    seed: int,
) -> Dataset:
    """Two unit-covariance Gaussian blobs on the first axis.

    Class 0 is centered at -separation/2 * e1, class 1 at +separation/2 * e1,
    with balanced labels. ``label_noise`` flips that fraction of labels
    (rounded to a count), chosen without replacement. Fully deterministic
    per seed. The Bayes accuracy of the clean task is Phi(separation / 2).
    """
    _check_synthetic(n, dim, class_separation, label_noise)
    rng = np.random.Generator(np.random.PCG64(seed))
    n0 = n // 2
    labels = np.concatenate([np.zeros(n0), np.ones(n - n0)])
    features = rng.standard_normal((n, dim))
    half = class_separation / 2.0
    features[:, 0] += np.where(labels == 1.0, half, -half)
    flips = int(round(label_noise * n))
    if flips:
        idx = rng.choice(n, size=flips, replace=False)
        labels[idx] = 1.0 - labels[idx]
    return Dataset(features, labels)
