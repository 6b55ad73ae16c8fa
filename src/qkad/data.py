"""Dataset construction: synthetic two-cluster data, fraud CSV, splits.

Labels are 1 for anomalies and 0 for normal points everywhere.  Training
sets contain normal points only; test sets mix a fixed anomaly fraction in
(count rounded down).
"""

from __future__ import annotations

import csv
import logging
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

__all__ = [
    "Dataset",
    "SplitSpec",
    "EmptyFileError",
    "MissingColumnError",
    "NonNumericCellError",
    "SYNTHETIC_CLUSTER_CENTERS",
    "SYNTHETIC_CLUSTER_STD",
    "SYNTHETIC_ANOMALY_BOX",
    "generate_synthetic",
    "load_fraud_csv",
    "make_split",
]

logger = logging.getLogger(__name__)

# generator constants for the two-cluster synthetic benchmark; echoed into
# run metadata so results stay interpretable
SYNTHETIC_CLUSTER_CENTERS = ((2.0, 2.0), (-2.0, -2.0))
SYNTHETIC_CLUSTER_STD = 0.3 * np.sqrt(2.0)
SYNTHETIC_ANOMALY_BOX = (-4.0, 4.0)

FRAUD_FEATURE_COLUMNS = tuple(f"V{i}" for i in range(1, 29))
FRAUD_HEADER = ("Time", *FRAUD_FEATURE_COLUMNS, "Amount", "Class")


class EmptyFileError(ValueError):
    """The CSV file contains no header row."""


class MissingColumnError(ValueError):
    """A required CSV column is absent (in the header or in a data row)."""


class NonNumericCellError(ValueError):
    """A CSV feature cell is not a finite number."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError(
                f"features {features.shape} and labels {labels.shape} are inconsistent"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        # checked before the cast, which would truncate 0.5 to 0 and warn on NaN
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if len(bad):
            raise ValueError(
                "labels must be 0 (normal) or 1 (anomaly), "
                f"got {labels[bad[0]].item()!r} at index {bad[0]}"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_anomalies(self) -> int:
        return int(self.labels.sum())


@dataclass(frozen=True)
class SplitSpec:
    train_size: int
    test_size: int
    test_anomaly_ratio: float

    def __post_init__(self) -> None:
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError("train_size and test_size must be >= 1")
        if not 0 <= self.test_anomaly_ratio <= 1:
            raise ValueError(f"test_anomaly_ratio must be in [0, 1], got {self.test_anomaly_ratio}")

    @property
    def test_anomaly_count(self) -> int:
        return int(np.floor(self.test_anomaly_ratio * self.test_size))


def _normal_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """Two offset Gaussian clusters, split as evenly as the count allows."""
    first = count // 2
    sizes = (first, count - first)
    parts = [
        center + SYNTHETIC_CLUSTER_STD * rng.standard_normal((size, 2))
        for center, size in zip(SYNTHETIC_CLUSTER_CENTERS, sizes)
    ]
    return np.vstack(parts)


def generate_synthetic(spec: SplitSpec, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Two-dimensional two-cluster data with box-uniform anomalies.

    The training set holds ``spec.train_size`` normal points; the test set
    holds ``spec.test_size`` points of which ``spec.test_anomaly_count`` are
    anomalies drawn uniformly from the anomaly box.  The generator draws the
    training clusters, the training order, the test clusters, the anomalies
    and the test order, in that order.
    """
    n_train = spec.train_size
    train_x = _normal_points(n_train, rng)
    train_x = train_x[rng.permutation(n_train)]
    train = Dataset(features=train_x, labels=np.zeros(n_train, dtype=np.int64))

    n_anom = spec.test_anomaly_count
    n_norm = spec.test_size - n_anom
    lo, hi = SYNTHETIC_ANOMALY_BOX
    test_x = np.vstack(
        [_normal_points(n_norm, rng), rng.uniform(lo, hi, size=(n_anom, 2))]
    )
    test_y = np.concatenate(
        [np.zeros(n_norm, dtype=np.int64), np.ones(n_anom, dtype=np.int64)]
    )
    order = rng.permutation(spec.test_size)
    test = Dataset(features=test_x[order], labels=test_y[order])
    return train, test


def load_fraud_csv(path: str | Path) -> Dataset:
    """Parse the credit-card fraud CSV; keeps V1..V28 and the Class label.

    The Time and Amount columns are dropped.  The header is validated first.
    The data rows are then parsed by numpy's C reader; when it raises, finds
    no rows, a non-finite feature or a label other than 0 or 1, the file is
    parsed again by a checked row loop.  That loop raises with the offending
    row and column named, and returns the same table for cells that
    Python's ``float`` reads but numpy does not (such as ``1_0``).
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: file is empty") from None
        header = [h.strip().strip('"') for h in header]
        missing = [col for col in FRAUD_HEADER if col not in header]
        if missing:
            raise MissingColumnError(f"{path}: missing column(s) {missing}")
        feature_pos = [header.index(col) for col in FRAUD_FEATURE_COLUMNS]
        class_pos = header.index("Class")

        parsed = _parse_rows_fast(handle, [*feature_pos, class_pos], len(header))
        if parsed is None:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            parsed = _parse_rows_checked(path, reader, len(header), feature_pos, class_pos)
    features, labels = parsed
    dataset = Dataset(features=features, labels=labels)
    logger.info(
        "loaded %s: %d rows, %d anomalies, %d features",
        path.name,
        dataset.n_points,
        dataset.n_anomalies,
        dataset.n_features,
    )
    return dataset


def _parse_rows_fast(
    handle: TextIO, usecols: list[int], width: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The data rows after the header as (features, labels), or ``None`` to re-check them.

    ``usecols`` lists the feature columns, then the label column.  Reading
    the header's last column too makes numpy reject a row shorter than the
    header, as the checked loop does.
    """
    cols = usecols if width - 1 in usecols else [*usecols, width - 1]
    try:
        with warnings.catch_warnings():
            # a header-only file; the checked loop reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                handle, delimiter=",", usecols=cols, quotechar='"', comments=None, ndmin=2
            )
    except ValueError:
        return None
    n_features = len(usecols) - 1
    features, labels = table[:, :n_features], table[:, n_features]
    if (
        not len(table)
        or not np.isfinite(features).all()
        or not ((labels == 0.0) | (labels == 1.0)).all()
    ):
        return None
    return features, labels.astype(np.int64)


def _parse_rows_checked(
    path: Path, reader: Iterable[list[str]], width: int, feature_pos: list[int], class_pos: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parse the data rows one cell at a time, raising on the first bad one by row and column."""
    features: list[list[float]] = []
    labels: list[float] = []
    row_nums: list[int] = []
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < width:
            raise MissingColumnError(
                f"{path}: row {row_num} has {len(row)} fields, expected {width}"
            )
        values = []
        for col, pos in zip(FRAUD_FEATURE_COLUMNS, feature_pos):
            cell = row[pos].strip().strip('"')
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCellError(
                    f"{path}: row {row_num}, column {col}: cannot parse {cell!r}"
                ) from None
        cell = row[class_pos].strip().strip('"')
        try:
            label = float(cell)
        except ValueError:
            raise NonNumericCellError(
                f"{path}: row {row_num}, column Class: cannot parse {cell!r}"
            ) from None
        if label != 0.0 and label != 1.0:
            raise ValueError(
                f"{path}: row {row_num}, column Class: label must be 0 or 1, got {cell!r}"
            )
        features.append(values)
        labels.append(label)
        row_nums.append(row_num)

    if not features:
        raise EmptyFileError(f"{path}: no data rows")
    matrix = np.array(features)
    # float() accepts nan and inf; one pass over the parsed table finds them
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonNumericCellError(
            f"{path}: row {row_nums[i]}, column {FRAUD_FEATURE_COLUMNS[j]}: "
            f"value {float(matrix[i, j])!r} is not finite"
        )
    return matrix, np.array(labels, dtype=np.int64)


def make_split(
    data: Dataset, spec: SplitSpec, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Uniform random split: normal-only training set, mixed test set.

    Test indices are disjoint from training indices; the test set is
    shuffled so anomalies are not grouped.
    """
    normal_idx = np.flatnonzero(data.labels == 0)
    anomaly_idx = np.flatnonzero(data.labels == 1)
    n_anom = spec.test_anomaly_count
    n_norm = spec.test_size - n_anom
    if normal_idx.size < spec.train_size + n_norm:
        raise ValueError(
            f"need {spec.train_size + n_norm} normal points, dataset has {normal_idx.size}"
        )
    if anomaly_idx.size < n_anom:
        raise ValueError(f"need {n_anom} anomalies, dataset has {anomaly_idx.size}")

    normal_pick = rng.choice(normal_idx, size=spec.train_size + n_norm, replace=False)
    train_idx = normal_pick[: spec.train_size]
    test_idx = np.concatenate(
        [normal_pick[spec.train_size :], rng.choice(anomaly_idx, size=n_anom, replace=False)]
    )
    test_idx = test_idx[rng.permutation(test_idx.size)]

    train = Dataset(features=data.features[train_idx], labels=data.labels[train_idx])
    test = Dataset(features=data.features[test_idx], labels=data.labels[test_idx])
    return train, test
