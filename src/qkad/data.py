"""Dataset construction: synthetic two-cluster data, fraud CSV, splits.

Labels are 1 for anomalies and 0 for normal points everywhere.  Training
sets contain normal points only; test sets mix a fixed anomaly fraction in
(count rounded down).
"""

from __future__ import annotations

import contextlib
import csv
import logging
import math
import os
import stat
import warnings
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np
from numpy.lib import format as npy_format
from numpy.lib.npyio import NpzFile

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
    """Load the credit-card fraud CSV; keeps V1..V28 and the Class label.

    The Time and Amount columns are dropped.  The header is validated first.
    The data rows are then parsed by numpy's C reader into a ``Dataset``;
    when the reader raises or finds no rows, or ``Dataset`` rejects the
    table, the file is parsed again by a checked row loop.  That loop raises
    at the first bad cell in file order, with its row and column named, and
    returns the same table for cells that Python's ``float`` reads but numpy
    does not (such as ``1_0``).

    A regular file's parse is cached beside it in ``<csv>.qkad.npz``, which
    holds the sha256 of the CSV's bytes, a format tag, ``features`` and
    ``labels``.  When both the digest and the tag match, the table is read
    from there and the ``Dataset`` checks run on it; any other sidecar is
    ignored, and the file is parsed and the sidecar rewritten.  A failed
    write is logged and skipped, and a file that raises is never cached.
    """
    path = Path(path)
    sidecar = path.with_name(path.name + _CACHE_SUFFIX)
    before = _regular_file_state(path)
    digest = _file_digest(path) if before is not None else None
    dataset = _read_cache(sidecar, digest) if digest is not None else None
    how = "from its parse cache"
    if dataset is None:
        how = "parsed"
        dataset = _parse_fraud_csv(path)
        # a file edited during the parse may not match the digest taken before it
        if digest is not None and _regular_file_state(path) == before:
            _write_cache(sidecar, digest, dataset)
    logger.info(
        "loaded %s (%s): %d rows, %d anomalies, %d features",
        path.name,
        how,
        dataset.n_points,
        dataset.n_anomalies,
        dataset.n_features,
    )
    return dataset


def _parse_fraud_csv(path: Path) -> Dataset:
    """Parse the CSV with no cache: the header, then the fast or the checked row parse."""
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

        dataset = _parse_rows_fast(handle, [*feature_pos, class_pos], len(header))
        if dataset is None:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            dataset = _parse_rows_checked(path, reader, len(header), feature_pos, class_pos)
    return dataset


# The parse cache.  Bump the format tag whenever the parse could return a
# different table for the same bytes, so older sidecars are re-parsed.
_CACHE_SUFFIX = ".qkad.npz"
_CACHE_FORMAT = "qkad-fraud-csv-1"
_CACHE_KEYS = ("digest", "features", "format", "labels")
_IO_CHUNK_BYTES = 1 << 20


def _regular_file_state(path: Path) -> tuple[int, int, int, int] | None:
    """(device, inode, size, mtime) of a regular file, or ``None`` for anything else.

    Pipes and devices are not cached: hashing them would consume the input.
    """
    try:
        st = path.stat()
    except OSError:
        return None  # the parse raises the error the loader always raised
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _file_digest(path: Path) -> str | None:
    """The hex sha256 of the file's bytes, or ``None`` when it cannot be read."""
    # imported here: loading OpenSSL takes about 4 ms of every ``import qkad``,
    # and synthetic runs never hash a file
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(_IO_CHUNK_BYTES)
    view = memoryview(buffer)
    try:
        with path.open("rb", buffering=0) as handle:
            while size := handle.readinto(buffer):
                digest.update(view[:size])
    except OSError:
        return None
    return digest.hexdigest()


def _read_cache(sidecar: Path, digest: str) -> Dataset | None:
    """The cached table when the sidecar is well formed and matches ``digest``, else ``None``."""
    try:
        # np.load leaks a file it opened itself when the archive is truncated
        with sidecar.open("rb") as handle:
            stored = np.load(handle, allow_pickle=False)
            if not isinstance(stored, NpzFile):
                return None  # a lone .npy array
            with stored:
                if (
                    sorted(stored.files) != list(_CACHE_KEYS)
                    # no other array prints as the tag or as a 64-hex digest
                    or str(stored["format"]) != _CACHE_FORMAT
                    or str(stored["digest"]) != digest
                ):
                    return None
                features, labels = stored["features"], stored["labels"]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None  # missing, unreadable or truncated; the parse rewrites it
    if (
        features.dtype != np.float64
        or labels.dtype != np.int64
        or features.shape[1:] != (len(FRAUD_FEATURE_COLUMNS),)
        or not len(features)
    ):
        return None
    try:
        # the Dataset checks: label shape, finite features, labels 0 or 1
        return Dataset(features=features, labels=labels)
    except ValueError:
        return None


def _create_temp(sidecar: Path) -> tuple[int, Path]:
    """A new file beside ``sidecar``, open for writing; its mode follows the umask."""
    temp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp


def _save_npz(handle: BinaryIO, **arrays: np.ndarray) -> None:
    """Write ``arrays`` in ``np.savez``'s layout, copying one block of rows at a time.

    ``np.savez`` copies through 16 MiB buffers, which lifts the peak memory of
    a cache miss by about a third over the parse's own.
    """
    with zipfile.ZipFile(handle, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy_format.write_array_header_1_0(
                    member, npy_format.header_data_from_array_1_0(array)
                )
                rows = np.atleast_1d(array)
                step = max(1, _IO_CHUNK_BYTES * len(rows) // max(1, rows.nbytes))
                for start in range(0, len(rows), step):
                    member.write(np.ascontiguousarray(rows[start : start + step]).tobytes())


def _write_cache(sidecar: Path, digest: str, dataset: Dataset) -> None:
    """Write the sidecar through a temporary file and ``os.replace``; log and skip on failure."""
    temp = None
    try:
        fd, temp = _create_temp(sidecar)
        with os.fdopen(fd, "wb") as handle:
            _save_npz(
                handle,
                format=np.array(_CACHE_FORMAT),
                digest=np.array(digest),
                features=dataset.features,
                labels=dataset.labels,
            )
        os.replace(temp, sidecar)
    except OSError as exc:
        logger.warning("parse cache %s not written: %s", sidecar, exc)
        if temp is not None:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)


def _parse_rows_fast(handle: TextIO, usecols: list[int], width: int) -> Dataset | None:
    """The data rows after the header, or ``None`` to parse them again with the checked loop.

    ``usecols`` lists the feature columns, then the label column.  Reading
    the header's last column too makes numpy reject a row shorter than the
    header, as the checked loop does.  ``None`` also stands for a file with
    no data rows and for a table that ``Dataset`` rejects.
    """
    cols = usecols if width - 1 in usecols else [*usecols, width - 1]
    try:
        with warnings.catch_warnings():
            # a header-only file; the checked loop reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                handle, delimiter=",", usecols=cols, quotechar='"', comments=None, ndmin=2
            )
        n_features = len(usecols) - 1
        return Dataset(table[:, :n_features], table[:, n_features]) if len(table) else None
    except ValueError:
        return None


def _parse_rows_checked(
    path: Path, reader: Iterable[list[str]], width: int, feature_pos: list[int], class_pos: int
) -> Dataset:
    """Parse the data rows one cell at a time, raising on the first bad one by row and column."""
    columns = [*zip(FRAUD_FEATURE_COLUMNS, feature_pos), ("Class", class_pos)]
    rows: list[list[float]] = []
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < width:
            raise MissingColumnError(
                f"{path}: row {row_num} has {len(row)} fields, expected {width}"
            )
        values = []
        for col, pos in columns:
            cell = row[pos].strip().strip('"')
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCellError(
                    f"{path}: row {row_num}, column {col}: cannot parse {cell!r}"
                ) from None
            # float() accepts nan and inf; a non-finite label gets the label message below
            if col != "Class" and not math.isfinite(values[-1]):
                raise NonNumericCellError(
                    f"{path}: row {row_num}, column {col}: value {values[-1]!r} is not finite"
                )
        # the loop ends on the Class cell
        if values[-1] not in (0.0, 1.0):
            raise ValueError(
                f"{path}: row {row_num}, column Class: label must be 0 or 1, got {cell!r}"
            )
        rows.append(values)
    if not rows:
        raise EmptyFileError(f"{path}: no data rows")
    table = np.array(rows)
    return Dataset(features=table[:, :-1], labels=table[:, -1])


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
