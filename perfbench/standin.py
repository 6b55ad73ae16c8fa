"""Seeded stand-in for the credit-card fraud CSV.

The public fraud file (284,807 transactions, 492 frauds, columns ``Time``,
``V1..V28``, ``Amount``, ``Class``) is not in the repository and cannot be
fetched, so the fraud workloads read this stand-in instead.  It keeps the
file's header, row count, fraud count and roughly its size on disk (about
81 MB with six decimals per feature), so parsing it costs what parsing the
real file costs.

The values are synthetic.  Normal rows sit in six tight clusters of a
rank-8 Gaussian latent space, mixed into the 28 feature columns plus noise,
so the scaler -> PCA chain finds the same leading directions on every seed.
Fraud rows are spread around a point three latent standard deviations out
along five of those directions.  With the package's kernel bandwidths a
normal test point then always has training neighbours and a fraud has none,
which keeps average precision steady from seed to seed, so quality can be an
end-to-end metric.  Every value comes from ``numpy.random.default_rng(seed)``:
one seed gives one byte-identical file.

The CSV text is built as one byte buffer with vectorized digit arithmetic,
which is far faster than formatting 8.8 million cells one by one in Python.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ROWS = 284_807
FRAUDS = 492
HEADER = ("Time", *(f"V{i}" for i in range(1, 29)), "Amount", "Class")

_LATENT = 8
_LATENT_STD = np.linspace(3.0, 1.0, _LATENT)
_CLUSTERS = 6
_CLUSTER_STD = 0.2
_FRAUD_SHIFT = np.array([3.0, -3.0, 3.0, -3.0, 3.0, 0.0, 0.0, 0.0])  # in latent stds
_NOISE_STD = 0.3
_SECONDS = 172_792  # two days, as in the public file


def sample(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the stand-in: time, V1..V28, amount and class."""
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((_LATENT, 28)) / np.sqrt(_LATENT)
    centers = rng.standard_normal((_CLUSTERS, _LATENT)) * _LATENT_STD
    labels = np.zeros(ROWS, dtype=np.int64)
    labels[rng.choice(ROWS, size=FRAUDS, replace=False)] = 1
    latent = centers[rng.integers(0, _CLUSTERS, size=ROWS)]
    latent += _CLUSTER_STD * rng.standard_normal((ROWS, _LATENT))
    fraud = labels == 1
    latent[fraud] = (rng.standard_normal((FRAUDS, _LATENT)) + _FRAUD_SHIFT) * _LATENT_STD
    features = latent @ loadings + _NOISE_STD * rng.standard_normal((ROWS, 28))
    times = np.sort(rng.integers(0, _SECONDS + 1, size=ROWS))
    amounts = rng.lognormal(mean=3.0, sigma=1.5, size=ROWS)
    return times, features, amounts, labels


def _fixed_cells(values: np.ndarray, decimals: int) -> np.ndarray:
    """CSV cells of a (rows, k) array: each value with ``decimals`` places.

    Returns (rows, k * width) bytes.  Each cell is right-aligned in its
    ``width`` bytes and followed by a comma; unused leading bytes are 0,
    which :func:`render` drops.
    """
    scale = 10**decimals
    scaled = np.rint(np.abs(values) * scale).astype(np.int64)
    negative = (values < 0) & (scaled > 0)
    whole, frac = np.divmod(scaled, scale)
    int_digits = 1 + np.floor(np.log10(np.maximum(whole, 1))).astype(np.int64)
    lead = int(int_digits.max()) + 1  # sign plus integer digits
    width = lead + (decimals + 1 if decimals else 0) + 1
    cells = np.zeros(values.shape + (width,), dtype=np.uint8)
    for k in range(lead):  # k-th integer digit from the right
        digit = ord("0") + (whole // 10**k) % 10
        sign = np.where(negative & (int_digits == k), ord("-"), 0)
        cells[..., lead - 1 - k] = np.where(k < int_digits, digit, sign)
    if decimals:
        cells[..., lead] = ord(".")
        for k in range(decimals):
            cells[..., lead + 1 + k] = ord("0") + (frac // 10 ** (decimals - 1 - k)) % 10
    cells[..., -1] = ord(",")
    return cells.reshape(values.shape[0], -1)


def render(seed: int) -> bytes:
    """The whole stand-in CSV for ``seed`` as bytes."""
    times, features, amounts, labels = sample(seed)
    label_cells = np.full((ROWS, 4), ord('"'), dtype=np.uint8)
    label_cells[:, 1] = ord("0") + labels
    label_cells[:, 3] = ord("\n")
    table = np.concatenate(
        [
            _fixed_cells(times[:, None].astype(float), 0),
            _fixed_cells(features, 6),
            _fixed_cells(amounts[:, None], 2),
            label_cells,
        ],
        axis=1,
    )
    header = ",".join(f'"{name}"' for name in HEADER) + "\n"
    return header.encode() + table[table != 0].tobytes()


def write(seed: int, path: str | Path) -> int:
    """Write the stand-in for ``seed`` to ``path``; returns its size in bytes."""
    payload = render(seed)
    Path(path).write_bytes(payload)
    return len(payload)
