"""Kernel evaluation strategies and Gram matrix assembly.

Four interchangeable ways to fill a kernel matrix:

* ``exact``          - noiseless squared overlap of simulated states.
* ``inversion_test`` - frequency of the all-zeros outcome after running the
  encoding circuit for one point followed by the adjoint circuit for the
  other; an unbiased shot-noise estimator of the exact value.
* ``randomized``     - one measurement record per data point in ``r`` shared
  random local bases, combined pairwise by Hamming-weighted cross
  correlations; optional purity-based mitigation.
* ``rbf``            - classical Gaussian kernel baseline.

The quantum kinds encode each ``d``-feature row on ``d`` qubits, so the
qubit count is read from the data.  A cross kernel takes its config from the
:class:`TrainingSet` of the training Gram and checks that its test rows match
that set's width before any encoding or measurement.
Randomized-measurement records are weighted by the ``(-2)**(-H)`` Hamming
table as two half-register Kronecker factors, never its ``2^d x 2^d`` form.
Point sets whose arrays would exceed 1 GiB are rejected before any encoding
or measurement, and so are rows with a non-finite feature.
Every kind fills a block in row bands of about ``_BLOCK_BYTES`` of
temporaries; rbf sums its squared distances one feature at a time, in feature
order, into two 2-D arrays, the band and one scratch band, each 1/32 of that
size.  Each band is checked for finite entries while it is in cache.  A
training Gram is made exactly symmetric by copying the strict upper triangle
into the lower one, in place, in ``_TILE``-square tiles, so it is finite and
symmetric by construction and is not checked again.

Shot-based entries may leave [0, 1], and a shot-based Gram may be
indefinite; neither is repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .statevec import (
    FeatureMapConfig,
    apply_local,
    born_counts,
    encode_iqp,
    pair_gates,
    sample_haar_setting,
)

__all__ = [
    "KernelConfig",
    "GramMatrix",
    "SignatureCache",
    "TrainingSet",
    "DegenerateSignatureError",
    "KERNEL_KINDS",
    "check_point_set",
    "collect_signature",
    "rm_purity",
    "rbf_auto_gamma",
    "build_gram_train",
    "build_gram_cross",
]

KERNEL_KINDS = ("exact", "inversion_test", "randomized", "rbf")

_MAX_ARRAY_BYTES = 2**30
_TILE = 256
_BLOCK_BYTES = 2**24
_PANEL = 8


class DegenerateSignatureError(ValueError):
    """A measurement record yielded an unusable (nonpositive) purity estimate."""


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix plus bookkeeping of how many circuit runs produced it.

    The constructor checks a caller's entries: real, finite, a matrix, and
    square and equal to their transpose when ``symmetric``.  Training Grams
    skip it: :func:`_mirrored_gram` makes them so by construction.
    """

    entries: np.ndarray
    symmetric: bool
    eval_count: int

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.entries):
            raise ValueError("Gram entries must be real, got complex entries")
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"entries must be a matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("Gram entries must be finite")
        if self.symmetric:
            if entries.shape[0] != entries.shape[1]:
                raise ValueError("symmetric Gram must be square")
            if not all(
                np.array_equal(entries[cols, rows], entries[rows, cols].T)
                for rows, cols in _upper_tiles(len(entries))
            ):
                raise ValueError("symmetric flag set but entries differ from transpose")
        object.__setattr__(self, "entries", entries)

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class KernelConfig:
    """Which kernel to evaluate and the shot budgets to spend on it."""

    kind: str
    feature_map: FeatureMapConfig = FeatureMapConfig()
    it_shots: int = 1000
    rm_settings: int = 30
    rm_shots: int = 9000
    mitigate: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}")
        if self.it_shots < 1 or self.rm_shots < 1:
            raise ValueError("shot counts must be >= 1")
        if self.kind == "randomized" and self.rm_settings < 2:
            raise ValueError("randomized kernel needs rm_settings >= 2")
        if self.kind == "randomized" and self.rm_shots < 2:
            raise ValueError("randomized kernel needs rm_shots >= 2 to estimate purities")


@dataclass(frozen=True)
class SignatureCache:
    """Measurement settings and per-point shot counts persisted from training.

    ``counts[i, m, s]`` is the number of the kernel config's ``rm_shots``
    shots of point ``i`` under setting ``m`` that produced basis state
    ``s``.  Prediction-time kernels against the training set must reuse
    exactly these settings, so the cache travels with the fitted model.
    """

    settings: np.ndarray  # (r, d, 2, 2) complex
    counts: np.ndarray  # (n, r, 2^d) int64
    purities: np.ndarray


@dataclass(frozen=True)
class TrainingSet:
    """A training point set together with the kernel and row width that built it.

    ``points`` is what :func:`build_gram_cross` compares test points with:
    the rows for rbf, the ``(n, 2^d)`` feature states for the pairwise kinds
    and the :class:`SignatureCache` for the randomized kind.
    """

    kernel: KernelConfig
    points: np.ndarray | SignatureCache
    num_features: int


# ---------------------------------------------------------------------------
# symmetric matrices by tiles
# ---------------------------------------------------------------------------


def _upper_tiles(n: int) -> list[tuple[slice, slice]]:
    """``(rows, cols)`` slices of the ``_TILE``-square tiles on and above an n x n diagonal."""
    starts = range(0, n, _TILE)
    return [(slice(i, i + _TILE), slice(j, j + _TILE)) for i in starts for j in starts if j >= i]


def _mirror_upper(m: np.ndarray) -> None:
    """Copy the strict upper triangle of the square ``m`` into its lower one, in place, by tiles.

    An off-diagonal tile below the diagonal gets its upper partner's transpose.
    A diagonal tile gets only its strict lower part written: a block that is not
    symmetric in floating point must keep its own upper part.
    """
    for rows, cols in _upper_tiles(len(m)):
        if rows == cols:
            tile = m[rows, cols]
            np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
        else:
            m[cols, rows] = m[rows, cols].T


def _mirrored_gram(upper: np.ndarray, diagonal: np.ndarray | float, eval_count: int) -> GramMatrix:
    """``upper`` mirrored in place, with the finite ``diagonal``, as a symmetric :class:`GramMatrix`.

    ``upper`` is a square :func:`_kernel_block` output, whose bands were checked
    for finite entries, so the result is finite and exactly symmetric by
    construction and skips the n^2 checks of the public constructor.
    """
    _mirror_upper(upper)
    np.fill_diagonal(upper, diagonal)
    gram = object.__new__(GramMatrix)
    vars(gram).update(entries=upper, symmetric=True, eval_count=eval_count)
    return gram


# ---------------------------------------------------------------------------
# randomized measurements
# ---------------------------------------------------------------------------


def collect_signature(
    state: np.ndarray,
    paired_settings: list[tuple[np.ndarray, ...]],
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure one feature state in every setting, given in :func:`pair_gates` form.

    Returns the ``(r, 2^d)`` shot counts, one row per setting.  The same
    settings must be shared by all points entering one kernel matrix;
    the caller owns that contract.
    """
    if len(paired_settings) == 0:
        raise ValueError("at least one measurement setting is required")
    counts = np.empty((len(paired_settings), len(state)), dtype=np.int64)
    for m, pairs in enumerate(paired_settings):
        counts[m] = born_counts(apply_local(state, pairs), shots, rng)
    return counts


@lru_cache(maxsize=16)
def _hamming_factor(num_qubits: int) -> np.ndarray:
    """Cached (-2)**(-H(s, s')) table over ``num_qubits`` qubits: an exact Kronecker power."""
    table = reduce(np.kron, [np.array([[1.0, -0.5], [-0.5, 1.0]])] * num_qubits, np.ones((1, 1)))
    table.setflags(write=False)
    return table


def _hamming_weighted(f: np.ndarray) -> np.ndarray:
    """``f @ C`` over the last axis of ``f``, for the ``2^d x 2^d`` Hamming table C.

    C is the Kronecker product of the (symmetric) tables over the ``d // 2``
    leading and the other trailing qubits, so each is applied on its own axis.
    """
    d = f.shape[-1].bit_length() - 1
    hi, lo = d // 2, d - d // 2
    rows = f.reshape(-1, 2**lo) @ _hamming_factor(lo)
    return np.matmul(_hamming_factor(hi), rows.reshape(-1, 2**hi, 2**lo)).reshape(f.shape)


def rm_purity(counts: np.ndarray, shots: int) -> float:
    """Bias-corrected purity estimate of one point's ``(r, 2^d)`` shot counts.

    Uses the U-statistic over distinct shot pairs within each setting,
    ``sum_{s,s'} (-2)^(-H) (c_s c_s' - delta_{ss'} c_s) / (shots (shots-1))``,
    which removes the O(1/shots) self-pair bias of the plug-in estimator.
    """
    if shots < 2:
        raise ValueError("purity estimation needs at least 2 shots per setting")
    dim = counts.shape[-1]
    if counts.ndim != 2 or dim != 2 ** (dim.bit_length() - 1):
        raise ValueError(f"counts must have shape (r, 2**d), got {counts.shape}")
    c = counts.astype(float)
    quad = np.einsum("mi,mi->m", _hamming_weighted(c), c)
    # the delta term only touches the table's diagonal, which is all ones
    per_setting = (quad - c.sum(axis=1)) / (shots * (shots - 1.0))
    return float(dim * per_setting.mean())


# ---------------------------------------------------------------------------
# classical baseline
# ---------------------------------------------------------------------------


def rbf_auto_gamma(X_train: np.ndarray) -> float:
    """Data-driven bandwidth ``1 / (d * Var(X_train))`` over all entries."""
    X_train = np.asarray(X_train, dtype=float)
    var = float(X_train.var())
    d = X_train.shape[1]
    if var <= 0:
        return 1.0 / d
    return 1.0 / (d * var)


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def check_point_set(cfg: KernelConfig, n: int, d: int) -> None:
    """Reject ``n`` points of ``d`` features whose largest quantum array would exceed 1 GiB.

    Nothing is checked for rbf.  The largest array is the ``(n, r, 2^d)``
    int64 counts of the randomized kind (its Hamming tables hold at most
    ``2^(d+1)`` entries) or the ``(n, 2^d)`` complex states of the pairwise
    kinds, unless the ``(2^d, d)`` float basis-sign table is larger.
    """
    if cfg.kind == "rbf":
        return
    if cfg.kind == "randomized":
        point_set = (8 * n * cfg.rm_settings * 2**d, "(n, r, 2^d) int64 counts")
    else:
        point_set = (16 * n * 2**d, "(n, 2^d) complex feature states")
    nbytes, what = max(point_set, (8 * 2**d * d, "(2^d, d) basis-sign table"))
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"the {cfg.kind} kernel at d={d} qubits and n={n} points needs {nbytes} bytes "
            f"for its {what}, more than the {_MAX_ARRAY_BYTES}-byte limit"
        )


def _represent(
    X: np.ndarray,
    cfg: KernelConfig,
    rng: np.random.Generator | None,
    purities: bool,
    settings: np.ndarray | None = None,
) -> np.ndarray | SignatureCache:
    """The point set :func:`_kernel_block` reads for the rows of ``X``.

    That is the rows themselves for rbf and their ``(n, 2^d)`` feature states
    for the pairwise kinds, encoded in one call.  The randomized kind measures
    those states in ``settings`` (``cfg.rm_settings`` fresh ones drawn from
    ``rng`` when ``None``), paired once for all points, and returns their
    :class:`SignatureCache`.  Without
    ``purities`` its purity estimates are left NaN; only mitigation and the
    unmitigated training diagonal read them.  A row with a non-finite feature
    is rejected first, for every kind, with the band checks' message.
    """
    n, d = X.shape
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"Gram entries must be finite; row {bad[0]} has a non-finite feature")
    check_point_set(cfg, n, d)
    if cfg.kind == "rbf":
        return X
    states = encode_iqp(X, cfg.feature_map)
    if cfg.kind != "randomized":
        return states
    if settings is None:
        settings = np.stack([sample_haar_setting(d, rng) for _ in range(cfg.rm_settings)])
    paired = [pair_gates(setting) for setting in settings]
    shots = cfg.rm_shots
    # one child stream per point, derived serially, so blocks of points could
    # be collected concurrently without changing any outcome
    seeds = rng.integers(0, 2**63 - 1, size=n)
    counts = np.empty((n, len(settings), 2**d), dtype=np.int64)
    for i, (state, seed) in enumerate(zip(states, seeds.tolist())):
        counts[i] = collect_signature(state, paired, shots, np.random.default_rng(seed))
    if not purities:
        return SignatureCache(settings, counts, np.full(n, np.nan))
    estimates = np.array([rm_purity(c, shots) for c in counts])
    if cfg.mitigate and np.any(estimates <= 0):
        bad = int(np.argmax(estimates <= 0))
        raise DegenerateSignatureError(
            f"point {bad} has nonpositive purity estimate {float(estimates[bad])}; "
            "its signature is unusable for mitigation"
        )
    return SignatureCache(settings, counts, estimates)


def _bands(n: int, row_bytes: int, upper: bool) -> list[tuple[slice, slice]]:
    """``(rows, cols)`` of the bands of an n-row block, ``_BLOCK_BYTES // row_bytes`` rows each.

    The last band also takes a 1-row remainder, unless every band has one row.

    With ``upper`` a band's columns start at its first row's multiple of
    ``_PANEL``: that covers the upper triangle, and a complex GEMM computes a
    band starting on a panel boundary bit for bit as the full-width product.
    """
    step = max(1, _BLOCK_BYTES // row_bytes)
    # numpy runs a 1-row product as a matrix-vector product, which rounds differently
    starts = [i for i in range(0, n, step) if step == 1 or i == 0 or i != n - 1]
    ends = starts[1:] + [n]
    return [(slice(i, j), slice(i - i % _PANEL if upper else 0, None)) for i, j in zip(starts, ends)]


def _kernel_block(
    cfg: KernelConfig, a: np.ndarray | SignatureCache, b: np.ndarray | SignatureCache
) -> np.ndarray:
    """Kernel values between two point sets, before shot noise, filled by row bands.

    Both sets are :func:`_represent` outputs, and a band with a non-finite
    entry raises ``ValueError``.  rbf adds one feature's squared
    differences at a time, in feature order, into the band through a scratch
    band of the same shape, and builds no ``(rows, m, d)`` tensor.  The same
    object twice makes a training block, which fills only its upper triangle
    and diagonal, except for the randomized kind: its real GEMM rounds a
    product's last, partial column panel by the product's width, so it fills
    every column.
    """
    rm = cfg.kind == "randomized"
    n, m = (len(a.counts), len(b.counts)) if rm else (len(a), len(b))
    if cfg.kind == "rbf":
        # feature-major copies; bands of 1/32 the budget keep a band and its
        # scratch in cache through the d passes
        gamma, row_bytes = rbf_auto_gamma(b), 32 * 8 * m
        b_t = np.ascontiguousarray(b.T)
        a_t = b_t if a is b else np.ascontiguousarray(a.T)
    elif rm:
        _, r, dim = a.counts.shape
        flat_b = (b.counts / float(cfg.rm_shots)).reshape(m, r * dim).T
        row_bytes = 8 * r * dim  # the weighted frequencies
    else:
        row_bytes = 16 * m  # the complex overlaps
    out = np.empty((n, m))
    for rows, cols in _bands(n, row_bytes, upper=a is b and not rm):
        band = out[rows, cols]
        if cfg.kind == "rbf":
            scratch = np.empty(band.shape)
            for k in range(len(b_t)):
                term = scratch if k else band
                np.subtract(a_t[k, rows, None], b_t[None, k, cols], out=term)
                np.square(term, out=term)
                if k:
                    band += scratch
            band *= -gamma
            np.exp(band, out=band)
        elif rm:
            # the (setting, outcome)-flattened frequencies, Hamming-weighted, in one GEMM
            freqs = a.counts[rows] / float(cfg.rm_shots)
            raw = _hamming_weighted(freqs).reshape(len(freqs), r * dim) @ flat_b[:, cols]
            np.divide(dim * raw, r, out=band)
            if cfg.mitigate:
                band /= np.sqrt(np.outer(a.purities[rows], b.purities[cols]))
        else:
            # squared overlaps: exact, and the inversion test's all-zeros probabilities
            np.clip(np.abs(a[rows].conj() @ b[cols].T) ** 2, 0.0, 1.0, out=band)
        if not np.isfinite(band).all():
            raise ValueError("Gram entries must be finite")
    return out


def _shot_noise(cfg: KernelConfig, fidelity: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inversion-test estimates of the given fidelities, one binomial draw each.

    The test counts all-zeros outcomes, whose probability is the fidelity.
    """
    return rng.binomial(cfg.it_shots, fidelity) / cfg.it_shots


def _eval_count(cfg: KernelConfig, points: int, pairs: int) -> int:
    """Kernel evaluations a Gram over ``points`` row points and ``pairs`` point pairs costs.

    The pairwise kinds run one circuit per pair, randomized measurements one
    per (row point, setting), and the classical baseline none.
    """
    if cfg.kind == "rbf":
        return 0
    if cfg.kind == "randomized":
        return points * cfg.rm_settings
    return pairs


def build_gram_train(
    X: np.ndarray,
    cfg: KernelConfig,
    rng: np.random.Generator,
) -> tuple[GramMatrix, TrainingSet]:
    """Symmetric training kernel matrix for the configured strategy.

    Returns the Gram matrix together with the :class:`TrainingSet` that
    :func:`build_gram_cross` reads at prediction time.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"expected an (n, d) matrix with n >= 2, got shape {X.shape}")
    n, d = X.shape
    train = _represent(X, cfg, rng, purities=True)
    entries = _kernel_block(cfg, train, train)
    if cfg.kind == "inversion_test":
        # one estimate per unordered pair, drawn row by row in row-major upper order
        for i in range(n - 1):
            entries[i, i + 1 :] = _shot_noise(cfg, entries[i, i + 1 :], rng)
    # binomial draws of finite fidelities are finite, and so are purities: the
    # block's band checks cover the whole Gram.  Unmitigated RM keeps its
    # purity estimates on the diagonal.
    unmitigated_rm = cfg.kind == "randomized" and not cfg.mitigate
    diagonal = train.purities if unmitigated_rm else 1.0
    gram = _mirrored_gram(entries, diagonal, _eval_count(cfg, n, n * (n - 1) // 2))
    return gram, TrainingSet(cfg, train, d)


def build_gram_cross(
    X_test: np.ndarray,
    train: TrainingSet,
    rng: np.random.Generator,
) -> GramMatrix:
    """Prediction kernel matrix of shape (len(X_test), training points).

    ``train`` is the :class:`TrainingSet` :func:`build_gram_train` returned, and
    its kernel config is the one applied, so only the test points are encoded
    or measured (the randomized kind measures them in the cached settings).
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2:
        raise ValueError(f"expected a (t, d) test matrix, got shape {X_test.shape}")
    if not isinstance(train, TrainingSet):
        raise TypeError(f"train must be a TrainingSet, got {type(train).__name__}")
    if X_test.shape[1] != train.num_features:
        raise ValueError(
            f"the test rows have {X_test.shape[1]} features, "
            f"the training set was built from {train.num_features}"
        )
    cfg, points = train.kernel, train.points
    settings = points.settings if cfg.kind == "randomized" else None
    test = _represent(X_test, cfg, rng, purities=cfg.mitigate, settings=settings)
    entries = _kernel_block(cfg, test, points)
    if cfg.kind == "inversion_test":
        entries = _shot_noise(cfg, entries, rng)
    t, n = entries.shape
    return GramMatrix(entries=entries, symmetric=False, eval_count=_eval_count(cfg, t, t * n))
