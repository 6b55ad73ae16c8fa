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
qubit count is read from the data, and a cross kernel checks that its test
rows match the training set's width before any encoding or measurement.
Randomized-measurement post-processing is vectorized over a cached
``(-2)**(-H)`` coefficient table of size ``2^d x 2^d``, so it stays cheap for
the qubit counts this package targets (d up to roughly 12); point sets whose
arrays would exceed 1 GiB are rejected before any encoding or measurement.

Shot-based entries may leave [0, 1], and a shot-based Gram may be
indefinite; neither is repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import (
    FeatureMapConfig,
    apply_local,
    born_counts,
    encode_iqp,
    sample_haar_setting,
)

__all__ = [
    "KernelConfig",
    "GramMatrix",
    "SignatureCache",
    "DegenerateSignatureError",
    "KERNEL_KINDS",
    "check_rm_table",
    "collect_signature",
    "rm_purity",
    "rbf_auto_gamma",
    "eval_count",
    "build_gram_train",
    "build_gram_cross",
]

KERNEL_KINDS = ("exact", "inversion_test", "randomized", "rbf")

_MAX_ARRAY_BYTES = 2**30
_DIST_BLOCK_ROWS = 256


class DegenerateSignatureError(ValueError):
    """A measurement record yielded an unusable (nonpositive) purity estimate."""


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix plus bookkeeping of how many circuit runs produced it."""

    entries: np.ndarray
    symmetric: bool
    eval_count: int

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"entries must be a matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("Gram entries must be finite")
        if self.symmetric:
            if entries.shape[0] != entries.shape[1]:
                raise ValueError("symmetric Gram must be square")
            if not np.array_equal(entries, entries.T):
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

    ``counts[i, m, s]`` is the number of the ``shots`` shots of point ``i``
    under setting ``m`` that produced basis state ``s``.  Prediction-time
    kernels against the training set must reuse exactly these settings, so
    the cache travels with the fitted model.
    """

    settings: np.ndarray  # (r, d, 2, 2) complex
    counts: np.ndarray  # (n, r, 2^d) int64
    shots: int
    purities: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.settings.shape[1]


# ---------------------------------------------------------------------------
# randomized measurements
# ---------------------------------------------------------------------------


def collect_signature(
    x: np.ndarray,
    fm: FeatureMapConfig,
    settings: np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure the feature-map state of ``x`` in every setting of an (r, d, 2, 2) array.

    ``x`` has one feature per qubit of the settings.  Returns the
    ``(r, 2^d)`` shot counts, one row per setting.  The same
    settings must be shared by all points entering one kernel matrix;
    the caller owns that contract.
    """
    if len(settings) == 0:
        raise ValueError("at least one measurement setting is required")
    state = encode_iqp(x, fm)
    counts = np.empty((len(settings), len(state)), dtype=np.int64)
    for m, st in enumerate(settings):
        counts[m] = born_counts(apply_local(state, st), shots, rng)
    return counts


def check_rm_table(num_qubits: int) -> None:
    """Raise ``ValueError`` if the coefficient table for ``num_qubits`` qubits exceeds 1 GiB."""
    nbytes = 8 * 4**num_qubits
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"the randomized-measurement coefficient table for {num_qubits} qubits "
            f"needs {nbytes} bytes, more than the {_MAX_ARRAY_BYTES}-byte limit"
        )


@lru_cache(maxsize=8)
def _coefficient_matrix(num_qubits: int) -> np.ndarray:
    """Cached table C[s, s'] = (-2)**(-H(s, s')) over all basis-state pairs.

    Raises ``ValueError`` before allocating a table larger than 1 GiB.
    """
    check_rm_table(num_qubits)
    dim = 2**num_qubits
    idx = np.arange(dim)
    popcount = sum((idx >> q) & 1 for q in range(num_qubits))
    coeff = ((-0.5) ** np.arange(num_qubits + 1))[popcount[idx[:, None] ^ idx[None, :]]]
    coeff.setflags(write=False)
    return coeff


def rm_purity(counts: np.ndarray, shots: int) -> float:
    """Bias-corrected purity estimate of one point's ``(r, 2^d)`` shot counts.

    Uses the U-statistic over distinct shot pairs within each setting,
    ``sum_{s,s'} (-2)^(-H) (c_s c_s' - delta_{ss'} c_s) / (shots (shots-1))``,
    which removes the O(1/shots) self-pair bias of the plug-in estimator.
    """
    if shots < 2:
        raise ValueError("purity estimation needs at least 2 shots per setting")
    dim = counts.shape[-1]
    num_qubits = dim.bit_length() - 1
    if counts.ndim != 2 or dim != 2**num_qubits:
        raise ValueError(f"counts must have shape (r, 2**d), got {counts.shape}")
    coeff = _coefficient_matrix(num_qubits)
    c = counts.astype(float)
    quad = np.einsum("mi,mi->m", c @ coeff, c)
    # the delta term only touches the coefficient diagonal, which is all ones
    per_setting = (quad - c.sum(axis=1)) / (shots * (shots - 1.0))
    return float(dim * per_setting.mean())


def _rm_raw_matrix(freqs_a: np.ndarray, freqs_b: np.ndarray) -> np.ndarray:
    """All-pairs raw randomized-measurement estimates, averaged over settings."""
    n, r, dim = freqs_a.shape
    coeff = _coefficient_matrix(dim.bit_length() - 1)
    acc = np.zeros((n, freqs_b.shape[0]))
    for m in range(r):
        acc += (freqs_a[:, m, :] @ coeff) @ freqs_b[:, m, :].T
    return dim * acc / r


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


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``A`` and ``B``.

    Filled in blocks of rows, so the difference tensor is at most
    ``(_DIST_BLOCK_ROWS, len(B), d)`` instead of ``(len(A), len(B), d)``.
    """
    out = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], _DIST_BLOCK_ROWS):
        stop = start + _DIST_BLOCK_ROWS
        diff = A[start:stop, None, :] - B[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:stop])
    return out


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def _check_array_bytes(cfg: KernelConfig, n: int, d: int) -> None:
    """Reject ``n`` points of ``d`` features whose largest quantum array would exceed 1 GiB.

    That array is the ``(n, r, 2^d)`` int64 counts of the randomized kind or
    the ``(n, 2^d)`` complex states of the pairwise kinds, unless the
    ``(2^d, d)`` float basis-sign table that every encoding builds is larger.
    """
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
    for the pairwise kinds.  The randomized kind measures the rows in
    ``settings`` (``cfg.rm_settings`` fresh ones drawn from ``rng`` when
    ``None``) and returns their :class:`SignatureCache`.  Without
    ``purities`` its purity estimates are left NaN; only mitigation and the
    unmitigated training diagonal read them.
    """
    if cfg.kind == "rbf":
        return X
    n, d = X.shape
    _check_array_bytes(cfg, n, d)
    if cfg.kind != "randomized":
        return np.stack([encode_iqp(x, cfg.feature_map) for x in X])
    _coefficient_matrix(d)  # fail on a table that cannot fit before measuring
    if settings is None:
        settings = np.stack([sample_haar_setting(d, rng) for _ in range(cfg.rm_settings)])
    shots = cfg.rm_shots
    # one child stream per point, derived serially, so per-point collection
    # could run concurrently without changing any outcome
    seeds = rng.integers(0, 2**63 - 1, size=n)
    counts = np.empty((n, len(settings), 2**d), dtype=np.int64)
    for i, (x, seed) in enumerate(zip(X, seeds.tolist())):
        point_rng = np.random.default_rng(seed)
        counts[i] = collect_signature(x, cfg.feature_map, settings, shots, point_rng)
    if not purities:
        return SignatureCache(settings, counts, shots, np.full(n, np.nan))
    estimates = np.array([rm_purity(c, shots) for c in counts])
    if cfg.mitigate and np.any(estimates <= 0):
        bad = int(np.argmax(estimates <= 0))
        raise DegenerateSignatureError(
            f"point {bad} has nonpositive purity estimate {estimates[bad]!r}; "
            "its signature is unusable for mitigation"
        )
    return SignatureCache(settings, counts, shots, estimates)


def _check_train(cfg: KernelConfig, train: np.ndarray | SignatureCache, width: int) -> None:
    """Reject a training point set that ``cfg`` would not have built.

    ``width`` is the feature count of the test rows; the training set must
    have been built from rows of the same width.
    """
    if cfg.kind == "randomized":
        if not isinstance(train, SignatureCache):
            raise ValueError(
                "randomized cross kernel requires the training signature cache, "
                f"got {type(train).__name__}"
            )
        if train.num_qubits != width:
            raise ValueError(
                f"cache encodes {train.num_qubits} qubits, the test rows have {width} features"
            )
        if len(train.settings) != cfg.rm_settings:
            raise ValueError(
                f"cache holds {len(train.settings)} settings, config expects {cfg.rm_settings}"
            )
        if cfg.mitigate and np.any(train.purities <= 0):
            raise DegenerateSignatureError("training signature cache holds a nonpositive purity")
        return
    if cfg.kind == "rbf":
        what, cols = "rows", width
    else:
        what, cols = "feature states", 2**width
    if np.ndim(train) != 2 or np.shape(train)[1] != cols:
        raise ValueError(
            f"{cfg.kind} cross kernel on {width}-feature test rows expects training {what} "
            f"of shape (n, {cols}), got {np.shape(train)}"
        )


def _kernel_block(
    cfg: KernelConfig, a: np.ndarray | SignatureCache, b: np.ndarray | SignatureCache
) -> np.ndarray:
    """Kernel values between two point sets, before shot noise and mirroring.

    Both sets are :func:`_represent` outputs.  Pass the same object twice for
    a training block.
    """
    if cfg.kind == "rbf":
        scaled = _pairwise_sq_dists(a, b)
        scaled *= -rbf_auto_gamma(b)
        return np.exp(scaled, out=scaled)
    if cfg.kind == "randomized":
        freqs_a = a.counts / float(a.shots)
        freqs_b = freqs_a if b is a else b.counts / float(b.shots)
        raw = _rm_raw_matrix(freqs_a, freqs_b)
        if not cfg.mitigate:
            return raw
        return raw / np.sqrt(np.outer(a.purities, b.purities))
    # squared overlaps: exact, and the inversion test's all-zeros probabilities
    return np.clip(np.abs(a.conj() @ b.T) ** 2, 0.0, 1.0)


def _shot_noise(cfg: KernelConfig, fidelity: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inversion-test estimates of the given fidelities, one binomial draw each.

    The test counts all-zeros outcomes, whose probability is the fidelity.
    """
    return rng.binomial(cfg.it_shots, fidelity) / cfg.it_shots


def eval_count(cfg: KernelConfig, points: int, pairs: int) -> int:
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
) -> tuple[GramMatrix, np.ndarray | SignatureCache]:
    """Symmetric training kernel matrix for the configured strategy.

    Returns the Gram matrix together with the training point set that
    :func:`build_gram_cross` reads at prediction time: the rows for rbf, the
    ``(n, 2^d)`` feature states for the pairwise kinds, and the
    :class:`SignatureCache` for the randomized kind.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"expected an (n, d) matrix with n >= 2, got shape {X.shape}")
    n = X.shape[0]
    train = _represent(X, cfg, rng, purities=True)
    block = _kernel_block(cfg, train, train)
    if cfg.kind == "inversion_test":
        # one estimate per unordered pair, drawn in row-major upper order
        iu, ju = np.triu_indices(n, k=1)
        block[iu, ju] = _shot_noise(cfg, block[iu, ju], rng)
    # mirror the strict upper triangle, so the result is exactly symmetric
    entries = np.triu(block, 1)
    del block  # free it before the transpose copy below, lowering peak memory
    entries += entries.T
    # unmitigated RM keeps its purity estimates on the diagonal
    unmitigated_rm = cfg.kind == "randomized" and not cfg.mitigate
    np.fill_diagonal(entries, train.purities if unmitigated_rm else 1.0)
    evals = eval_count(cfg, n, n * (n - 1) // 2)
    return GramMatrix(entries=entries, symmetric=True, eval_count=evals), train


def build_gram_cross(
    X_test: np.ndarray,
    train: np.ndarray | SignatureCache,
    cfg: KernelConfig,
    rng: np.random.Generator | None = None,
) -> GramMatrix:
    """Prediction kernel matrix of shape (len(X_test), training points).

    ``train`` is the point set :func:`build_gram_train` returned, so only the
    test points are encoded or measured (the randomized kind measures them in
    the cached settings).  The shot-based strategies need ``rng``.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2:
        raise ValueError(f"expected a (t, d) test matrix, got shape {X_test.shape}")
    _check_train(cfg, train, X_test.shape[1])
    if rng is None and cfg.kind not in ("exact", "rbf"):
        raise ValueError(f"kernel kind {cfg.kind!r} needs an rng for shot sampling")
    settings = train.settings if cfg.kind == "randomized" else None
    test = _represent(X_test, cfg, rng, purities=cfg.mitigate, settings=settings)
    entries = _kernel_block(cfg, test, train)
    if cfg.kind == "inversion_test":
        entries = _shot_noise(cfg, entries, rng)
    t, n = entries.shape
    return GramMatrix(entries=entries, symmetric=False, eval_count=eval_count(cfg, t, t * n))

