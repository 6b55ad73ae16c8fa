"""Kernel evaluation strategies and Gram matrix assembly.

Four interchangeable ways to fill a kernel matrix:

* ``exact``          - noiseless squared overlap of simulated states.
* ``inversion_test`` - frequency of the all-zeros outcome after running the
  encoding circuit for one point followed by the adjoint circuit for the
  other; an unbiased shot-noise estimator of the exact value.
* ``randomized``     - one measurement record per data point in ``r`` shared
  random local bases, combined pairwise by Hamming-weighted cross
  correlations; optional purity-based mitigation.  A point set's ``r``
  settings are one stack, drawn and multiplied out into Kronecker factors in
  one call each.  The points are measured as a stream of blocks: each
  (point, setting) of a block is rotated on the calling thread into the
  block's buffer while other cores draw the shots of the block before, one
  draw per point from the point's own child seed.
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
size.  Each band is checked for finite entries while it is in cache.
Every Gram the package builds is finished in :func:`_gram`, which copies a
training Gram's strict upper triangle into its lower one, in place, in
``_TILE``-square tiles, and skips the public constructor's checks.

Four steps run in contiguous chunks on every core of the affinity mask,
through :func:`statevec._on_every_core`: the randomized kind's frequency
table, the mirror tiles of every kind, the bands of every kind and the
encoding's row blocks.  The last two call BLAS in the matrix-product kinds
(exact, inversion test, randomized) and in the encoding, and a step that
calls BLAS spreads only while numpy's OpenBLAS runs one thread; otherwise it
stays on the calling thread, because a BLAS that runs more would
oversubscribe the cores.  Each chunk runs the same operations on its own
slice of the output, so no entry depends on the number of threads.  Born
sampling spreads as a stream (:func:`statevec.born_counts`): pool threads
draw the points of one block while the calling thread rotates the next, and
each point's counts depend only on its own seed.  No function that
perfbench traces runs on a pool thread: encoding, each (point, setting)
rotation, Born sampling, signature collection and purity are called on the
calling thread, and only their insides spread.  A rotation call holds the
GIL, so the rotations would not gain on pool threads either
(:func:`collect_signature`).  Nothing here forks.  A step that gets one
worker runs in the calling thread: on a one-core mask, and in the forked
worker of a ``--parallel`` seed or a VS component, whose BLAS is pinned to
one thread; there a block is rotated and then drawn, block by block.

Shot-based entries may leave [0, 1], and a shot-based Gram may be
indefinite; neither is repaired.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .statevec import (
    _BLOCK_BYTES,
    FeatureMapConfig,
    _on_every_core,
    apply_local,
    born_counts,
    encode_iqp,
    local_factors,
    sample_haar_settings,
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
# numpy draws shot counts as int64
_MAX_SHOTS = 2**63 - 1
_TILE = 256
_PANEL = 8


class DegenerateSignatureError(ValueError):
    """A measurement record yielded an unusable (nonpositive) purity estimate."""


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix plus bookkeeping of how many circuit runs produced it.

    The constructor checks a caller's entries: real, finite, a matrix, and
    square and equal to their transpose when ``symmetric``.
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
        for name in ("it_shots", "rm_shots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) > _MAX_SHOTS:
                raise ValueError(f"{name} must be <= 2**63 - 1, got {getattr(self, name)}")
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
    symmetric in floating point must keep its own upper part.  Each tile reads
    only upper entries and writes only its own lower ones, so contiguous chunks
    of the tiles are copied on every core, the calling thread taking the first.
    """
    tiles = _upper_tiles(len(m))

    def copy(chunk: range) -> None:
        for rows, cols in (tiles[i] for i in chunk):
            if rows == cols:
                tile = m[rows, cols]
                np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
            else:
                m[cols, rows] = m[rows, cols].T

    _on_every_core(copy, len(tiles))


# ---------------------------------------------------------------------------
# randomized measurements
# ---------------------------------------------------------------------------


def collect_signature(
    states: np.ndarray,
    factors: tuple[np.ndarray, ...],
    shots: int,
    rngs: Sequence[np.random.Generator | int],
) -> np.ndarray:
    """Measure a ``(points, 2^d)`` stack of feature states in every setting.

    ``factors`` is the :func:`local_factors` form of an ``(r, d, 2, 2)``
    settings stack and ``rngs`` holds one generator or seed per state.  The
    states are rotated in blocks whose ``(points, r, 2^d)`` amplitudes hold
    about half of ``_BLOCK_BYTES``, each (point, setting) by its own
    :func:`apply_local` call straight into its row of the block.
    :func:`born_counts` takes the blocks as a stream on the calling thread
    and draws each block's shot counts, one row per setting, while the next
    block is rotated, so at most two blocks are held at once.  The rotations
    stay on the calling thread, because perfbench traces each call and its
    tracer is not thread-safe, and because each call holds the GIL, so more
    threads only slow them: on a 2-core host, a d=10 block of 34 points took
    22.0 ms on the calling thread and 39.6 ms spread over 2 threads.
    The same settings must be shared by all points entering one kernel
    matrix; the caller owns that contract.
    """
    per_setting = list(zip(*factors))
    if not per_setting:
        raise ValueError("at least one measurement setting is required")
    shape = (len(per_setting), states.shape[-1])
    # two blocks are held at once: one drawn while the next is rotated
    step = max(1, _BLOCK_BYTES // (2 * 16 * shape[0] * shape[1]))

    def rotated():
        for start in range(0, len(states), step):
            block = states[start : start + step]
            amps = np.empty((len(block),) + shape, dtype=complex)
            for state, rows in zip(block, amps):
                for setting, row in zip(per_setting, rows):
                    apply_local(state, setting, out=row)
            yield amps

    return born_counts(rotated(), shots, rngs)


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
    train: np.ndarray | SignatureCache | None = None,
) -> np.ndarray | SignatureCache:
    """The point set :func:`_kernel_block` reads for the rows of ``X``.

    That is the rows themselves for rbf and their ``(n, 2^d)`` feature states
    for the pairwise kinds, encoded in one call.  The randomized kind measures
    those states in one :func:`collect_signature` call, one child seed per
    point, and returns their :class:`SignatureCache`.  A training
    set (``train`` is ``None``) draws ``cfg.rm_settings`` settings from ``rng``
    and estimates purities.  A test set is measured in the settings of
    ``train``, its training point set, and estimates purities only under
    mitigation, leaving them NaN otherwise.  A row with a non-finite feature
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
    settings = sample_haar_settings(cfg.rm_settings, d, rng) if train is None else train.settings
    factors = local_factors(settings)
    shots = cfg.rm_shots
    # one child seed per point, derived serially, so the points are sampled
    # concurrently without changing any outcome
    seeds = rng.integers(0, 2**63 - 1, size=n).tolist()
    counts = collect_signature(states, factors, shots, seeds)
    if train is not None and not cfg.mitigate:
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

    Contiguous chunks of the bands are filled on every core, the calling
    thread taking the first, by :func:`statevec._on_every_core`: rbf's
    always, since they call no BLAS, and the GEMM kinds' only while numpy's
    OpenBLAS runs one thread.  rbf's bandwidth and feature-major copies are
    made on the calling thread first, and the randomized kind's frequency
    table in contiguous chunks of rows on every core, since the division
    calls no BLAS; a randomized training block reads its rows' frequencies
    from that table.  Each band runs the same operations on its own slice of the
    output, so no entry depends on the number of threads.
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
        table = np.empty(b.counts.shape)

        def frequencies(chunk: range) -> None:
            rows = slice(chunk.start, chunk.stop)
            np.divide(b.counts[rows], float(cfg.rm_shots), out=table[rows])

        _on_every_core(frequencies, m)
        flat_b = table.reshape(m, r * dim).T
        row_bytes = 8 * r * dim  # the weighted frequencies
    else:
        row_bytes = 16 * m  # the complex overlaps
    out = np.empty((n, m))
    bands = _bands(n, row_bytes, upper=a is b and not rm)

    def fill(chunk: range) -> None:
        for rows, cols in (bands[i] for i in chunk):
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
                # a training block's rows are in the table above: no second pass over the counts
                freqs = (flat_b.T[rows].reshape(-1, r, dim) if a is b
                         else a.counts[rows] / float(cfg.rm_shots))
                raw = _hamming_weighted(freqs).reshape(len(freqs), r * dim) @ flat_b[:, cols]
                np.divide(dim * raw, r, out=band)
                if cfg.mitigate:
                    band /= np.sqrt(np.outer(a.purities[rows], b.purities[cols]))
            else:
                # squared overlaps: exact, and the inversion test's all-zeros probabilities
                np.clip(np.abs(a[rows].conj() @ b[cols].T) ** 2, 0.0, 1.0, out=band)
            if not np.isfinite(band).all():
                raise ValueError("Gram entries must be finite")

    _on_every_core(fill, len(bands), blas=cfg.kind != "rbf")
    return out


def _gram(
    cfg: KernelConfig,
    rows: np.ndarray | SignatureCache,
    cols: np.ndarray | SignatureCache,
    rng: np.random.Generator,
) -> GramMatrix:
    """The finished :class:`GramMatrix` between two :func:`_represent` outputs.

    The same object twice makes a training Gram.  The inversion test counts
    all-zeros outcomes, whose probability is the fidelity: one binomial draw
    per entry, row by row in row-major order, only above the diagonal of a
    training Gram.  A training Gram is then mirrored, and its diagonal is 1,
    or the purity estimates for unmitigated randomized measurements.  The
    block's bands were checked for finite entries, so the Gram is finite, and
    symmetric when it is a training Gram, by construction.
    """
    entries = _kernel_block(cfg, rows, cols)
    symmetric = rows is cols  # a training Gram
    n, m = entries.shape
    if cfg.kind == "inversion_test":
        for i, row in enumerate(entries):
            fidelity = row[i + 1 :] if symmetric else row
            fidelity[:] = rng.binomial(cfg.it_shots, fidelity) / cfg.it_shots
    if symmetric:
        _mirror_upper(entries)
        unmitigated_rm = cfg.kind == "randomized" and not cfg.mitigate
        np.fill_diagonal(entries, rows.purities if unmitigated_rm else 1.0)
    # one circuit per estimated pair, one per (row point, setting) for RM, none for rbf
    pairs = n * (n - 1) // 2 if symmetric else n * m
    evals = {"rbf": 0, "randomized": n * cfg.rm_settings}.get(cfg.kind, pairs)
    gram = object.__new__(GramMatrix)
    vars(gram).update(entries=entries, symmetric=symmetric, eval_count=evals)
    return gram


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
    train = _represent(X, cfg, rng)
    return _gram(cfg, train, train, rng), TrainingSet(cfg, train, X.shape[1])


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
    return _gram(cfg, _represent(X_test, cfg, rng, train=points), points, rng)
