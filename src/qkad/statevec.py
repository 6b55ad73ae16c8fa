"""Dense statevector simulation of the IQP-like data-encoding circuit.

Conventions used throughout the package:

* The circuit has one qubit per input feature, so a ``d``-dimensional
  input gives a ``d``-qubit state.
* Basis index ``s`` of a ``d``-qubit state is an integer in ``[0, 2**d)``;
  qubit 0 is the MOST significant bit of ``s``.  The bitstring form of an
  outcome is ``format(s, f"0{d}b")``, so character 0 belongs to qubit 0.
* ``Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))`` and
  ``Rzz(theta)`` multiplies a basis state by ``exp(-i theta/2)`` when the
  two bits are aligned and ``exp(+i theta/2)`` when they differ.  Both are
  diagonal, so one complex phase vector per data point covers a whole
  rotation layer.
* A ``d``-qubit state is its ``(2**d,)`` complex amplitude array, and the
  states of a point set are one ``(n, 2**d)`` stack.  A local measurement
  setting is a ``(d, 2, 2)`` array of single-qubit unitaries, one per qubit,
  and a point set's ``r`` settings are one ``(r, d, 2, 2)`` stack, which
  :func:`local_factors` turns into stacks of the two Kronecker factors, over
  the leading and the trailing qubits, that :func:`apply_local` takes.  It
  is the one rotation routine: at most two GEMMs rotate a state or a stack,
  into a caller's buffer if given, and the encoding's Hadamards use it too.
* Global phase is not tracked beyond what the gate definitions imply; all
  downstream quantities are fidelities, which ignore it.

All operations are pure: inputs are never mutated and random draws come
from an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMapConfig",
    "encode_iqp",
    "sample_haar_settings",
    "local_factors",
    "apply_local",
    "born_counts",
]

# row blocks of the encoding keep their (rows, 2^d, d) temporaries near this size
_BLOCK_BYTES = 2**24
# up to this many qubits one 2^d x 2^d GEMM rotates a state faster than two factors
_WHOLE_QUBITS = 6


@dataclass(frozen=True)
class FeatureMapConfig:
    """Shape of the data-encoding circuit: repetitions and angle scale.

    The qubit count is not an option: it is the width of the encoded input.
    """

    layers: int = 2
    angle_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if not 0 < self.angle_scale < math.inf:
            raise ValueError(f"angle_scale must be > 0 and finite, got {self.angle_scale}")


def local_factors(settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(U_hi, U_lo^T)`` form of a (d, 2, 2) setting that :func:`apply_local` takes.

    The setting is ``U_hi (x) U_lo``.  Above ``_WHOLE_QUBITS`` qubits ``U_hi``
    is the Kronecker product of the gates on the ``d // 2`` leading qubits and
    ``U_lo`` of those on the rest, the split ``kernel._hamming_weighted`` makes
    of its Hamming table; from d = 14 on it costs more than 4x4 gate pairs.  At
    or below it ``U_hi`` is ``[[1.0]]`` and ``U_lo`` the whole ``2^d x 2^d``
    product, whose one GEMM costs less than two.  A stack of settings gives
    stacks of factors, each bit for bit ``reduce(np.kron, gates, ones((1, 1)))``,
    in one broadcast multiply per qubit, in ``np.kron``'s operand order.
    """
    lead, d = settings.shape[:-3], settings.shape[-3]
    hi = d // 2 if d > _WHOLE_QUBITS else 0
    factors = [np.ones(lead + (1, 1)), np.ones(lead + (1, 1))]
    for q in range(d):
        u = factors[q >= hi][..., :, None, :, None] * settings[..., q, None, :, None, :]
        factors[q >= hi] = u.reshape(lead + (2 * u.shape[-4],) * 2)
    return factors[0], factors[1].mT


def apply_local(amps: np.ndarray, factors: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate a ``(2^d,)`` state, or each state of an ``(n, 2^d)`` stack, by a setting.

    ``factors`` is one setting's :func:`local_factors` form, built once and
    shared by every state measured in that setting.  A state viewed as a
    ``(rows, cols)`` matrix ``A`` over its leading and trailing qubits is
    rotated to ``U_hi @ A @ U_lo^T``: two GEMMs, or one when ``U_hi`` is 1x1,
    the last writing into ``out`` (a C-contiguous array of ``amps``'s shape,
    returned; a new one by default).  A stack takes one stacked GEMM per factor,
    which gives each state the result a lone state's 2-D GEMMs give it.
    """
    u_hi, u_lo_t = factors
    rows, cols = len(u_hi), len(u_lo_t)
    shape, lead = amps.shape, amps.shape[:-1]
    if shape != lead + (rows * cols,) or len(lead) > 1 or (out is not None and out.shape != shape):
        d = (rows * cols).bit_length() - 1
        raise ValueError(f"setting has {d} qubits, state or stack has shape {shape}")
    t = amps.reshape(lead + (rows, cols))
    if rows > 1:
        t = u_hi @ t
    if out is None:
        out = np.empty(shape, np.result_type(t, u_lo_t))
    # np.dot costs less per call than matmul, but on a stack it is no GEMM
    (np.matmul if lead else np.dot)(t, u_lo_t, out=out.reshape(t.shape))
    return out


def _basis_signs(d: int) -> np.ndarray:
    """Z eigenvalues per (basis state, qubit): +1 for bit 0, -1 for bit 1."""
    idx = np.arange(2**d)
    bits = (idx[:, None] >> (d - 1 - np.arange(d))[None, :]) & 1
    return 1.0 - 2.0 * bits


def _check_rows(X: np.ndarray) -> np.ndarray:
    """``X`` as floats, rejected unless it is a non-empty (n, d) row stack."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"expected a non-empty (n, d) row stack, got shape {X.shape}")
    return X


def _iqp_layer_angles(X: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Total rotation angle of one diagonal layer, per (row, basis state).

    Each layer applies ``Rz(lam * x_j)`` on every qubit j plus
    ``Rzz(lam^2 * x_j * x_k)`` on every pair j < k.  All of these commute, so
    the layer reduces to one angle per basis state and the phase vector is
    ``exp(-i/2 * angles)``.  The ``(n, 2^d, d)`` temporaries are held whole,
    so callers pass row blocks.
    """
    X = _check_rows(X)
    lx = cfg.angle_scale * X
    z = _basis_signs(X.shape[1])  # (2^d, d)
    # one GEMV per row, as z @ lx[i] would be; a single GEMM rounds differently
    angles = np.matmul(z[None], lx[:, :, None])[:, :, 0]
    zx = z[None] * lx[:, None, :]  # [i, :, j] holds lam*x_ij*z_j per basis state
    # sum over pairs j<k of (lam*x_j*z_j)*(lam*x_k*z_k); z_j = +-1, so the
    # squares (lam*x_j*z_j)^2 are (lam*x_j)^2 and are summed once per row
    total = zx.sum(axis=2)
    angles += 0.5 * (total**2 - (lx**2).sum(axis=1)[:, None])
    return angles


def encode_iqp(X: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Map the rows of an (n, d) stack to their feature-map states, shape (n, 2^d).

    Starting from |0...0>, repeats ``cfg.layers`` times: Hadamards on every
    qubit, then the commuting diagonal rotation layer whose angles are given
    by :func:`_iqp_layer_angles`.  Each state has one qubit per column of
    ``X``.  Rows are encoded in blocks whose ``(rows, 2^d, d)`` angle
    temporaries hold about ``_BLOCK_BYTES``.
    """
    X = _check_rows(X)
    n, d = X.shape
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hadamards = local_factors(np.broadcast_to(hadamard, (d, 2, 2)))
    states = np.empty((n, 2**d), dtype=complex)
    step = max(1, _BLOCK_BYTES // (8 * 2**d * d))
    for start in range(0, n, step):
        phases = np.exp(-0.5j * _iqp_layer_angles(X[start : start + step], cfg))
        amps = np.zeros_like(phases)
        amps[:, 0] = 1.0
        for _ in range(cfg.layers):
            amps = apply_local(amps, hadamards) * phases
        states[start : start + step] = amps
    return states


def sample_haar_settings(r: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``r`` settings of one Haar-random single-qubit unitary per qubit, (r, d, 2, 2).

    Each is a Ginibre draw orthonormalized by QR with the phase fix.  One
    ``normal`` call and one stacked QR give the stack, and leave the
    generator, as ``r`` draws of one setting each would.
    """
    if r < 1 or d < 1:
        raise ValueError(f"r and d must be >= 1, got r={r}, d={d}")
    z = rng.normal(size=(r, 2, d, 2, 2))
    q, upper = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(upper, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _cores() -> int:
    """Cores this process may run on: its affinity mask, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set in a ``--parallel`` worker process, whose seeds already fill the cores
_SEED_WORKER = False


def _on_every_core(fn: Callable[[range], None], items: int) -> None:
    """Run ``fn`` over contiguous chunks of ``range(items)``, one thread per core.

    There is one chunk per core of the affinity mask, at most one per item,
    equal in count to within one; in a ``--parallel`` worker there is one.
    The calling thread runs the first chunk and a pool thread each other one,
    each in a copy of the caller's context, because numpy keeps
    ``np.errstate`` in a context variable.  The first chunk's exception, in
    chunk order, is re-raised once every chunk has ended, and no thread
    outlives the call.  The chunks gain only where ``fn`` releases the GIL;
    callers hand it work that touches disjoint output and calls no BLAS.
    """
    workers = 1 if _SEED_WORKER else max(1, min(_cores(), items))
    bounds = [items * k // workers for k in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        fn(chunks[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, c) for c in chunks[1:]]
        fn(chunks[0])
        for future in futures:
            future.result()


def born_counts(amps: np.ndarray, shots: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Born-rule shot counts of a block of points, shape ``(points, r, 2^d)``.

    ``amps`` holds each point's ``(r, 2^d)`` amplitudes, one row per
    measurement setting, and ``rngs`` one generator per point.  Point i's
    counts are one ``rngs[i].multinomial(shots, p_i)`` draw, with each
    setting's probability row renormalized on its own against float drift:
    the counts of one draw per row, in setting order, from that generator.
    The points are drawn in contiguous chunks on every core by
    :func:`_on_every_core` (numpy releases the GIL while it draws), the
    calling thread taking the first.  Each point's counts depend only on its
    own generator, so they do not depend on the number of threads.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if amps.ndim != 3 or len(rngs) != len(amps):
        raise ValueError(
            f"expected (points, r, 2^d) amplitudes and one generator per point, "
            f"got shape {amps.shape} and {len(rngs)} generators"
        )
    counts = np.empty(amps.shape, dtype=np.int64)

    def draw(points: range) -> None:
        for i in points:
            p = np.abs(amps[i]) ** 2
            counts[i] = rngs[i].multinomial(shots, p / p.sum(axis=-1, keepdims=True))

    _on_every_core(draw, len(amps))
    return counts
