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
* Private helpers spread work over the cores of the affinity mask.
  :func:`_on_threads` runs one task per thread, the first on the calling
  thread.  :func:`_on_every_core` runs contiguous chunks of a step that
  releases the GIL through it: the encoding's row blocks here, the Gram
  bands, mirror tiles and RM frequency table in ``kernel``.
  :func:`born_counts` runs through it too, as a stream: the calling thread
  takes a point set's blocks of rotated amplitudes one by one and pool
  threads draw the queued points of one block while it takes the next.
  :func:`_on_forked_workers` maps a function over items on forked worker
  processes: ``--parallel`` seeds and VS components.  All take their worker
  count from :func:`_workers`, under one rule: a step that calls BLAS (the
  encoding and the matrix-product Gram bands) gets more than one worker
  only while numpy's OpenBLAS runs one thread, because a BLAS that runs
  more would oversubscribe the cores.  A step that gets one worker runs in
  the calling process: on a one-core mask, for one item, and inside a
  forked worker, which pins numpy's OpenBLAS to one thread.  The public
  functions here, whose calls perfbench traces, always run on the calling
  thread; only their insides run on pool threads.

All operations are pure: inputs are never mutated and random draws come
from an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "FeatureMapConfig",
    "encode_iqp",
    "sample_haar_settings",
    "local_factors",
    "apply_local",
    "born_counts",
]

# row blocks of the encoding, and of kernel's Gram bands, keep their temporaries near this size
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


def _iqp_layer_angles(X: np.ndarray, cfg: FeatureMapConfig, first_row: int = 0) -> np.ndarray:
    """Total rotation angle of one diagonal layer, per (row, basis state).

    Each layer applies ``Rz(lam * x_j)`` on every qubit j plus
    ``Rzz(lam^2 * x_j * x_k)`` on every pair j < k.  All of these commute, so
    the layer reduces to one angle per basis state and the phase vector is
    ``exp(-i/2 * angles)``.  The ``(n, 2^d, d)`` temporaries are held whole,
    so callers pass row blocks, the first being row ``first_row`` of their
    stack.  A row whose angles overflow raises ``ValueError`` naming that row.
    """
    X = _check_rows(X)
    with np.errstate(over="ignore", invalid="ignore"):
        lx = cfg.angle_scale * X
        z = _basis_signs(X.shape[1])  # (2^d, d)
        # one GEMV per row, as z @ lx[i] would be; a single GEMM rounds differently
        angles = np.matmul(z[None], lx[:, :, None])[:, :, 0]
        zx = z[None] * lx[:, None, :]  # [i, :, j] holds lam*x_ij*z_j per basis state
        # sum over pairs j<k of (lam*x_j*z_j)*(lam*x_k*z_k); z_j = +-1, so the
        # squares (lam*x_j*z_j)^2 are (lam*x_j)^2 and are summed once per row
        total = zx.sum(axis=2)
        angles += 0.5 * (total**2 - (lx**2).sum(axis=1)[:, None])
    bad = np.flatnonzero(~np.isfinite(angles).all(axis=1))
    if len(bad):
        raise ValueError(f"feature-map angles overflow: row {first_row + bad[0]} has a "
                         f"non-finite angle at angle scale {cfg.angle_scale}")
    return angles


def encode_iqp(X: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Map the rows of an (n, d) stack to their feature-map states, shape (n, 2^d).

    Starting from |0...0>, repeats ``cfg.layers`` times: Hadamards on every
    qubit, then the commuting diagonal rotation layer whose angles are given
    by :func:`_iqp_layer_angles`.  Each state has one qubit per column of
    ``X``.  Rows are encoded in blocks whose ``(rows, 2^d, d)`` angle
    temporaries hold about ``_BLOCK_BYTES``.  Contiguous chunks of rows are
    encoded on every core by :func:`_on_every_core` while numpy's OpenBLAS
    runs one thread, each chunk in blocks of its share of those rows, so all
    chunks' temporaries together stay near ``_BLOCK_BYTES``.  Rows are
    encoded independently, so the states do not depend on the number of
    threads.
    """
    X = _check_rows(X)
    n, d = X.shape
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hadamards = local_factors(np.broadcast_to(hadamard, (d, 2, 2)))
    states = np.empty((n, 2**d), dtype=complex)
    step = max(1, _BLOCK_BYTES // (8 * 2**d * d))

    def encode(chunk: range) -> None:
        # a chunk's blocks take its share of the step, so all chunks' blocks sum to one step
        block = max(1, step * len(chunk) // n)
        for start in range(chunk.start, chunk.stop, block):
            rows = slice(start, min(start + block, chunk.stop))
            phases = np.exp(-0.5j * _iqp_layer_angles(X[rows], cfg, start))
            amps = np.zeros_like(phases)
            amps[:, 0] = 1.0
            for _ in range(cfg.layers):
                amps = apply_local(amps, hadamards) * phases
            states[rows] = amps

    _on_every_core(encode, n, blas=True)
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


# set in a forked worker process of :func:`_on_forked_workers`, whose items fill the cores
_IN_WORKER = False


def _workers(items: int, blas: bool = False) -> int:
    """One worker per core of the affinity mask, at most one per item.

    One in a forked worker, and one for a step that calls BLAS (``blas``)
    unless numpy's OpenBLAS runs one thread: a BLAS that runs more would
    oversubscribe the cores.
    """
    if _IN_WORKER or (blas and _blas_threads() != 1):
        return 1
    return max(1, min(_cores(), items))


def _on_threads(tasks: Sequence[Callable[[], None]]) -> None:
    """Run each task on a thread of its own: the first on the calling thread, the rest on a pool.

    Each pool thread runs its task in a copy of the caller's context, because
    numpy keeps ``np.errstate`` in a context variable.  The first task's
    exception, in task order, is re-raised once every task has ended, and no
    thread outlives the call.
    """
    if len(tasks) == 1:
        tasks[0]()
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(tasks) - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
        tasks[0]()
        for future in futures:
            future.result()


def _on_every_core(fn: Callable[[range], None], items: int, blas: bool = False) -> None:
    """Run ``fn`` over contiguous chunks of ``range(items)``, one thread per worker.

    There are :func:`_workers` chunks, equal in count to within one; ``blas``
    says that ``fn`` calls BLAS.  :func:`_on_threads` runs them, the calling
    thread taking the first chunk.  The chunks gain only where ``fn``
    releases the GIL; callers hand it work that touches disjoint output and
    calls no function that perfbench traces.
    """
    workers = _workers(items, blas)
    bounds = [items * k // workers for k in range(workers + 1)]
    _on_threads([partial(fn, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])


@lru_cache(maxsize=1)
def _openblas():
    """numpy's bundled OpenBLAS, loaded by ``ctypes``, or None without the calls used here."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if name.startswith("libscipy_openblas") and name.endswith(".so"):
            lib = ctypes.CDLL(os.path.join(libs, name))
            try:
                setter = lib.scipy_openblas_set_num_threads64_
                getter = lib.scipy_openblas_get_num_threads64_
                shutdown = lib.blas_thread_shutdown_
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return lib
    return None


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs now, or None without it; read anew on every call."""
    blas = _openblas()
    return None if blas is None else blas.scipy_openblas_get_num_threads64_()


def _start_worker(fn: Callable[[int], object]) -> None:
    # the forked worker inherits fn and all it reads; it pins its own BLAS only
    global _IN_WORKER, _worker_fn
    _IN_WORKER, _worker_fn = True, fn
    blas = _openblas()
    blas.scipy_openblas_set_num_threads64_(1)
    # the setter restarts the BLAS threads the fork stopped, and idle they spin for a while
    blas.blas_thread_shutdown_()


def _worker_call(item: int) -> object:
    return _worker_fn(item)


def _forks(items: int) -> bool:
    """Whether :func:`_on_forked_workers` forks for ``items``; if so, its pool is imported.

    A caller that times the work calls it first, so that the import, about
    10 ms, lands in no timing.
    """
    if _workers(items) == 1 or not hasattr(os, "fork") or _openblas() is None:
        return False
    import concurrent.futures.process  # noqa: F401
    import multiprocessing  # noqa: F401

    return True


def _on_forked_workers(
    fn: Callable[[int], object], items: int,
    fail: Callable[[int, BaseException], object] | None = None,
) -> list:
    """``[fn(i) for i in range(items)]``, the items spread over forked worker processes.

    The pool has :func:`_workers` processes.  Where that is one, and where
    the platform cannot fork or the BLAS cannot be pinned, the items run in
    order in the calling process, where an exception propagates at once.
    ``fn`` and everything it reads reach the workers by fork, never pickled:
    a task carries only its item, and only its result is pickled back.  Each
    worker sets ``_IN_WORKER``, so its own steps get one worker, and it pins
    numpy's OpenBLAS to one thread and stops that BLAS's own threads,
    because a BLAS pool per worker would oversubscribe the cores.  Results
    come back in item order.  An item whose worker raised or died yields
    ``fail(i, exc)``; without ``fail`` the first such item, by index,
    re-raises.  No process outlives the call.
    """
    if not _forks(items):
        return [fn(i) for i in range(items)]
    import concurrent.futures
    import multiprocessing

    # fork, because fn closes over the caller's data; the pool forks before it starts a thread
    with concurrent.futures.ProcessPoolExecutor(
        _workers(items), multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(fn,),
    ) as pool:
        futures = [pool.submit(_worker_call, i) for i in range(items)]
        return [fail(i, f.exception()) if fail and f.exception() else f.result()
                for i, f in enumerate(futures)]


def born_counts(
    blocks: Iterable[np.ndarray], shots: int, rngs: Sequence[np.random.Generator | int]
) -> np.ndarray:
    """Born-rule shot counts of a point set, shape ``(points, r, 2^d)``.

    ``blocks`` yields the point set's amplitudes in consecutive blocks of
    ``(points, r, 2^d)``, one row per measurement setting.  ``rngs`` holds
    one item per point, a generator or a seed, which ``np.random.default_rng``
    turns into the point's generator on the thread that draws the point.
    Point i's counts are one ``multinomial(shots, p_i)`` draw from that
    generator, with each setting's probability row renormalized on its own
    against float drift: the counts of one draw per row, in setting order.
    They depend only on the point's own generator, so not on the number of
    threads.

    Only the calling thread advances ``blocks``, so a stream that rotates
    its next block while it is advanced runs its rotations there.  With one
    worker (:func:`_workers`) the calling thread takes a block and draws it,
    block by block.  With more, pool threads draw the queued points of block
    k while the calling thread takes block k+1; the calling thread then draws
    what is left of block k, queues block k+1 and draws its points until
    every draw of block k has ended, so the stream makes block k+2 only while
    no more than block k+1 is held.  numpy releases the GIL while it draws.
    Once a point or the stream fails, no further block is taken; the first
    failure in point order, a stream's at the first point of the block it
    failed to give, is re-raised once every queued draw has ended, and no
    thread outlives the call (:func:`_on_threads`).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n, counts = len(rngs), None
    queue = deque()  # (block number, point, its amplitudes), waiting to be drawn
    left = []  # per block, its points whose draw has not ended
    errors = {}  # point -> its exception, or the stream's at the block's first point
    changed = threading.Condition()
    closed = False

    def draw(point: int, amps: np.ndarray) -> None:
        try:
            p = np.abs(amps) ** 2
            rng = np.random.default_rng(rngs[point])
            counts[point] = rng.multinomial(shots, p / p.sum(axis=-1, keepdims=True))
        except BaseException as exc:
            errors[point] = exc

    def draw_next(wait: bool) -> bool:
        # draw the oldest queued point; with ``wait`` wait for one until the stream ends
        with changed:
            while wait and not queue and not closed:
                changed.wait()
            if not queue:
                return False
            block, point, amps = queue.popleft()
        draw(point, amps)
        del amps  # a block is freed once its last draw has ended
        with changed:
            left[block] -= 1
            changed.notify_all()
        return True

    def drain() -> None:
        while draw_next(wait=False):
            pass

    def settle(block: int) -> None:
        # draw queued points until every draw of ``block`` has ended
        while True:
            with changed:
                while left[block] and not queue:
                    changed.wait()
                if not left[block]:
                    return
            draw_next(wait=False)

    def feed(alone: bool) -> None:
        nonlocal counts, closed
        stream, queued = iter(blocks), 0
        try:
            while not errors:
                try:
                    amps = next(stream, None)
                    if amps is None:
                        break
                    shape = amps.shape[1:] if counts is None else counts.shape[1:]
                    if amps.ndim != 3 or amps.shape[1:] != shape or queued + len(amps) > n:
                        raise ValueError(
                            f"expected (points, r, 2^d) amplitude blocks and one generator per "
                            f"point, got a block of shape {amps.shape} after {queued} points "
                            f"and {n} generators"
                        )
                    if counts is None:
                        counts = np.empty((n,) + shape, dtype=np.int64)
                except BaseException as exc:
                    errors[queued] = exc
                    break
                if not alone:
                    drain()  # what is left of the block before
                with changed:
                    left.append(len(amps))
                    queue.extend((len(left) - 1, queued + i, a) for i, a in enumerate(amps))
                    changed.notify_all()
                queued += len(amps)
                if alone:
                    drain()
                elif len(left) > 1:
                    settle(len(left) - 2)
            drain()
            if not errors and (counts is None or queued != n):
                errors[queued] = ValueError(
                    f"expected (points, r, 2^d) amplitude blocks and one generator per point, "
                    f"got {queued} points and {n} generators"
                )
        finally:
            with changed:
                closed = True
                changed.notify_all()

    def pool_draws() -> None:
        while draw_next(wait=True):
            pass

    workers = _workers(n)
    _on_threads([partial(feed, workers == 1)] + [pool_draws] * (workers - 1))
    if errors:
        raise errors[min(errors)]
    return counts
