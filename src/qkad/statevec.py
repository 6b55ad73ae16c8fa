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
  setting is a ``(d, 2, 2)`` array of single-qubit unitaries, one per
  qubit; :func:`pair_gates` turns it into the paired form that
  :func:`apply_local` takes.  :func:`apply_local` is the one rotation
  routine: it rotates a state or a stack, and the encoding's Hadamard
  layers go through it too.
* Global phase is not tracked beyond what the gate definitions imply; all
  downstream quantities are fidelities, which ignore it.

All operations are pure: inputs are never mutated and random draws come
from an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMapConfig",
    "encode_iqp",
    "sample_haar_setting",
    "pair_gates",
    "apply_local",
    "born_counts",
]

# row blocks of the encoding keep their (rows, 2^d, d) temporaries near this size
_BLOCK_BYTES = 2**24


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


def pair_gates(setting: np.ndarray) -> tuple[np.ndarray, ...]:
    """The paired form of a (d, 2, 2) setting that :func:`apply_local` takes.

    Gates q and q+1 become one 4x4 Kronecker block, an odd last gate stays
    2x2, so a d-qubit setting is applied in ``ceil(d / 2)`` GEMMs.
    """
    pairs = []
    for q in range(0, len(setting), 2):
        block = setting[q]
        if q + 1 < len(setting):
            block = (block[:, None, :, None] * setting[q + 1][None, :, None, :]).reshape(4, 4)
        pairs.append(block)
    return tuple(pairs)


def apply_local(amps: np.ndarray, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Rotate a ``(2^d,)`` state, or each state of an ``(n, 2^d)`` stack, by a setting.

    ``pairs`` is the setting's :func:`pair_gates` form, built once and shared
    by every state measured in that setting.  Each step is one GEMM of a block
    on the leading qubits; the transpose then moves the next qubits to the
    front, so after the last step the order is restored.  A lone state takes a
    2-D GEMM, whose per-call cost is lower, and a stack one stacked GEMM, which
    gives each state the result the 2-D GEMM gives it.
    """
    dim = math.prod(map(len, pairs))
    shape = amps.shape
    lead = shape[:-1]
    if shape != lead + (dim,) or len(lead) > 1:
        d = dim.bit_length() - 1
        raise ValueError(f"setting has {d} qubits, state or stack has shape {shape}")
    t = amps
    for block in pairs:
        t = (block @ t.reshape(lead + (len(block), -1))).mT
    return t.reshape(shape)


def _basis_signs(d: int) -> np.ndarray:
    """Z eigenvalues per (basis state, qubit): +1 for bit 0, -1 for bit 1."""
    idx = np.arange(2**d)
    bits = (idx[:, None] >> (d - 1 - np.arange(d))[None, :]) & 1
    return 1.0 - 2.0 * bits


def _hadamard_pairs(d: int) -> tuple[np.ndarray, ...]:
    """Paired form of a Hadamard on each of ``d`` qubits."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return pair_gates(np.broadcast_to(hadamard, (d, 2, 2)))


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
    hadamards = _hadamard_pairs(d)
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


def sample_haar_setting(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one Haar-random single-qubit unitary per qubit, as a (d, 2, 2) array.

    Each is a Ginibre draw orthonormalized by QR with the phase fix.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    z = rng.normal(size=(d, 2, 2)) + 1j * rng.normal(size=(d, 2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def born_counts(amps: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Dense per-basis-state shot counts from Born-rule sampling.

    The probabilities are renormalized against float drift.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.abs(amps) ** 2
    return rng.multinomial(shots, p / p.sum())
