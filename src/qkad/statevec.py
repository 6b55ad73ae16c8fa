"""Dense statevector simulation of the IQP-like data-encoding circuit.

Conventions used throughout the package:

* Basis index ``s`` of a ``d``-qubit state is an integer in ``[0, 2**d)``;
  qubit 0 is the MOST significant bit of ``s``.  The bitstring form of an
  outcome is ``format(s, f"0{d}b")``, so character 0 belongs to qubit 0.
* ``Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))`` and
  ``Rzz(theta)`` multiplies a basis state by ``exp(-i theta/2)`` when the
  two bits are aligned and ``exp(+i theta/2)`` when they differ.  Both are
  diagonal, so one complex phase vector per data point covers a whole
  rotation layer.
* A ``d``-qubit state is its ``(2**d,)`` complex amplitude array, and a
  local measurement setting is a ``(d, 2, 2)`` array of single-qubit
  unitaries, one per qubit.
* Global phase is not tracked beyond what the gate definitions imply; all
  downstream quantities are fidelities, which ignore it.

All operations are pure: inputs are never mutated and random draws come
from an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMapConfig",
    "encode_iqp",
    "iqp_layer_angles",
    "sample_haar_setting",
    "apply_local",
    "born_counts",
]


@dataclass(frozen=True)
class FeatureMapConfig:
    """Shape of the data-encoding circuit: qubit count, repetitions, angle scale."""

    num_qubits: int
    layers: int = 2
    angle_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if not self.angle_scale > 0:
            raise ValueError(f"angle_scale must be > 0, got {self.angle_scale}")


def _apply_1q(amps: np.ndarray, gate: np.ndarray, qubit: int, d: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a dense amplitude vector."""
    t = amps.reshape([2] * d)
    t = np.moveaxis(t, qubit, -1)
    t = t @ gate.T
    return np.moveaxis(t, -1, qubit).reshape(-1)


def _hadamard_all(amps: np.ndarray, d: int) -> np.ndarray:
    """Fast in-place-free Walsh-Hadamard transform over all qubits."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = amps
    for q in range(d):
        out = _apply_1q(out, h, q, d)
    return out


def _basis_signs(d: int) -> np.ndarray:
    """Z eigenvalues per (basis state, qubit): +1 for bit 0, -1 for bit 1."""
    idx = np.arange(2**d)
    bits = (idx[:, None] >> (d - 1 - np.arange(d))[None, :]) & 1
    return 1.0 - 2.0 * bits


def iqp_layer_angles(x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Total rotation angle of one diagonal layer, per basis state.

    Each layer applies ``Rz(lam * x_j)`` on every qubit j plus
    ``Rzz(lam^2 * x_j * x_k)`` on every pair j < k.  All of these commute, so
    the layer reduces to one angle per basis state and the phase vector is
    ``exp(-i/2 * angles)``.
    """
    x = np.asarray(x, dtype=float)
    d = cfg.num_qubits
    if x.shape != (d,):
        raise ValueError(f"expected {d}-dimensional input, got shape {x.shape}")
    lam = cfg.angle_scale
    z = _basis_signs(d)  # (2^d, d)
    angles = z @ (lam * x)
    zx = z * (lam * x)[None, :]  # column j holds lam*x_j*z_j per basis state
    # sum over pairs j<k of (lam*x_j*z_j)*(lam*x_k*z_k)
    total = zx.sum(axis=1)
    angles += 0.5 * (total**2 - (zx**2).sum(axis=1))
    return angles


def encode_iqp(x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Map a classical vector to its feature-map state's amplitudes.

    Starting from |0...0>, repeats ``cfg.layers`` times: Hadamards on every
    qubit, then the commuting diagonal rotation layer whose angles are given
    by :func:`iqp_layer_angles`.
    """
    d = cfg.num_qubits
    phases = np.exp(-0.5j * iqp_layer_angles(x, cfg))
    amps = np.zeros(2**d, dtype=np.complex128)
    amps[0] = 1.0
    for _ in range(cfg.layers):
        amps = _hadamard_all(amps, d)
        amps = amps * phases
    return amps


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


def apply_local(amps: np.ndarray, setting: np.ndarray) -> np.ndarray:
    """Rotate the state by the tensor product of the setting's unitaries."""
    d = len(setting)
    if amps.shape != (2**d,):
        raise ValueError(f"setting has {d} qubits, state has shape {amps.shape}")
    for q in range(d):
        amps = _apply_1q(amps, setting[q], q, d)
    return amps


def born_counts(amps: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Dense per-basis-state shot counts from Born-rule sampling.

    The probabilities are renormalized against float drift.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.abs(amps) ** 2
    return rng.multinomial(shots, p / p.sum())
