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
* Global phase is not tracked beyond what the gate definitions imply; all
  downstream quantities are fidelities, which ignore it.

All operations are pure: inputs are never mutated and random draws come
from an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Statevector",
    "FeatureMapConfig",
    "LocalHaarSetting",
    "encode_iqp",
    "iqp_layer_angles",
    "sample_haar_setting",
    "apply_local",
    "born_counts",
]

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Statevector:
    """Pure state of ``num_qubits`` qubits as a dense complex amplitude vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"amplitude vector must have length 2**{self.num_qubits}, "
                f"got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def probabilities(self) -> np.ndarray:
        """Born probabilities, renormalized against float drift."""
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()


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


@dataclass(frozen=True)
class LocalHaarSetting:
    """One random measurement basis: an independent 2x2 unitary per qubit."""

    matrices: np.ndarray  # shape (d, 2, 2), complex

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[1:] != (2, 2):
            raise ValueError(f"expected shape (d, 2, 2), got {mats.shape}")
        eye = np.eye(2)
        gram = np.einsum("kji,kjl->kil", mats.conj(), mats)
        if np.max(np.abs(gram - eye)) > _NORM_TOL:
            raise ValueError("per-qubit matrices are not unitary within 1e-10")
        object.__setattr__(self, "matrices", mats)

    @property
    def num_qubits(self) -> int:
        return self.matrices.shape[0]


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


def encode_iqp(x: np.ndarray, cfg: FeatureMapConfig) -> Statevector:
    """Map a classical vector to its feature-map state.

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
    return Statevector(d, amps)


def _haar_unitaries(count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitaries via Ginibre draw + QR with phase fix."""
    z = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q


def sample_haar_setting(d: int, rng: np.random.Generator) -> LocalHaarSetting:
    """Draw one independent Haar-random single-qubit unitary per qubit."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return LocalHaarSetting(_haar_unitaries(d, rng))


def apply_local(state: Statevector, setting: LocalHaarSetting) -> Statevector:
    """Rotate the state by the tensor product of the setting's unitaries."""
    d = state.num_qubits
    if setting.num_qubits != d:
        raise ValueError(
            f"setting has {setting.num_qubits} qubits, state has {d}"
        )
    amps = state.amplitudes
    for q in range(d):
        amps = _apply_1q(amps, setting.matrices[q], q, d)
    return Statevector(d, amps)


def born_counts(state: Statevector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Dense per-basis-state shot counts from Born-rule sampling."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return rng.multinomial(shots, state.probabilities())

