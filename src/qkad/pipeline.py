"""Kernel-specific preprocessing: standard scaling, PCA, final rescaling.

Every transform is fit on training data only and applied with the stored
parameters, so train/test separation is structural.  The chain is scaler ->
PCA(M) -> optional second scaler -> constant factor, and only its tail
depends on the kernel kind: data that enters a circuit as rotation angles is
multiplied by 0.1, the randomized kind is standardized again on the PCA
output and multiplied by ``1/sqrt(M)``, and the classical RBF baseline is
left as PCA returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalerParams",
    "PCAParams",
    "PreprocessParams",
    "fit_scaler",
    "apply_scaler",
    "fit_pca",
    "apply_pca",
    "fit_preprocess",
    "apply_preprocess",
]

ANGLE_RESCALE_FACTOR = 0.1
_ANGLE_KINDS = ("exact", "inversion_test")


@dataclass(frozen=True)
class ScalerParams:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.std <= 0):
            raise ValueError("std components must be positive")


@dataclass(frozen=True)
class PCAParams:
    mean: np.ndarray
    components: np.ndarray  # (d, m), orthonormal columns

    def __post_init__(self) -> None:
        gram = self.components.T @ self.components
        if np.max(np.abs(gram - np.eye(self.components.shape[1]))) > 1e-10:
            raise ValueError("PCA components must have orthonormal columns")


@dataclass(frozen=True)
class PreprocessParams:
    """Full fitted chain for one kernel kind.

    ``post`` is the second scaler, fitted on the PCA output for the
    randomized kind and ``None`` for every other kind; ``factor`` is the
    final multiplier (0.1 for angle kinds, ``1/sqrt(M)`` for randomized,
    1.0 for rbf).
    """

    scaler: ScalerParams
    pca: PCAParams
    post: ScalerParams | None
    factor: float


def fit_scaler(X_train: np.ndarray) -> ScalerParams:
    """Per-feature mean and population std; zero-variance features get std 1."""
    X_train = np.asarray(X_train, dtype=float)
    if X_train.ndim != 2 or X_train.shape[0] < 2:
        raise ValueError(f"need an (n, d) matrix with n >= 2, got shape {X_train.shape}")
    constant = np.ptp(X_train, axis=0) == 0
    mean = np.where(constant, X_train[0], X_train.mean(axis=0))
    std = X_train.std(axis=0)
    std = np.where(constant | (std <= 0), 1.0, std)
    return ScalerParams(mean=mean, std=std)


def apply_scaler(params: ScalerParams, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - params.mean) / params.std


def fit_pca(X_train: np.ndarray, m: int) -> PCAParams:
    """Top-m right singular directions of the centered training matrix.

    Component signs are fixed so each column's largest-magnitude entry is
    positive, making results comparable across runs.
    """
    X_train = np.asarray(X_train, dtype=float)
    n, d = X_train.shape
    if not 1 <= m <= min(n - 1, d):
        raise ValueError(f"m must be in [1, min(n-1, d)] = [1, {min(n - 1, d)}], got {m}")
    mean = X_train.mean(axis=0)
    vt = np.linalg.svd(X_train - mean, full_matrices=False)[2]
    components = vt[:m].T.copy()
    for col in range(m):
        peak = np.argmax(np.abs(components[:, col]))
        if components[peak, col] < 0:
            components[:, col] *= -1.0
    return PCAParams(mean=mean, components=components)


def apply_pca(params: PCAParams, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - params.mean) @ params.components


def fit_preprocess(X_train: np.ndarray, kind: str, num_features: int) -> PreprocessParams:
    """Fit the full chain scaler -> PCA(num_features) -> kind rescale."""
    if kind not in (*_ANGLE_KINDS, "randomized", "rbf"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    scaler = fit_scaler(X_train)
    scaled = apply_scaler(scaler, X_train)
    pca = fit_pca(scaled, num_features)
    post, factor = None, 1.0
    if kind in _ANGLE_KINDS:
        factor = ANGLE_RESCALE_FACTOR
    elif kind == "randomized":
        post, factor = fit_scaler(apply_pca(pca, scaled)), 1.0 / np.sqrt(num_features)
    return PreprocessParams(scaler=scaler, pca=pca, post=post, factor=factor)


def apply_preprocess(params: PreprocessParams, X: np.ndarray) -> np.ndarray:
    X = apply_pca(params.pca, apply_scaler(params.scaler, X))
    if params.post is not None:
        X = apply_scaler(params.post, X)
    return X * params.factor
