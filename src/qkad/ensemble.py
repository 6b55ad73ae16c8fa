"""Variable-subsampling ensembles with optional rotated feature bagging.

Each component trains a one-class SVM on a random subsample whose size is
itself random (inclusive uniform between ``SUBSAMPLE_MIN`` = 50 and
``SUBSAMPLE_MAX`` = 100), sampled without replacement.  With feature bagging
enabled, each component first projects its subsample onto a private random
orthonormal axis system of ``rotation_dim(d)`` columns; the projection matrix
is stored and reused at scoring time, and the component's circuits have one
qubit per projected feature.  Component scores are z-normalized against the
component's own training-score statistics and aggregated by mean or max.

The component count is ``floor(n / 100)``, at least 1; it is not an option.
The caller's generator first draws all subsample sizes at once; then, for
each component in order, it draws the subsample indices, the projection (with
feature bagging) and three child seeds for the kernel fit, the solver and
scoring.  A component's fit draws only from its own child streams, so the
fitted ensemble is a pure function of (seed, config, data).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ocsvm
from .kernel import KernelConfig, SignatureCache, build_gram_cross, build_gram_train, eval_count
from .ocsvm import OCSVMModel, SolverConfig

__all__ = [
    "VSConfig",
    "Component",
    "EnsembleModel",
    "sample_sizes",
    "rotation_dim",
    "random_rotation",
    "fit_vs",
    "score_vs",
    "cross_eval_count",
]

SUBSAMPLE_MIN = 50
SUBSAMPLE_MAX = 100
_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class VSConfig:
    base_kernel: KernelConfig
    nu: float
    aggregation: str = "mean"
    rfb_enabled: bool = False

    def __post_init__(self) -> None:
        if self.aggregation not in ("mean", "max"):
            raise ValueError(f"aggregation must be 'mean' or 'max', got {self.aggregation!r}")
        if not 0 < self.nu <= 1:
            raise ValueError(f"nu must be in (0, 1], got {self.nu}")


@dataclass(frozen=True)
class Component:
    """One fitted base detector plus everything needed to score new data."""

    subsample_indices: np.ndarray
    train: np.ndarray | SignatureCache  # training point set of the cross kernel
    projection: np.ndarray | None
    model: OCSVMModel
    train_score_mean: float
    train_score_std: float
    score_seed: int
    train_eval_count: int


@dataclass(frozen=True)
class EnsembleModel:
    components: tuple[Component, ...]
    kernel: KernelConfig
    aggregation: str
    num_features: int  # feature count the ensemble was fitted on
    gram_time_s: float
    solver_time_s: float

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("an ensemble needs at least one component")

    @property
    def train_eval_count(self) -> int:
        return sum(c.train_eval_count for c in self.components)


def component_count(n: int) -> int:
    return max(1, n // 100)


def sample_sizes(c: int, rng: np.random.Generator) -> list[int]:
    """c i.i.d. subsample sizes, uniform on [SUBSAMPLE_MIN, SUBSAMPLE_MAX]."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return [int(s) for s in rng.integers(SUBSAMPLE_MIN, SUBSAMPLE_MAX + 1, size=c)]


def rotation_dim(d: int) -> int:
    """Projected dimensionality ``2 + ceil(sqrt(d)/2)``, clamped to ``d``."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return min(d, 2 + math.ceil(math.sqrt(d) / 2.0))


def random_rotation(d: int, r_prime: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthonormal d x r' projection from a uniform [-1, 1] draw.

    The draw is orthonormalized by Householder QR with the signs fixed so
    that R has a nonnegative diagonal, which is the basis Gram-Schmidt gives.
    QR returns orthonormal columns even for a rank-deficient draw.
    """
    if not 1 <= r_prime <= d:
        raise ValueError(f"need 1 <= r_prime <= d, got r_prime={r_prime}, d={d}")
    q, r = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(d, r_prime)))
    return q * np.where(np.diagonal(r) < 0, -1.0, 1.0)


def fit_vs(X_train: np.ndarray, cfg: VSConfig, rng: np.random.Generator) -> EnsembleModel:
    """Fit a variable-subsampling ensemble on preprocessed training data."""
    X_train = np.asarray(X_train, dtype=float)
    n, d = X_train.shape
    if n < SUBSAMPLE_MIN:
        raise ValueError(f"need at least {SUBSAMPLE_MIN} training points, got {n}")

    sizes = sample_sizes(component_count(n), rng)
    components: list[Component] = []
    gram_time = 0.0
    solver_time = 0.0
    for idx, size in enumerate(sizes):
        indices = rng.choice(n, size=min(size, n), replace=False)
        projection = random_rotation(d, rotation_dim(d), rng) if cfg.rfb_enabled else None
        fit_seed, solver_seed, score_seed = (int(rng.integers(0, 2**63 - 1)) for _ in range(3))
        try:
            sub = X_train[indices]
            if projection is not None:
                sub = sub @ projection

            t0 = time.perf_counter()
            gram, train = build_gram_train(sub, cfg.base_kernel, np.random.default_rng(fit_seed))
            t1 = time.perf_counter()
            model = ocsvm.fit(gram, cfg.nu, SolverConfig(), np.random.default_rng(solver_seed))
            t2 = time.perf_counter()
            gram_time += t1 - t0
            solver_time += t2 - t1

            train_scores = ocsvm.decision_scores(model, gram)
            components.append(
                Component(
                    subsample_indices=indices,
                    train=train,
                    projection=projection,
                    model=model,
                    train_score_mean=float(train_scores.mean()),
                    train_score_std=float(train_scores.std()),
                    score_seed=score_seed,
                    train_eval_count=gram.eval_count,
                )
            )
        except Exception as exc:
            raise RuntimeError(f"ensemble component {idx} failed to fit") from exc

    return EnsembleModel(
        components=tuple(components),
        kernel=cfg.base_kernel,
        aggregation=cfg.aggregation,
        num_features=d,
        gram_time_s=gram_time,
        solver_time_s=solver_time,
    )


def _component_scores(comp: Component, kernel: KernelConfig, X_test: np.ndarray) -> np.ndarray:
    X_proj = X_test @ comp.projection if comp.projection is not None else X_test
    cross = build_gram_cross(X_proj, comp.train, kernel, np.random.default_rng(comp.score_seed))
    raw = ocsvm.decision_scores(comp.model, cross)
    std = comp.train_score_std if comp.train_score_std >= _STD_FLOOR else 1.0
    return (raw - comp.train_score_mean) / std


def score_vs(model: EnsembleModel, X_test: np.ndarray) -> np.ndarray:
    """Aggregated normalized decision scores; negative means anomaly.

    Scoring is repeatable: each component reuses the measurement stream seed
    stored at fit time, so calling twice gives identical scores.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != model.num_features:
        raise ValueError(
            f"expected (t, {model.num_features}) test matrix, got shape {X_test.shape}"
        )
    stacked = np.stack([_component_scores(c, model.kernel, X_test) for c in model.components])
    if model.aggregation == "mean":
        return stacked.mean(axis=0)
    return stacked.max(axis=0)


def cross_eval_count(model: EnsembleModel, n_test: int) -> int:
    """Kernel evaluations a scoring pass over ``n_test`` points performs."""
    return sum(
        eval_count(model.kernel, n_test, n_test * comp.model.n_train) for comp in model.components
    )
