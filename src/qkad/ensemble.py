"""Variable-subsampling ensembles with optional rotated feature bagging.

Each component trains a one-class SVM on a random subsample whose size is
itself random (inclusive uniform between ``SUBSAMPLE_MIN`` = 50 and
``SUBSAMPLE_MAX`` = 100), sampled without replacement.  With feature bagging
enabled, each component first projects its subsample onto a private random
orthonormal axis system of ``rotation_dim(d)`` columns; the projection matrix
is stored and reused at scoring time, and the component's circuits have one
qubit per projected feature.  Component scores are z-normalized against the
component's own training-score statistics and aggregated by mean or max.
A fit sums its components' training Grams' evaluation counts, and a scoring
pass returns the sum of its cross Grams' counts with the scores.
:func:`check_train_set` holds the rules on the training rows, for
:func:`fit_vs` and the CLI's run plan alike, and :class:`VSConfig` checks
``nu`` at ``SUBSAMPLE_MIN`` rows, the smallest component a fit can draw.

The component count is ``floor(n / 100)``, at least 1; it is not an option.
The caller's generator first draws all subsample sizes at once; then, for
each component in order, it draws the subsample indices, the projection (with
feature bagging) and three child seeds for the kernel fit, the solver and
scoring.  A component's fit draws only from its own child streams, so the
fitted ensemble is a pure function of (seed, config, data).

Once every draw is made, the components are fitted, and later scored, on
forked worker processes (:func:`statevec._on_forked_workers`).  The config,
the rows and the draws reach the workers by fork; a task carries only a
component's index, and the components come back in index order.  A step that
gets one worker runs in the calling process, so on a one-core mask and in a
worker such as a ``--parallel`` seed's the components run one after another
there, with the same results.  The first failing component, by
index, raises ``ensemble component k failed to fit: ...``.  ``gram_time_s``
and ``solver_time_s`` sum the components' own times, each measured where it
ran, so together they can exceed the wall time of the fit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ocsvm
from .kernel import KernelConfig, TrainingSet, build_gram_cross, build_gram_train
from .ocsvm import OCSVMModel
from .statevec import _on_forked_workers

__all__ = [
    "AGGREGATIONS",
    "VSConfig",
    "Component",
    "EnsembleModel",
    "check_train_set",
    "sample_sizes",
    "rotation_dim",
    "random_rotation",
    "fit_vs",
    "score_vs",
]

SUBSAMPLE_MIN = 50
SUBSAMPLE_MAX = 100
AGGREGATIONS = ("mean", "max")
_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class VSConfig:
    base_kernel: KernelConfig
    nu: float
    aggregation: str = "mean"
    rfb_enabled: bool = False

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        # fit_vs gives a component min(size, n) rows, both at least SUBSAMPLE_MIN
        ocsvm.check_nu(self.nu, SUBSAMPLE_MIN)


@dataclass(frozen=True)
class Component:
    """One fitted base detector plus everything needed to score new data."""

    subsample_indices: np.ndarray
    train: TrainingSet
    projection: np.ndarray | None
    model: OCSVMModel
    train_score_mean: float
    train_score_std: float
    score_seed: int


@dataclass(frozen=True)
class EnsembleModel:
    components: tuple[Component, ...]
    aggregation: str
    num_features: int  # feature count the ensemble was fitted on
    gram_time_s: float
    solver_time_s: float
    train_eval_count: int  # summed over the components' training Grams

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("an ensemble needs at least one component")


def check_train_set(n: int, d: int, rfb_enabled: bool) -> int:
    """Reject a training set of ``n`` rows and ``d`` features that no ensemble can fit.

    An ensemble needs at least ``SUBSAMPLE_MIN`` rows and, with feature bagging,
    2 features.  Returns the qubits a component measures: ``rotation_dim(d)``
    with feature bagging, ``d`` without.
    """
    if n < SUBSAMPLE_MIN:
        raise ValueError(f"an ensemble needs at least {SUBSAMPLE_MIN} training points, got {n}")
    if rfb_enabled and d < 2:
        raise ValueError("rotated feature bagging needs at least 2 post-PCA features")
    return rotation_dim(d) if rfb_enabled else d


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
    qubits = check_train_set(n, d, cfg.rfb_enabled)

    draws = []
    for size in sample_sizes(component_count(n), rng):
        indices = rng.choice(n, size=min(size, n), replace=False)
        projection = random_rotation(d, qubits, rng) if cfg.rfb_enabled else None
        draws.append((indices, projection, *(int(rng.integers(0, 2**63 - 1)) for _ in range(3))))

    def fit_component(idx: int) -> tuple[Component, float, float, int]:
        indices, projection, fit_seed, solver_seed, score_seed = draws[idx]
        try:
            sub = X_train[indices]
            if projection is not None:
                sub = sub @ projection

            t0 = time.perf_counter()
            gram, train = build_gram_train(sub, cfg.base_kernel, np.random.default_rng(fit_seed))
            t1 = time.perf_counter()
            model = ocsvm.fit(gram, cfg.nu, np.random.default_rng(solver_seed))
            t2 = time.perf_counter()

            train_scores = ocsvm.decision_scores(model, gram)
            component = Component(
                subsample_indices=indices,
                train=train,
                projection=projection,
                model=model,
                train_score_mean=float(train_scores.mean()),
                train_score_std=float(train_scores.std()),
                score_seed=score_seed,
            )
            return component, t1 - t0, t2 - t1, gram.eval_count
        except Exception as exc:
            raise RuntimeError(
                f"ensemble component {idx} failed to fit: {type(exc).__name__}: {exc}"
            ) from exc

    components, gram_times, solver_times, evals = zip(
        *_on_forked_workers(fit_component, len(draws))
    )
    return EnsembleModel(
        components=components,
        aggregation=cfg.aggregation,
        num_features=d,
        gram_time_s=sum(gram_times),
        solver_time_s=sum(solver_times),
        train_eval_count=sum(evals),
    )


def _component_scores(comp: Component, X_test: np.ndarray) -> tuple[np.ndarray, int]:
    """The component's normalized scores and its cross Gram's evaluation count."""
    X_proj = X_test @ comp.projection if comp.projection is not None else X_test
    cross = build_gram_cross(X_proj, comp.train, np.random.default_rng(comp.score_seed))
    raw = ocsvm.decision_scores(comp.model, cross)
    std = comp.train_score_std if comp.train_score_std >= _STD_FLOOR else 1.0
    return (raw - comp.train_score_mean) / std, cross.eval_count


def score_vs(model: EnsembleModel, X_test: np.ndarray) -> tuple[np.ndarray, int]:
    """Aggregated normalized decision scores and the kernel evaluations they cost.

    Negative scores mean anomaly.  The count sums the ``eval_count`` of the
    components' cross Grams.  Scoring is repeatable: each component reuses
    the measurement stream seed stored at fit time, so calling twice gives
    identical scores.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != model.num_features:
        raise ValueError(
            f"expected (t, {model.num_features}) test matrix, got shape {X_test.shape}"
        )
    scores, evals = zip(*_on_forked_workers(
        lambda k: _component_scores(model.components[k], X_test), len(model.components)
    ))
    stacked = np.stack(scores)
    aggregated = stacked.mean(axis=0) if model.aggregation == "mean" else stacked.max(axis=0)
    return aggregated, sum(evals)
