"""nu-one-class SVM on precomputed kernel matrices.

Solves the dual problem

    min_alpha  1/2 alpha^T G alpha
    s.t.       0 <= alpha_i <= 1/(nu n),   sum_i alpha_i = 1

by pairwise coordinate updates: each step picks the pair with the largest
KKT violation (ties broken at random from the caller's seeded stream) and
moves mass between the two coordinates, which keeps both constraints intact.
A selected pair has a positive KKT gap and room to move, so every step lowers
the objective, also on the indefinite Grams that shot-noise kernels produce.
Only a float overflow of the pair's curvature can defeat that; a step that
does not lower the objective stops the solver unconverged.

The offset ``rho`` is the mean of ``(G alpha)_i`` over margin support vectors
(coefficients strictly inside the box, with 1e-8 slack), falling back to the
mean over all support vectors when no coefficient is strictly inside.  New
points score as ``sum_i alpha_i K(x_new, x_i) - rho``; negative means anomaly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernel import GramMatrix

__all__ = [
    "OCSVMModel",
    "SolverConfig",
    "fit",
    "decision_scores",
    "predict",
    "dual_objective",
]

logger = logging.getLogger(__name__)

SUPPORT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-3
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class OCSVMModel:
    """Fitted dual solution over a fixed training kernel."""

    alphas: np.ndarray
    support_indices: np.ndarray
    rho: float
    nu: float
    n_train: int
    converged: bool
    iterations: int


def dual_objective(G: np.ndarray, alpha: np.ndarray) -> float:
    """Value of ``1/2 alpha^T G alpha``."""
    return float(0.5 * alpha @ (G @ alpha))


def _initial_alpha(n: int, nu: float) -> np.ndarray:
    """Feasible start: first floor(nu n) coordinates at the box cap."""
    cap = 1.0 / (nu * n)
    alpha = np.zeros(n)
    full = int(np.floor(nu * n))
    alpha[:full] = cap
    if full < n:
        alpha[full] = 1.0 - full * cap
    return alpha


def _choose(candidates: np.ndarray, rng: np.random.Generator) -> int:
    if candidates.size == 1:
        return int(candidates[0])
    return int(rng.choice(candidates))


def _compute_rho(G: np.ndarray, alpha: np.ndarray, cap: float) -> float:
    margins = G @ alpha
    support = alpha > SUPPORT_THRESHOLD
    interior = support & (alpha < cap - SUPPORT_THRESHOLD)
    chosen = interior if np.any(interior) else support
    return float(margins[chosen].mean())


def fit(
    gram: GramMatrix,
    nu: float,
    cfg: SolverConfig = SolverConfig(),
    rng: np.random.Generator | None = None,
) -> OCSVMModel:
    """Solve the dual on a symmetric training Gram.

    Raises on non-square or asymmetric input and on infeasible ``nu``
    (``nu * n < 1`` leaves no feasible point).  Hitting the iteration cap,
    or a step that does not lower the objective, returns a model with
    ``converged=False`` and logs a warning; it never fails silently.
    """
    if not gram.symmetric:
        raise ValueError("training Gram must be symmetric")
    G = gram.entries
    n = G.shape[0]
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    if nu * n < 1:
        raise ValueError(f"infeasible nu: nu*n = {nu * n} < 1")
    if rng is None:
        rng = np.random.default_rng(0)

    cap = 1.0 / (nu * n)
    alpha = _initial_alpha(n, nu)
    grad = G @ alpha

    converged = False
    iterations = 0
    while iterations < cfg.max_iterations:
        up = alpha < cap
        low = alpha > 0.0
        if not np.any(up) or not np.any(low):
            converged = True
            break
        neg_grad = -grad
        up_best = np.max(neg_grad[up])
        low_best = np.min(neg_grad[low])
        if up_best - low_best <= cfg.tolerance:
            converged = True
            break

        up_idx = np.flatnonzero(up & (neg_grad == up_best))
        low_idx = np.flatnonzero(low & (neg_grad == low_best))
        i = _choose(up_idx, rng)
        j = _choose(low_idx, rng)

        quad = G[i, i] + G[j, j] - 2.0 * G[i, j]
        room = min(cap - alpha[i], alpha[j])
        gap = neg_grad[i] - neg_grad[j]
        if quad > 0:
            step = min(gap / quad, room)
        else:
            step = room
        delta_obj = -gap * step + 0.5 * quad * step * step
        if delta_obj > 0 or step <= 0:
            break

        iterations += 1
        alpha[i] += step
        alpha[j] -= step
        if cap - alpha[i] < 1e-12 * cap:
            alpha[i] = cap
        if alpha[j] < 1e-12 * cap:
            alpha[j] = 0.0
        grad = grad + step * (G[:, i] - G[:, j])

    if not converged:
        logger.warning(
            "OC-SVM solver stopped after %d updates without reaching KKT tolerance %g",
            iterations,
            cfg.tolerance,
        )

    rho = _compute_rho(G, alpha, cap)
    support = np.flatnonzero(alpha > SUPPORT_THRESHOLD)
    return OCSVMModel(
        alphas=alpha,
        support_indices=support,
        rho=rho,
        nu=nu,
        n_train=n,
        converged=converged,
        iterations=iterations,
    )


def decision_scores(model: OCSVMModel, cross: GramMatrix) -> np.ndarray:
    """Scores ``sum_i alpha_i K(x_k, x_i) - rho`` for each row of ``cross``."""
    if cross.cols != model.n_train:
        raise ValueError(
            f"cross Gram has {cross.cols} columns, model was trained on {model.n_train} points"
        )
    return cross.entries @ model.alphas - model.rho


def predict(scores: np.ndarray) -> np.ndarray:
    """Label scores: 1 (anomaly) when negative, 0 (normal) otherwise."""
    scores = np.asarray(scores, dtype=float)
    return (scores < 0).astype(np.int64)
