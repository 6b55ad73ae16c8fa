"""nu-one-class SVM on precomputed kernel matrices.

Solves the dual problem

    min_alpha  1/2 alpha^T G alpha
    s.t.       0 <= alpha_i <= 1/(nu n),   sum_i alpha_i = 1

by pairwise coordinate updates: each step picks the pair with the largest
KKT violation (ties broken at random from the caller's seeded stream) and
moves mass between the two coordinates, which keeps both constraints intact.
It stops converged once that violation is at most ``TOLERANCE``, and
unconverged after ``MAX_ITERATIONS`` updates; every run uses these two values.
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
    "check_nu",
    "fit",
    "decision_scores",
]

logger = logging.getLogger(__name__)

SUPPORT_THRESHOLD = 1e-8
TOLERANCE = 1e-3
MAX_ITERATIONS = 100_000


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


def check_nu(nu: float, n: int) -> None:
    """Reject a ``nu`` outside ``(0, 1]``, or one for which ``n`` points leave no feasible dual.

    The box ``alpha_i <= 1/(nu n)`` with ``sum_i alpha_i = 1`` needs ``nu * n >= 1``.
    """
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    if nu * n < 1:
        raise ValueError(f"infeasible nu: nu*n = {nu * n} < 1")


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


def fit(gram: GramMatrix, nu: float, rng: np.random.Generator) -> OCSVMModel:
    """Solve the dual on a symmetric training Gram.

    Raises on non-square or asymmetric input and on a ``nu`` that
    :func:`check_nu` rejects for the Gram's ``n`` points.  Hitting the
    iteration cap, or a step that does not lower the objective, returns a
    model with ``converged=False`` and logs a warning; it never fails silently.
    """
    if not gram.symmetric:
        raise ValueError("training Gram must be symmetric")
    G = gram.entries
    n = G.shape[0]
    check_nu(nu, n)

    cap = 1.0 / (nu * n)
    alpha = _initial_alpha(n, nu)
    grad = G @ alpha

    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS:
        up = alpha < cap
        low = alpha > 0.0
        if not np.any(up) or not np.any(low):
            converged = True
            break
        # i can take mass at the least gradient, j give it at the greatest
        up_best = np.min(grad[up])
        low_best = np.max(grad[low])
        if low_best - up_best <= TOLERANCE:
            converged = True
            break

        up_idx = np.flatnonzero(up & (grad == up_best))
        low_idx = np.flatnonzero(low & (grad == low_best))
        i = _choose(up_idx, rng)
        j = _choose(low_idx, rng)

        quad = G[i, i] + G[j, j] - 2.0 * G[i, j]
        room = min(cap - alpha[i], alpha[j])
        gap = grad[j] - grad[i]
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
        grad += step * (G[i] - G[j])

    if not converged:
        logger.warning(
            "OC-SVM solver stopped after %d updates without reaching KKT tolerance %g",
            iterations,
            TOLERANCE,
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
