import logging

import numpy as np
import pytest

from oracles import assert_dual_feasible, dual_objective, projected_gradient_qp
from qkad import ocsvm
from qkad.data import SplitSpec, generate_synthetic
from qkad.kernel import GramMatrix, KernelConfig, build_gram_cross, build_gram_train
from qkad.ocsvm import (
    OCSVMModel,
    _initial_alpha,
    decision_scores,
    fit,
)


def sym_gram(entries):
    entries = np.asarray(entries, dtype=float)
    return GramMatrix(entries=entries, symmetric=True, eval_count=0)


def as_cross(gram):
    return GramMatrix(entries=gram.entries, symmetric=False, eval_count=0)


def random_psd_gram(n, rng):
    V = rng.normal(size=(n, 2 * n))
    G = V @ V.T / (2 * n)
    return sym_gram(0.5 * (G + G.T))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_identity_gram_nu_one_forces_uniform_alphas(rng):
    gram = sym_gram(np.eye(4))
    model = fit(gram, nu=1.0, rng=rng)
    assert np.allclose(model.alphas, 0.25, atol=1e-12)
    assert model.rho == pytest.approx(0.25, abs=1e-12)
    scores = decision_scores(model, as_cross(gram))
    assert np.allclose(scores, 0.0, atol=1e-12)
    assert_dual_feasible(model)


def test_degenerate_identical_points(rng):
    gram = sym_gram(np.ones((2, 2)))
    model = fit(gram, nu=0.5, rng=rng)
    assert dual_objective(gram.entries, model.alphas) == pytest.approx(0.5, abs=1e-9)
    scores = decision_scores(model, as_cross(gram))
    assert np.allclose(scores, 0.0, atol=1e-9)
    assert model.rho == pytest.approx(1.0, abs=1e-9)


def test_eight_point_gram_matches_projected_gradient_oracle(rng, monkeypatch):
    monkeypatch.setattr(ocsvm, "TOLERANCE", 1e-6)
    gram = random_psd_gram(8, rng)
    nu = 0.25
    model = fit(gram, nu, np.random.default_rng(1))
    alpha_oracle = projected_gradient_qp(gram.entries, cap=1.0 / (nu * 8))
    obj_solver = dual_objective(gram.entries, model.alphas)
    obj_oracle = dual_objective(gram.entries, alpha_oracle)
    assert abs(obj_solver - obj_oracle) <= 1e-4

    margins_oracle = gram.entries @ alpha_oracle
    cap = 1.0 / (nu * 8)
    sv = alpha_oracle > 1e-8
    interior = sv & (alpha_oracle < cap - 1e-8)
    rho_oracle = margins_oracle[interior if interior.any() else sv].mean()
    scores_solver = decision_scores(model, as_cross(gram))
    scores_oracle = margins_oracle - rho_oracle
    assert np.max(np.abs(scores_solver - scores_oracle)) <= 1e-4
    assert_dual_feasible(model)


def test_fit_feasible_across_random_problems(rng):
    for n, nu in [(5, 0.4), (9, 0.2), (12, 1.0), (16, 0.51)]:
        model = fit(random_psd_gram(n, rng), nu, rng=rng)
        assert model.converged
        assert_dual_feasible(model)


def test_objective_monotone_over_accepted_updates(rng, monkeypatch):
    # replaying fit capped at k updates on the same seed gives the alphas
    # after each accepted update; the objective must never rise along them
    monkeypatch.setattr(ocsvm, "TOLERANCE", 1e-8)
    gram = random_psd_gram(10, rng)
    model = fit(gram, 0.3, np.random.default_rng(3))
    assert model.iterations > 10
    history = [dual_objective(gram.entries, _initial_alpha(10, 0.3))]
    for k in range(1, model.iterations + 1):
        monkeypatch.setattr(ocsvm, "MAX_ITERATIONS", k)
        replay = fit(gram, 0.3, np.random.default_rng(3))
        assert replay.iterations == k
        history.append(dual_objective(gram.entries, replay.alphas))
    assert np.array_equal(replay.alphas, model.alphas)
    assert np.all(np.diff(history) <= 1e-12)


def test_indefinite_gram_terminates_and_stays_feasible(rng):
    entries = random_psd_gram(8, rng).entries - 0.3 * np.eye(8)
    assert np.linalg.eigvalsh(entries).min() < 0
    model = fit(sym_gram(entries), nu=0.5, rng=rng)
    assert_dual_feasible(model)


def test_step_that_cannot_lower_objective_stops_unconverged(caplog):
    # the diagonals of points 3 and 4 sum past the float range, so a step
    # between them has infinite curvature and rounds to zero: the solver
    # stops there, unconverged, instead of looping or leaving the box
    entries = np.array([
        [1.0, 0.9, 0.1, 0.2, 0.0],
        [0.9, 1.0, 1.5, 0.3, 0.1],
        [0.1, 1.5, 1.0, 0.4, 0.2],
        [0.2, 0.3, 0.4, 1e308, 0.5],
        [0.0, 0.1, 0.2, 0.5, 1e308],
    ])
    assert np.linalg.eigvalsh(entries[:3, :3]).min() < 0
    with caplog.at_level(logging.WARNING, logger="qkad.ocsvm"):
        with np.errstate(over="ignore", invalid="ignore"):
            model = fit(sym_gram(entries), 0.5, np.random.default_rng(0))
    assert not model.converged
    assert model.iterations < ocsvm.MAX_ITERATIONS
    assert any("KKT tolerance" in r.message for r in caplog.records)
    assert_dual_feasible(model)


def test_iteration_cap_flags_result(rng, caplog, monkeypatch):
    monkeypatch.setattr(ocsvm, "TOLERANCE", 1e-12)
    monkeypatch.setattr(ocsvm, "MAX_ITERATIONS", 2)
    gram = random_psd_gram(10, rng)
    with caplog.at_level(logging.WARNING, logger="qkad.ocsvm"):
        model = fit(gram, 0.3, rng)
    assert not model.converged
    assert model.iterations == 2
    assert any("KKT tolerance" in r.message for r in caplog.records)
    assert_dual_feasible(model)


def test_fit_rejects_bad_inputs(rng):
    asym = GramMatrix(entries=np.array([[1.0, 0.2], [0.1, 1.0]]), symmetric=False, eval_count=0)
    with pytest.raises(ValueError, match="symmetric"):
        fit(asym, 0.5, rng=rng)
    gram = sym_gram(np.eye(4))
    with pytest.raises(ValueError, match="infeasible"):
        fit(gram, 0.1, rng=rng)  # nu*n = 0.4 < 1
    with pytest.raises(ValueError, match="nu"):
        fit(gram, 1.5, rng=rng)


def test_fit_deterministic_given_seed(rng):
    gram = sym_gram(np.eye(6))  # fully degenerate: tie-breaking exercised
    a = fit(gram, 0.5, rng=np.random.default_rng(3))
    b = fit(gram, 0.5, rng=np.random.default_rng(3))
    assert np.array_equal(a.alphas, b.alphas)
    assert a.rho == b.rho


def test_fit_is_invariant_to_training_row_order(monkeypatch):
    # a row-and-column permutation of the Gram describes the same problem,
    # so a tightly converged fit scores test points the same either way
    monkeypatch.setattr(ocsvm, "TOLERANCE", 1e-10)
    rng = np.random.default_rng(3)
    X, X_test = rng.normal(size=(60, 2)) * 0.1, rng.normal(size=(15, 2)) * 0.1
    cfg = KernelConfig(kind="exact")
    gram, states = build_gram_train(X, cfg, rng)
    cross = build_gram_cross(X_test, states, rng)
    perm = rng.permutation(60)
    permuted = sym_gram(gram.entries[np.ix_(perm, perm)])
    permuted_cross = GramMatrix(entries=cross.entries[:, perm], symmetric=False, eval_count=0)
    model = fit(gram, 0.2, np.random.default_rng(5))
    permuted_model = fit(permuted, 0.2, np.random.default_rng(6))
    np.testing.assert_allclose(
        decision_scores(permuted_model, permuted_cross), decision_scores(model, cross),
        rtol=0, atol=1e-7,
    )


def test_support_indices_match_threshold(rng):
    gram = random_psd_gram(10, rng)
    model = fit(gram, 0.3, rng=rng)
    assert np.array_equal(model.support_indices, np.flatnonzero(model.alphas > 1e-8))


def test_rho_counts_a_coefficient_just_above_the_support_threshold():
    # 5e-7 is above the 1e-8 threshold: point 2 is a support vector and, like
    # point 1 (5e-7 below the cap), interior, so rho averages their margins
    cap = 0.5
    alpha = np.array([cap, cap - 5e-7, 5e-7])
    G = np.diag([1.0, 2.0, 3.0]) + 0.1
    margins = G @ alpha
    assert ocsvm._compute_rho(G, alpha, cap) == margins[[1, 2]].mean()


# ---------------------------------------------------------------------------
# decision_scores
# ---------------------------------------------------------------------------


def test_interior_point_test_row_reproduces_training_score(rng):
    gram = random_psd_gram(12, rng)
    model = fit(gram, 0.25, rng=rng)
    train_scores = decision_scores(model, as_cross(gram))
    non_sv = np.setdiff1d(np.arange(12), model.support_indices)
    assert non_sv.size > 0
    i = int(non_sv[0])
    row = GramMatrix(entries=gram.entries[i : i + 1], symmetric=False, eval_count=0)
    assert decision_scores(model, row)[0] == pytest.approx(train_scores[i], abs=1e-14)


def test_decision_scores_column_mismatch(rng):
    model = fit(sym_gram(np.eye(4)), 1.0, rng=rng)
    bad = GramMatrix(entries=np.ones((2, 5)), symmetric=False, eval_count=0)
    with pytest.raises(ValueError, match="columns"):
        decision_scores(model, bad)


# ---------------------------------------------------------------------------
# nu-property on the exact-kernel pipeline
# ---------------------------------------------------------------------------


def test_nu_property_on_synthetic_exact_kernel():
    nu, n = 0.1, 100
    train, _ = generate_synthetic(
        SplitSpec(train_size=n, test_size=125, test_anomaly_ratio=0.05), np.random.default_rng(0)
    )
    X = train.features * 0.1  # angle rescale used for circuit-fed kernels
    gram, _ = build_gram_train(X, KernelConfig(kind="exact"), np.random.default_rng(1))
    model = fit(gram, nu, rng=np.random.default_rng(2))
    scores = decision_scores(model, as_cross(gram))
    outlier_fraction = np.mean(scores < 0)
    sv_fraction = model.support_indices.size / n
    assert outlier_fraction <= nu + 2.0 / n
    assert sv_fraction >= nu - 2.0 / n
