"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with plain ``pytest tests/test_acceptance.py``; the PASS lines are
emitted outside pytest's capture so they always appear.  Statistical
tolerances were calibrated over repeated trials during development; every
test is frozen to fixed seeds and therefore deterministic.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    assert_dual_feasible,
    average_precision_oracle,
    f1_oracle,
    frank_wolfe_gap,
)
from qkad import pipeline
from qkad.cli import RunConfig, records_to_jsonl, run_experiment
from qkad.data import SplitSpec, generate_synthetic
from qkad.ensemble import VSConfig, component_count, fit_vs, rotation_dim, sample_sizes
from qkad.kernel import GramMatrix, KernelConfig, build_gram_cross, build_gram_train
from qkad.metrics import average_precision, confusion, f1, precision_recall
from qkad.ocsvm import SolverConfig, decision_scores, fit

EXACT = KernelConfig(kind="exact")


@pytest.fixture
def announce(capsys):
    def _announce(number: int, detail: str) -> None:
        with capsys.disabled():
            print(f"[ACCEPTANCE] criterion {number}: PASS ({detail})")

    return _announce


def exact_gram(X):
    gram, _ = build_gram_train(X, EXACT, np.random.default_rng(0))
    return gram


def pipeline_scores(seed: int, n_train: int = 100, nu: float = 0.1):
    """Exact-kernel single-model run over the full preprocessing chain."""
    data_rng, train_rng, solver_rng, _ = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    spec = SplitSpec(train_size=n_train, test_size=125, test_anomaly_ratio=0.3)
    train, test = generate_synthetic(spec, data_rng)
    prep = pipeline.fit_preprocess(train.features, "exact", 2)
    X_train = pipeline.apply_preprocess(prep, train.features)
    X_test = pipeline.apply_preprocess(prep, test.features)
    gram, states = build_gram_train(X_train, EXACT, train_rng)
    model = fit(gram, nu, SolverConfig(), solver_rng)
    train_scores = decision_scores(model, GramMatrix(gram.entries, False, 0))
    test_scores = decision_scores(model, build_gram_cross(X_test, states, EXACT))
    return model, train_scores, test_scores, test.labels


def test_criterion_1_estimator_oracle_agreement(announce):
    # eight points at the angle scale the preprocessing chain feeds into
    # circuit-based kernels
    X = np.random.default_rng(100).uniform(-0.1, 0.1, size=(8, 2))
    exact = exact_gram(X).entries

    shots = 10**5
    it_cfg = KernelConfig(kind="inversion_test", it_shots=shots)
    it_gram, _ = build_gram_train(X, it_cfg, np.random.default_rng(102))
    iu = np.triu_indices(8, k=1)
    worst_sigma = 0.0
    for p, est in zip(exact[iu], it_gram.entries[iu]):
        bound = 3.0 * math.sqrt(p * (1.0 - p) / shots)
        assert abs(est - p) <= bound
        worst_sigma = max(worst_sigma, abs(est - p) / (bound / 3.0))

    rm_cfg = KernelConfig(kind="randomized", rm_settings=30,
                          rm_shots=9000, mitigate=True)
    rm_gram, _ = build_gram_train(X, rm_cfg, np.random.default_rng(102))
    rm_err = np.max(np.abs(rm_gram.entries - exact))
    assert rm_err <= 0.05
    announce(1, f"IT within 3-sigma (worst {worst_sigma:.2f} sigma), RM max err {rm_err:.4f}")


def test_criterion_2_error_decreases_with_shots(announce):
    X = np.random.default_rng(7).uniform(-0.1, 0.1, size=(6, 2))
    exact = exact_gram(X).entries
    iu = np.triu_indices(6, k=1)
    means = []
    for s in (100, 1000, 9000):
        cfg = KernelConfig(kind="randomized", rm_settings=30,
                           rm_shots=s, mitigate=True)
        errs = [
            np.mean(np.abs(build_gram_train(X, cfg, np.random.default_rng(1000 + k))[0].entries[iu]
                           - exact[iu]))
            for k in range(20)
        ]
        means.append(float(np.mean(errs)))
    assert means[0] > means[1] > means[2]
    announce(2, "mean |K_RM - K_exact| over shots {100,1000,9000}: "
                + " > ".join(f"{m:.5f}" for m in means))


def test_criterion_3_solver_matches_projected_gradient_oracle(announce):
    rng = np.random.default_rng(123)
    problems = []
    for k in range(20):
        n = (8, 10, 12)[k % 3]
        nu = (0.25, 0.5)[k % 2]
        V = rng.normal(size=(n, 2 * n))
        G = V @ V.T / (2 * n)
        problems.append((0.5 * (G + G.T), n, nu))

    # the Frank-Wolfe gap bounds the solver's objective excess over the exact
    # optimum, so no approximate reference solution is needed
    worst = 0.0
    for G, n, nu in problems:
        model = fit(GramMatrix(G, True, 0), nu, SolverConfig(tolerance=1e-6),
                    np.random.default_rng(0))
        assert_dual_feasible(model)
        gap = frank_wolfe_gap(G, model.alphas, 1.0 / (nu * n))
        assert gap <= 1e-4
        worst = max(worst, gap)
    announce(3, f"20 PSD grams, worst Frank-Wolfe gap {worst:.2e} <= 1e-4")


def test_criterion_4_nu_property(announce):
    worst_outlier, worst_sv = 0.0, 1.0
    for seed in range(15):
        model, train_scores, _, _ = pipeline_scores(seed)
        outlier_fraction = float(np.mean(train_scores < 0))
        sv_fraction = model.support_indices.size / model.n_train
        assert outlier_fraction <= 0.12
        assert sv_fraction >= 0.08
        worst_outlier = max(worst_outlier, outlier_fraction)
        worst_sv = min(worst_sv, sv_fraction)
    announce(4, f"15 seeds: outlier fraction <= {worst_outlier:.2f}, "
                f"support fraction >= {worst_sv:.2f}")


def test_criterion_5_evaluation_count_complexity(announce):
    rng = np.random.default_rng(10)
    X10 = rng.uniform(-1, 1, size=(10, 2))
    it_gram, _ = build_gram_train(
        X10, KernelConfig(kind="inversion_test", it_shots=16), rng
    )
    assert it_gram.eval_count == 10 * 9 // 2

    X6 = rng.uniform(-1, 1, size=(6, 2))
    rm_gram, _ = build_gram_train(
        X6, KernelConfig(kind="randomized", rm_settings=5,
                         rm_shots=64, mitigate=False), rng
    )
    assert rm_gram.eval_count == 6 * 5

    # An inversion-test ensemble spends s(s-1)/2 evaluations on a component
    # of s points, so its total follows from the subsample-size draws alone.
    # One real fit per n checks that formula; the 40-seed means use it.
    def it_total(n: int, seed: int, fit: bool) -> int:
        run_rng = np.random.default_rng(1000 * n + seed)
        X = run_rng.normal(size=(n, 2)) * 0.1
        if fit:
            return fit_vs(X, VSConfig(base_kernel=it_cfg, nu=0.1), run_rng).train_eval_count
        return sum(s * (s - 1) // 2 for s in sample_sizes(component_count(n), run_rng))

    it_cfg = KernelConfig(kind="inversion_test", it_shots=16)
    sizes = np.array([200, 500, 1000], dtype=float)
    means = []
    for n in (200, 500, 1000):
        assert it_total(n, 0, fit=True) == it_total(n, 0, fit=False)
        means.append(float(np.mean([it_total(n, seed, fit=False) for seed in range(40)])))
    means = np.array(means)
    slope = float((means * sizes).sum() / (sizes * sizes).sum())
    deviations = np.abs(means - slope * sizes) / (slope * sizes)
    assert np.max(deviations) <= 0.15
    announce(5, f"exact counts hold; VS totals follow {slope:.1f}*n "
                f"within {100 * np.max(deviations):.1f}%")


def test_criterion_6_rotated_feature_bagging(announce):
    assert rotation_dim(28) == 5

    rm_cfg = KernelConfig(kind="randomized",
                          rm_settings=8, rm_shots=512, mitigate=False)
    vs_cfg = VSConfig(base_kernel=rm_cfg, nu=0.1, rfb_enabled=True)

    def timed_fit(d: int, fit_seed: int):
        X = np.random.default_rng(99).normal(size=(200, d)) * 0.1
        start = time.perf_counter()
        model = fit_vs(X, vs_cfg, np.random.default_rng(fit_seed))
        elapsed = time.perf_counter() - start
        for comp in model.components:
            r_prime = comp.projection.shape[1]
            assert np.max(np.abs(comp.projection.T @ comp.projection - np.eye(r_prime))) <= 1e-10
            assert comp.train.num_qubits == rotation_dim(d)
        return elapsed / len(model.components), model

    # one fit seed gives identical subsample sizes and both widths project
    # to rotation_dim(6) = rotation_dim(10) = 4 qubits, so the only
    # d-dependent work is the (negligible) projection sampling.  The widths
    # are timed alternately on repeats of that same work and compared by
    # their fastest repeat, the one least disturbed by other load on the host.
    t6, t10 = [], []
    for _ in range(7):
        time6, model6 = timed_fit(6, 7)
        time10, model10 = timed_fit(10, 7)
        sizes6 = [c.subsample_indices.size for c in model6.components]
        assert sizes6 == [c.subsample_indices.size for c in model10.components]
        assert model6.train_eval_count == model10.train_eval_count
        t6.append(time6)
        t10.append(time10)
    ratio = min(t10) / min(t6)
    assert 1 / 1.25 <= ratio <= 1.25
    announce(6, f"r'(28)=5, projections orthonormal, equal sizes and eval counts, "
                f"fastest time/component d=10 vs d=6 ratio {ratio:.3f}")


def test_criterion_7_metric_oracles(announce):
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        scores = np.round(rng.uniform(size=n), 2)
        predictions = rng.integers(0, 2, size=n)
        assert average_precision(scores, labels) == pytest.approx(
            average_precision_oracle(scores, labels), abs=1e-12
        )
        prec, rec = precision_recall(confusion(labels, predictions))
        assert f1(prec, rec) == pytest.approx(f1_oracle(labels, predictions), abs=1e-12)

    n, ratio = 200, 0.3
    labels = (np.arange(n) < ratio * n).astype(int)
    mean_ap = float(np.mean([
        average_precision(rng.uniform(size=n), labels) for _ in range(1000)
    ]))
    assert abs(mean_ap - ratio) <= 0.05
    announce(7, f"AP/F1 exact on 100 instances; random-detector AP {mean_ap:.3f} ~ {ratio}")


def test_criterion_8_end_to_end_beats_random_floor(announce):
    aps = []
    for seed in range(15):
        _, _, test_scores, labels = pipeline_scores(seed)
        aps.append(average_precision(-test_scores, labels))
    mean_ap = float(np.mean(aps))
    assert mean_ap > 0.35
    announce(8, f"mean AP over 15 seeds {mean_ap:.3f} > 0.35 (random floor 0.3)")


def test_criterion_9_byte_identical_harness_output(announce):
    configs = [
        RunConfig(method="rm", dataset="synthetic", train_size=40, seeds=(0, 1),
                  rm_settings=4, rm_shots=64, record_timings=False),
        RunConfig(method="vs-it", dataset="synthetic", train_size=120, seeds=(0, 1),
                  it_shots=32, record_timings=False),
    ]
    total = 0
    for cfg in configs:
        first = records_to_jsonl(run_experiment(cfg))
        second = records_to_jsonl(run_experiment(cfg))
        assert first == second
        total += len(first.splitlines())
    announce(9, f"two reruns of {total // 2} records each are byte-identical")
