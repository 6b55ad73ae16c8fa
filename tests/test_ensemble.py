import numpy as np
import pytest

from oracles import gram_schmidt
from qkad import ensemble
from qkad.ensemble import (
    VSConfig,
    component_count,
    fit_vs,
    random_rotation,
    rotation_dim,
    sample_sizes,
    score_vs,
)
from qkad.kernel import KernelConfig
from qkad.ocsvm import decision_scores


def exact_cfg():
    return KernelConfig(kind="exact")


def rm_cfg(**kw):
    defaults = dict(rm_settings=4, rm_shots=64, mitigate=False)
    defaults.update(kw)
    return KernelConfig(kind="randomized", **defaults)


def it_cfg():
    return KernelConfig(kind="inversion_test", it_shots=32)


def cluster_data(n, d, rng, scale=0.1):
    return rng.normal(size=(n, d)) * scale


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def test_sample_sizes_within_default_range(rng):
    sizes = sample_sizes(200, rng)
    assert all(50 <= s <= 100 for s in sizes)
    assert len(sizes) == 200


def test_component_count_policy():
    assert component_count(500) == 5
    assert component_count(199) == 1
    assert component_count(60) == 1  # floor would be 0; clamped


def test_sample_sizes_mean_matches_uniform(rng):
    sizes = sample_sizes(10_000, rng)
    assert abs(np.mean(sizes) - 75.0) < 1.0


def test_sample_sizes_invalid_range(rng):
    with pytest.raises(ValueError):
        sample_sizes(0, rng)


@pytest.mark.parametrize("d,expected", [(28, 5), (6, 4), (10, 4), (2, 2), (1, 1)])
def test_rotation_dim(d, expected):
    assert rotation_dim(d) == expected


def test_random_rotation_orthonormal_columns(rng):
    for _ in range(10):
        E = random_rotation(8, 4, rng)
        assert np.max(np.abs(E.T @ E - np.eye(4))) < 1e-10
        assert np.max(np.abs(np.linalg.norm(E, axis=0) - 1.0)) < 1e-10


@pytest.mark.parametrize("d", [2, 6, 10, 28])
def test_random_rotation_is_the_gram_schmidt_basis_of_its_draw(d):
    r_prime = rotation_dim(d)
    for seed in range(20):
        E = random_rotation(d, r_prime, np.random.default_rng(seed))
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d, r_prime))
        # float64 rounding over at most 28 rows stays far below this bound
        np.testing.assert_allclose(E, gram_schmidt(y), rtol=0, atol=1e-12)


def test_random_rotation_preserves_distances_in_expectation(rng):
    d, r_prime = 10, 4
    ratios = []
    for _ in range(2000):
        E = random_rotation(d, r_prime, rng)
        v = rng.normal(size=d)
        ratios.append(np.sum((v @ E) ** 2) / np.sum(v**2))
    assert abs(np.mean(ratios) - r_prime / d) < 0.1 * (r_prime / d)


def test_random_rotation_bad_dims(rng):
    with pytest.raises(ValueError):
        random_rotation(3, 4, rng)


def test_random_rotation_zero_draw_gives_orthonormal_columns():
    class ZeroRng:
        def uniform(self, lo, hi, size):
            return np.zeros(size)

    E = random_rotation(4, 2, ZeroRng())
    assert E.shape == (4, 2)
    assert np.max(np.abs(E.T @ E - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# fit_vs
# ---------------------------------------------------------------------------


def test_fit_vs_default_policy_shapes(rng):
    X = cluster_data(500, 2, rng)
    model = fit_vs(X, VSConfig(base_kernel=exact_cfg(), nu=0.1), rng)
    assert len(model.components) == 5
    for comp in model.components:
        assert 50 <= comp.subsample_indices.size <= 100
        assert np.unique(comp.subsample_indices).size == comp.subsample_indices.size


def test_fit_vs_rfb_components_train_on_projected_features(rng):
    X = cluster_data(120, 6, rng)
    model = fit_vs(X, VSConfig(base_kernel=rm_cfg(), nu=0.1, rfb_enabled=True), rng)
    for comp in model.components:
        assert comp.projection.shape == (6, 4)  # rotation_dim(6) = 4
        assert comp.train.num_features == 4
        assert np.max(np.abs(comp.projection.T @ comp.projection - np.eye(4))) < 1e-10


def test_fit_vs_inversion_eval_budget(rng):
    X = cluster_data(500, 2, rng)
    model = fit_vs(X, VSConfig(base_kernel=it_cfg(), nu=0.1), rng)
    per_comp = [c.subsample_indices.size for c in model.components]
    assert model.train_eval_count == sum(s * (s - 1) // 2 for s in per_comp)
    assert model.train_eval_count <= 5 * 100**2 / 2


def test_fit_vs_needs_enough_points(rng):
    with pytest.raises(ValueError, match="at least 50 training points"):
        fit_vs(cluster_data(40, 2, rng), VSConfig(base_kernel=exact_cfg(), nu=0.1), rng)


def test_fit_vs_component_failure_is_fatal_with_index(rng, monkeypatch):
    def failing_gram(*args):
        raise ValueError("gram failed")

    monkeypatch.setattr(ensemble, "build_gram_train", failing_gram)
    X = cluster_data(100, 2, rng)
    with pytest.raises(RuntimeError, match="component 0 failed to fit: ValueError: gram failed"):
        fit_vs(X, VSConfig(base_kernel=rm_cfg(), nu=0.1), rng)


def test_fit_vs_deterministic(rng):
    X = cluster_data(150, 2, np.random.default_rng(0))
    cfg = VSConfig(base_kernel=rm_cfg(), nu=0.1)
    a = fit_vs(X, cfg, np.random.default_rng(4))
    b = fit_vs(X, cfg, np.random.default_rng(4))
    X_test = cluster_data(20, 2, np.random.default_rng(1))
    assert np.array_equal(score_vs(a, X_test)[0], score_vs(b, X_test)[0])
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.subsample_indices, cb.subsample_indices)


def test_vs_config_validation():
    with pytest.raises(ValueError, match="aggregation"):
        VSConfig(base_kernel=exact_cfg(), nu=0.1, aggregation="median")
    with pytest.raises(ValueError, match="nu"):
        VSConfig(base_kernel=exact_cfg(), nu=0.0)


# ---------------------------------------------------------------------------
# score_vs
# ---------------------------------------------------------------------------


def test_score_vs_single_component_equals_normalized_scores(rng):
    # 50 points give one component, and it sees all of them
    X = cluster_data(50, 2, rng)
    X_test = cluster_data(10, 2, rng)
    model = fit_vs(X, VSConfig(base_kernel=exact_cfg(), nu=0.2), np.random.default_rng(2))
    (comp,) = model.components
    assert comp.subsample_indices.size == 50
    from qkad.kernel import build_gram_cross

    cross = build_gram_cross(X_test, comp.train, np.random.default_rng(comp.score_seed))
    expected = (decision_scores(comp.model, cross) - comp.train_score_mean) / comp.train_score_std
    assert np.allclose(score_vs(model, X_test)[0], expected, atol=1e-12)


def test_score_vs_max_dominates_mean(rng):
    X = cluster_data(200, 2, rng)
    X_test = cluster_data(25, 2, rng)
    base = VSConfig(base_kernel=exact_cfg(), nu=0.1, aggregation="mean")
    seed = 8
    mean_model = fit_vs(X, base, np.random.default_rng(seed))
    from dataclasses import replace

    max_model = fit_vs(X, replace(base, aggregation="max"), np.random.default_rng(seed))
    assert np.all(score_vs(max_model, X_test)[0] >= score_vs(mean_model, X_test)[0] - 1e-12)


def test_score_vs_reuses_stored_projection_bit_exactly(rng):
    X = cluster_data(200, 6, np.random.default_rng(10))
    X_test = cluster_data(8, 6, np.random.default_rng(11))
    cfg = VSConfig(base_kernel=rm_cfg(), nu=0.1, rfb_enabled=True)
    model = fit_vs(X, cfg, np.random.default_rng(12))
    assert len(model.components) == 2
    from qkad.kernel import build_gram_cross

    stacked = []
    for comp in model.components:
        cross = build_gram_cross(
            X_test @ comp.projection, comp.train, np.random.default_rng(comp.score_seed)
        )
        raw = decision_scores(comp.model, cross)
        std = comp.train_score_std if comp.train_score_std >= 1e-12 else 1.0
        stacked.append((raw - comp.train_score_mean) / std)
    expected = np.mean(stacked, axis=0)
    assert np.array_equal(score_vs(model, X_test)[0], expected)


def test_score_vs_repeated_calls_identical(rng):
    X = cluster_data(100, 2, rng)
    X_test = cluster_data(12, 2, rng)
    model = fit_vs(X, VSConfig(base_kernel=rm_cfg(), nu=0.1), rng)
    assert np.array_equal(score_vs(model, X_test)[0], score_vs(model, X_test)[0])


def test_score_vs_dimension_mismatch(rng):
    X = cluster_data(100, 2, rng)
    model = fit_vs(X, VSConfig(base_kernel=exact_cfg(), nu=0.1), rng)
    with pytest.raises(ValueError, match="test matrix"):
        score_vs(model, cluster_data(5, 3, rng))


def test_cross_eval_count_matches_measured(rng):
    # the count score_vs reports is the sum of its components' build_gram_cross counts
    X = cluster_data(130, 2, rng)
    X_test = cluster_data(9, 2, rng)
    from qkad.kernel import build_gram_cross

    for base in (it_cfg(), rm_cfg()):
        model = fit_vs(X, VSConfig(base_kernel=base, nu=0.1), np.random.default_rng(6))
        measured = 0
        for comp in model.components:
            cross = build_gram_cross(X_test, comp.train, np.random.default_rng(0))
            measured += cross.eval_count
        assert score_vs(model, X_test)[1] == measured
