import numpy as np
import pytest

from qkad.pipeline import (
    PCAParams,
    ScalerParams,
    apply_pca,
    apply_preprocess,
    apply_scaler,
    fit_pca,
    fit_preprocess,
    fit_scaler,
)


# ---------------------------------------------------------------------------
# scaler
# ---------------------------------------------------------------------------


def test_scaler_standardizes_training_data(rng):
    X = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
    params = fit_scaler(X)
    Z = apply_scaler(params, X)
    assert np.max(np.abs(Z.mean(axis=0))) < 1e-10
    assert np.max(np.abs(Z.std(axis=0) - 1.0)) < 1e-10


def test_scaler_constant_feature_maps_to_zero(rng):
    X = rng.normal(size=(50, 3))
    X[:, 1] = 7.25
    params = fit_scaler(X)
    Z = apply_scaler(params, X)
    assert np.array_equal(Z[:, 1], np.zeros(50))
    assert params.std[1] == 1.0


def test_scaler_round_trip_recovers_input(rng):
    X = rng.normal(size=(30, 3))
    params = fit_scaler(X)
    Z = apply_scaler(params, X)
    assert np.max(np.abs(Z * params.std + params.mean - X)) < 1e-12


def test_scaler_needs_two_rows():
    with pytest.raises(ValueError):
        fit_scaler(np.ones((1, 3)))


def test_fitted_parameters_reject_a_zero_std_and_non_orthonormal_components():
    with pytest.raises(ValueError, match="std components must be positive"):
        ScalerParams(mean=np.zeros(2), std=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="orthonormal columns"):
        PCAParams(mean=np.zeros(2), components=np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# pca
# ---------------------------------------------------------------------------


def test_pca_full_rank_preserves_pairwise_distances(rng):
    X = rng.normal(size=(40, 5))
    params = fit_pca(X, 5)
    Y = apply_pca(params, X)
    d_before = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    d_after = np.linalg.norm(Y[:, None] - Y[None, :], axis=2)
    assert np.max(np.abs(d_before - d_after)) < 1e-8


def test_pca_explained_variance_nonincreasing(rng):
    X = rng.normal(size=(60, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    variances = apply_pca(fit_pca(X, 6), X).var(axis=0, ddof=1)
    assert np.all(np.diff(variances) <= 1e-12)


def test_pca_rank_one_data_captured_by_first_component(rng):
    direction = np.array([2.0, -1.0])
    t = rng.normal(size=(80, 1))
    X = t * direction + 5.0
    X = X + 1e-9 * rng.normal(size=X.shape)
    variances = apply_pca(fit_pca(X, 2), X).var(axis=0, ddof=1)
    ratio = variances[0] / variances.sum()
    assert ratio >= 0.99999


def test_pca_sign_convention_deterministic(rng):
    X = rng.normal(size=(50, 4))
    a = fit_pca(X, 3)
    b = fit_pca(X.copy(), 3)
    assert np.array_equal(a.components, b.components)
    for col in range(3):
        peak = np.argmax(np.abs(a.components[:, col]))
        assert a.components[peak, col] > 0


def test_pca_m_out_of_range(rng):
    X = rng.normal(size=(10, 4))
    with pytest.raises(ValueError):
        fit_pca(X, 5)
    with pytest.raises(ValueError):
        fit_pca(X, 0)


# ---------------------------------------------------------------------------
# kernel rescale
# ---------------------------------------------------------------------------


def _chain(X_train, X, kind, m):
    return apply_preprocess(fit_preprocess(X_train, kind, m), X)


def test_rescale_angle_kinds_multiply_by_tenth(rng):
    X = rng.normal(size=(30, 4))
    for kind in ("inversion_test", "exact"):
        assert np.array_equal(_chain(X, X, kind, 3), _chain(X, X, "rbf", 3) * 0.1)


def test_rescale_randomized_shrinks_by_sqrt_m(rng):
    X = rng.normal(size=(100, 6)) * np.array([1.0, 3.0, 0.5, 2.0, 1.5, 0.7])
    out = _chain(X, X, "randomized", 4)
    # after the secondary standardization each column has std 1, so the
    # 1/sqrt(M) factor leaves columns with std exactly 0.5 for M = 4
    assert np.max(np.abs(out.std(axis=0) - 0.5)) < 1e-10


def test_rescale_rbf_is_identity_bit_exact(rng):
    X = rng.normal(size=(20, 3))
    params = fit_preprocess(X, "rbf", 2)
    assert params.post is None and params.factor == 1.0
    expected = apply_pca(params.pca, apply_scaler(params.scaler, X))
    assert np.array_equal(apply_preprocess(params, X), expected)


def test_rescale_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        fit_preprocess(np.eye(3), "bogus", 1)


def test_rescale_test_data_uses_training_parameters(rng):
    X_train = rng.normal(size=(50, 4))
    X_test = rng.normal(size=(10, 4)) + 4.0
    params = fit_preprocess(X_train, "randomized", 3)
    reduced_train = apply_pca(params.pca, apply_scaler(params.scaler, X_train))
    reduced_test = apply_pca(params.pca, apply_scaler(params.scaler, X_test))
    expected = (reduced_test - reduced_train.mean(axis=0)) / reduced_train.std(axis=0) / np.sqrt(3)
    assert np.max(np.abs(apply_preprocess(params, X_test) - expected)) < 1e-12


# ---------------------------------------------------------------------------
# composite pipeline
# ---------------------------------------------------------------------------


def test_preprocess_no_test_leakage(rng):
    X_train = rng.normal(size=(60, 5))
    X_test = rng.normal(loc=10.0, size=(20, 5))
    params_train = fit_preprocess(X_train, "inversion_test", 3)
    params_both = fit_preprocess(np.vstack([X_train, X_test]), "inversion_test", 3)
    assert not np.allclose(params_train.scaler.mean, params_both.scaler.mean)
    # test rows transformed with training parameters only
    out = apply_preprocess(params_train, X_test)
    scaled = apply_scaler(params_train.scaler, X_test)
    expected = apply_pca(params_train.pca, scaled) * 0.1
    assert np.array_equal(out, expected)


def test_preprocess_deterministic(rng):
    X = rng.normal(size=(40, 4))
    a = apply_preprocess(fit_preprocess(X, "randomized", 2), X)
    b = apply_preprocess(fit_preprocess(X.copy(), "randomized", 2), X.copy())
    assert np.array_equal(a, b)
