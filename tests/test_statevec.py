import numpy as np
import pytest

from oracles import apply_iqp_adjoint, inner_product, iqp_circuit_oracle, kron_apply_oracle
from qkad.statevec import (
    FeatureMapConfig,
    apply_local,
    born_counts,
    encode_iqp,
    sample_haar_setting,
)


def random_state(d, rng):
    amps = rng.normal(size=2**d) + 1j * rng.normal(size=2**d)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# encode_iqp
# ---------------------------------------------------------------------------


def test_zero_input_two_layers_gives_all_zeros_state():
    state = encode_iqp(np.zeros(2), FeatureMapConfig(num_qubits=2, layers=2))
    assert np.allclose(state, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("d,layers,lam", [(1, 2, 3.0), (2, 2, 3.0), (3, 1, 1.5), (4, 3, 0.7)])
def test_encode_output_is_normalized(d, layers, lam, rng):
    cfg = FeatureMapConfig(num_qubits=d, layers=layers, angle_scale=lam)
    for _ in range(5):
        state = encode_iqp(rng.uniform(-2, 2, size=d), cfg)
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


def test_states_and_settings_are_plain_arrays(rng):
    state = encode_iqp(rng.uniform(-1, 1, size=3), FeatureMapConfig(num_qubits=3))
    assert state.shape == (8,) and state.dtype == np.complex128
    setting = sample_haar_setting(3, rng)
    assert setting.shape == (3, 2, 2) and setting.dtype == np.complex128
    rotated = apply_local(state, setting)
    assert rotated.shape == (8,) and rotated.dtype == np.complex128


def test_encode_matches_dense_circuit_oracle_reference_point():
    x = np.array([0.3, -0.7])
    cfg = FeatureMapConfig(num_qubits=2, layers=2, angle_scale=3.0)
    expected = iqp_circuit_oracle(x, d=2, layers=2, lam=3.0)
    assert np.max(np.abs(encode_iqp(x, cfg) - expected)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_encode_matches_dense_circuit_oracle_random(d, rng):
    for layers, lam in [(1, 3.0), (2, 3.0), (2, 1.2)]:
        x = rng.uniform(-1.5, 1.5, size=d)
        cfg = FeatureMapConfig(num_qubits=d, layers=layers, angle_scale=lam)
        expected = iqp_circuit_oracle(x, d=d, layers=layers, lam=lam)
        assert np.max(np.abs(encode_iqp(x, cfg) - expected)) < 1e-12


def test_diagonal_gates_commute_any_application_order(rng):
    # shuffling the order of the (commuting) Rz/Rzz gates in the oracle
    # must reproduce the same amplitudes
    x = rng.uniform(-1, 1, size=3)
    cfg = FeatureMapConfig(num_qubits=3, layers=2, angle_scale=3.0)
    got = encode_iqp(x, cfg)
    for k in range(4):
        shuffled = iqp_circuit_oracle(x, d=3, layers=2, lam=3.0, rng=np.random.default_rng(k))
        assert np.max(np.abs(got - shuffled)) < 1e-12


def test_encode_dimension_mismatch():
    with pytest.raises(ValueError, match="2-dimensional"):
        encode_iqp(np.zeros(3), FeatureMapConfig(num_qubits=2))


def test_feature_map_config_validation():
    with pytest.raises(ValueError):
        FeatureMapConfig(num_qubits=0)
    with pytest.raises(ValueError):
        FeatureMapConfig(num_qubits=2, layers=0)
    with pytest.raises(ValueError):
        FeatureMapConfig(num_qubits=2, angle_scale=0.0)


def test_adjoint_roundtrip_recovers_initial_state(rng):
    cfg = FeatureMapConfig(num_qubits=3)
    x = rng.uniform(-1, 1, size=3)
    state = apply_iqp_adjoint(encode_iqp(x, cfg), x, cfg)
    assert abs(state[0]) ** 2 > 1.0 - 1e-12


# ---------------------------------------------------------------------------
# sample_haar_setting
# ---------------------------------------------------------------------------


def test_haar_setting_matrices_are_unitary(rng):
    setting = sample_haar_setting(5, rng)
    for u in setting:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10


def test_haar_setting_seed_determinism():
    a = sample_haar_setting(3, np.random.default_rng(7))
    b = sample_haar_setting(3, np.random.default_rng(7))
    c = sample_haar_setting(3, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_first_moment_is_half():
    # E |<0|U|0>|^2 = 1/2 for Haar-random SU(2); Monte Carlo over 1e5 draws
    setting = sample_haar_setting(100_000, np.random.default_rng(11))
    mean = np.mean(np.abs(setting[:, 0, 0]) ** 2)
    assert abs(mean - 0.5) < 0.01


# ---------------------------------------------------------------------------
# apply_local
# ---------------------------------------------------------------------------


def test_apply_local_identity_is_noop(rng):
    state = random_state(3, rng)
    eye = np.stack([np.eye(2, dtype=complex)] * 3)
    assert np.allclose(apply_local(state, eye), state, atol=1e-14)


def test_apply_local_preserves_norm(rng):
    for _ in range(5):
        state = random_state(3, rng)
        setting = sample_haar_setting(3, rng)
        out = apply_local(state, setting)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-10


def test_apply_local_matches_kron_oracle(rng):
    state = random_state(2, rng)
    setting = sample_haar_setting(2, rng)
    expected = kron_apply_oracle(setting, state)
    assert np.max(np.abs(apply_local(state, setting) - expected)) < 1e-12


def test_apply_local_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="qubits"):
        apply_local(random_state(2, rng), sample_haar_setting(3, rng))


# ---------------------------------------------------------------------------
# Born sampling
# ---------------------------------------------------------------------------


def test_measure_deterministic_state(rng):
    state = np.array([1, 0, 0, 0], dtype=complex)
    counts = born_counts(state, 100, rng)
    assert counts.tolist() == [100, 0, 0, 0]


def test_measure_uniform_superposition_frequency():
    state = np.array([1, 1], dtype=complex) / np.sqrt(2)
    counts = born_counts(state, 10**6, np.random.default_rng(3))
    assert abs(counts[0] / 10**6 - 0.5) < 0.002  # 3 sigma + slack


def test_measure_total_shots_conserved(rng):
    for _ in range(5):
        state = random_state(3, rng)
        counts = born_counts(state, 137, rng)
        assert counts.sum() == 137
        assert counts.shape == (8,)


def test_measure_zero_shots_rejected(rng):
    state = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="shots"):
        born_counts(state, 0, rng)


def test_measure_bit_identical_given_seed():
    cfg = FeatureMapConfig(num_qubits=2)
    x = np.array([0.4, -1.2])
    a = born_counts(encode_iqp(x, cfg), 5000, np.random.default_rng(42))
    b = born_counts(encode_iqp(x, cfg), 5000, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_born_counts_shape(rng):
    state = random_state(2, rng)
    dense = born_counts(state, 50, rng)
    assert dense.shape == (4,) and dense.sum() == 50


# ---------------------------------------------------------------------------
# inner_product
# ---------------------------------------------------------------------------


def test_inner_product_self_is_one(rng):
    state = random_state(3, rng)
    assert abs(inner_product(state, state) - 1.0) < 1e-10


def test_inner_product_orthogonal_basis_states():
    zero = np.array([1, 0, 0, 0], dtype=complex)
    three = np.array([0, 0, 0, 1], dtype=complex)
    assert inner_product(zero, three) == 0


def test_inner_product_conjugate_symmetry(rng):
    a, b = random_state(2, rng), random_state(2, rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)


def test_inner_product_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(random_state(1, rng), random_state(2, rng))

