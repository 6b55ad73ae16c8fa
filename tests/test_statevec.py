import re
import tracemalloc

import numpy as np
import pytest

import qkad.statevec
from oracles import (
    apply_gates_unpaired,
    apply_iqp_adjoint,
    encode_iqp_point,
    inner_product,
    iqp_circuit_oracle,
    kron_apply_oracle,
)
from qkad.statevec import (
    FeatureMapConfig,
    apply_local,
    born_counts,
    encode_iqp,
    pair_gates,
    sample_haar_setting,
)


def encode_one(x, cfg):
    return encode_iqp(np.asarray(x)[None], cfg)[0]


def random_state(d, rng):
    amps = rng.normal(size=2**d) + 1j * rng.normal(size=2**d)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# encode_iqp
# ---------------------------------------------------------------------------


def test_zero_input_two_layers_gives_all_zeros_state():
    state = encode_one(np.zeros(2), FeatureMapConfig(layers=2))
    assert np.allclose(state, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("d,layers,lam", [(1, 2, 3.0), (2, 2, 3.0), (3, 1, 1.5), (4, 3, 0.7)])
def test_encode_output_is_normalized(d, layers, lam, rng):
    cfg = FeatureMapConfig(layers=layers, angle_scale=lam)
    for _ in range(5):
        state = encode_one(rng.uniform(-2, 2, size=d), cfg)
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


def test_states_and_settings_are_plain_arrays(rng):
    state = encode_one(rng.uniform(-1, 1, size=3), FeatureMapConfig())
    assert state.shape == (8,) and state.dtype == np.complex128
    setting = sample_haar_setting(3, rng)
    assert setting.shape == (3, 2, 2) and setting.dtype == np.complex128
    rotated = apply_local(state, pair_gates(setting))
    assert rotated.shape == (8,) and rotated.dtype == np.complex128


def test_encode_matches_dense_circuit_oracle_reference_point():
    x = np.array([0.3, -0.7])
    cfg = FeatureMapConfig(layers=2, angle_scale=3.0)
    expected = iqp_circuit_oracle(x, d=2, layers=2, lam=3.0)
    assert np.max(np.abs(encode_one(x, cfg) - expected)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_encode_matches_dense_circuit_oracle_random(d, rng):
    for layers, lam in [(1, 3.0), (2, 3.0), (2, 1.2)]:
        x = rng.uniform(-1.5, 1.5, size=d)
        cfg = FeatureMapConfig(layers=layers, angle_scale=lam)
        expected = iqp_circuit_oracle(x, d=d, layers=layers, lam=lam)
        assert np.max(np.abs(encode_one(x, cfg) - expected)) < 1e-12


def test_diagonal_gates_commute_any_application_order(rng):
    # shuffling the order of the (commuting) Rz/Rzz gates in the oracle
    # must reproduce the same amplitudes
    x = rng.uniform(-1, 1, size=3)
    cfg = FeatureMapConfig(layers=2, angle_scale=3.0)
    got = encode_one(x, cfg)
    for k in range(4):
        shuffled = iqp_circuit_oracle(x, d=3, layers=2, lam=3.0, rng=np.random.default_rng(k))
        assert np.max(np.abs(got - shuffled)) < 1e-12


def test_encode_dimension_mismatch():
    # the qubit count is the input width, so only an empty stack, a zero-width
    # stack or an input that is not a 2-D row stack is wrong
    for shape in [(0, 3), (2, 0), (3,), (2, 3, 4)]:
        message = r"non-empty \(n, d\) row stack, got shape " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            encode_iqp(np.zeros(shape), FeatureMapConfig())
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        qkad.statevec._iqp_layer_angles(np.zeros(3), FeatureMapConfig())


@pytest.mark.parametrize("d", range(1, 11))
def test_batched_encode_is_bit_identical_to_per_point_encode(d, monkeypatch):
    # d=10 runs the real block of 204 rows; below that it holds hundreds to a
    # million rows, so it shrinks to 3 and the row counts stay small
    if d < 10:
        monkeypatch.setattr(qkad.statevec, "_BLOCK_BYTES", 3 * 8 * 2**d * d)
    block = qkad.statevec._BLOCK_BYTES // (8 * 2**d * d)
    rng = np.random.default_rng(100 + d)
    for cfg in (FeatureMapConfig(), FeatureMapConfig(layers=3, angle_scale=0.7)):
        for n in sorted({1, block - 1, block, block + 1} - {0}):
            X = rng.uniform(-2, 2, size=(n, d))
            expected = np.stack([encode_iqp_point(x, cfg) for x in X])
            assert np.array_equal(encode_iqp(X, cfg), expected)


@pytest.mark.parametrize("d", range(1, 11))
def test_paired_apply_local_is_bit_identical_to_unpaired_form(d, rng):
    for _ in range(3):
        state, setting = random_state(d, rng), sample_haar_setting(d, rng)
        expected = apply_gates_unpaired(state, setting)
        assert np.array_equal(apply_local(state, pair_gates(setting)), expected)
    # a stack is rotated row by row as a lone state would be
    setting = sample_haar_setting(d, rng)
    for n in (1, 2, 16):
        stack = np.stack([random_state(d, rng) for _ in range(n)])
        rotated = apply_local(stack, pair_gates(setting))
        assert rotated.shape == stack.shape
        for row, state in zip(rotated, stack):
            assert np.array_equal(row, apply_gates_unpaired(state, setting))


def test_encode_memory_stays_near_its_output():
    # the whole (256, 2^14, 14) float angle tensor would take 470 MB; encoded
    # in blocks, the peak is the 64 MiB of states plus three block-sized
    # temporaries; the peak also counts the encoding's own (2^d, d) sign
    # table (106.3 MiB measured with numpy 2.4)
    n, d = 256, 14
    assert 8 * n * 2**d * d >= 256 * 2**20
    X = np.random.default_rng(0).uniform(-1, 1, size=(n, d))
    tracemalloc.start()
    try:
        states = encode_iqp(X, FeatureMapConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= states.nbytes + 3 * qkad.statevec._BLOCK_BYTES


def test_feature_map_config_validation():
    with pytest.raises(ValueError):
        FeatureMapConfig(layers=0)
    with pytest.raises(ValueError):
        FeatureMapConfig(angle_scale=0.0)
    # an infinite scale makes every angle NaN, so the encoded states are NaN
    for scale in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"angle_scale must be > 0 and finite, got {scale}"):
            FeatureMapConfig(angle_scale=scale)


def test_adjoint_roundtrip_recovers_initial_state(rng):
    cfg = FeatureMapConfig()
    x = rng.uniform(-1, 1, size=3)
    state = apply_iqp_adjoint(encode_one(x, cfg), x, cfg)
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
    assert np.allclose(apply_local(state, pair_gates(eye)), state, atol=1e-14)


def test_apply_local_preserves_norm(rng):
    for _ in range(5):
        state = random_state(3, rng)
        setting = sample_haar_setting(3, rng)
        out = apply_local(state, pair_gates(setting))
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-10


def test_apply_local_matches_kron_oracle(rng):
    # odd and even d: the gates are applied in pairs, an odd last one alone
    for d in range(1, 9):
        state = random_state(d, rng)
        setting = sample_haar_setting(d, rng)
        expected = kron_apply_oracle(setting, state)
        assert np.max(np.abs(apply_local(state, pair_gates(setting)) - expected)) < 1e-12


def test_apply_local_dimension_mismatch(rng):
    pairs = pair_gates(sample_haar_setting(3, rng))
    for amps in (random_state(2, rng), np.zeros((5, 4), complex), np.zeros((2, 3, 8), complex)):
        message = "setting has 3 qubits, state or stack has shape " + re.escape(str(amps.shape))
        with pytest.raises(ValueError, match=message):
            apply_local(amps, pairs)


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
    cfg = FeatureMapConfig()
    x = np.array([0.4, -1.2])
    a = born_counts(encode_one(x, cfg), 5000, np.random.default_rng(42))
    b = born_counts(encode_one(x, cfg), 5000, np.random.default_rng(42))
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

