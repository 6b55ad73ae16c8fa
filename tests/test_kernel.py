import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

import qkad.kernel
import qkad.statevec
from qkad.statevec import (
    FeatureMapConfig,
    encode_iqp,
    local_factors,
    sample_haar_settings,
)
from qkad.kernel import (
    KERNEL_KINDS,
    DegenerateSignatureError,
    GramMatrix,
    KernelConfig,
    SignatureCache,
    build_gram_cross,
    build_gram_train,
    collect_signature,
    rbf_auto_gamma,
    rm_purity,
)
from oracles import (
    _hamming_coefficients,
    apply_paired,
    exact_fidelity,
    hamming,
    inner_product,
    inversion_test,
    inversion_test_gram,
    mitigate,
    paired_factors,
    rbf_entry,
    rm_kernel_entry,
    rm_purity_einsum,
    sample_haar_setting,
)

FM2 = FeatureMapConfig()


def uniform_counts(r: int, shots: int) -> np.ndarray:
    # ideal maximally-mixed record on one qubit: half the shots per outcome
    return np.full((r, 2), shots // 2, dtype=np.int64)


def random_counts(d: int, r: int, shots: int, rng) -> np.ndarray:
    probs = rng.dirichlet(np.ones(2**d), size=r)
    return np.stack([rng.multinomial(shots, p) for p in probs])


# ---------------------------------------------------------------------------
# exact fidelity
# ---------------------------------------------------------------------------


def test_exact_fidelity_identical_points():
    x = np.array([0.4, -0.9])
    assert exact_fidelity(x, x, FM2) == pytest.approx(1.0, abs=1e-10)


def test_exact_fidelity_zero_points():
    z = np.zeros(2)
    assert exact_fidelity(z, z, FM2) == pytest.approx(1.0, abs=1e-12)


def test_exact_fidelity_matches_inner_product_oracle():
    x, xp = np.array([0.3, -0.7]), np.array([1.1, 0.4])
    state_xp, state_x = encode_iqp(np.stack([xp, x]), FM2)
    overlap = inner_product(state_xp, state_x)
    assert exact_fidelity(x, xp, FM2) == pytest.approx(abs(overlap) ** 2, abs=1e-12)
    assert 0.0 <= exact_fidelity(x, xp, FM2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# inversion test
# ---------------------------------------------------------------------------


def test_inversion_test_identical_points_is_exactly_one(rng):
    x = np.array([0.5, 0.2])
    assert inversion_test(x, x, FM2, 50, rng) == 1.0


def test_inversion_test_converges_to_exact_fidelity():
    x, xp = np.array([0.3, -0.7]), np.array([1.1, 0.4])
    p = exact_fidelity(x, xp, FM2)
    shots = 10**6
    est = inversion_test(x, xp, FM2, shots, np.random.default_rng(1))
    assert abs(est - p) <= 3 * math.sqrt(p * (1 - p) / shots)


def test_inversion_test_estimates_stay_in_unit_interval(rng):
    for _ in range(20):
        x, xp = rng.uniform(-2, 2, size=2), rng.uniform(-2, 2, size=2)
        assert 0.0 <= inversion_test(x, xp, FM2, 25, rng) <= 1.0


def test_inversion_gram_probability_matches_composition_path(rng):
    # the vectorized Gram path derives the all-zeros probability from state
    # overlaps; it must agree with the explicit adjoint-composition circuit
    from oracles import apply_iqp_adjoint

    for _ in range(5):
        x, xp = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        composed = apply_iqp_adjoint(encode_iqp(x[None], FM2)[0], xp, FM2)
        p_circuit = abs(composed[0]) ** 2
        assert p_circuit == pytest.approx(exact_fidelity(x, xp, FM2), abs=1e-12)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def signature(x, fm, settings, shots, rng):
    """One point's shot counts, encoded and factored the way ``_represent`` does it."""
    return collect_signature(encode_iqp(x[None], fm), local_factors(settings), shots, [rng])[0]


def test_collect_signature_shape_and_normalization(rng):
    settings = sample_haar_settings(5, 2, rng)
    counts = signature(np.array([0.2, 0.8]), FM2, settings, 600, rng)
    assert counts.shape == (5, 4)
    assert np.max(np.abs((counts / 600.0).sum(axis=1) - 1.0)) < 1e-12


def test_collect_signature_zero_input_matches_born_oracle(rng):
    # x = 0 encodes |00>, so each stored distribution is the Born
    # distribution of U|00>, i.e. |first column of U|^2
    setting = sample_haar_settings(1, 2, rng)[0]
    counts = signature(np.zeros(2), FM2, setting[None], 10**5, rng)
    u_full = np.kron(setting[0], setting[1])
    born = np.abs(u_full[:, 0]) ** 2
    assert np.max(np.abs(counts[0] / 10**5 - born)) < 4 / math.sqrt(10**5)


@pytest.mark.parametrize("d, n", [(3, 40), (6, 40), (10, 12)])
def test_rm_counts_and_purities_equal_those_of_the_paired_rotation(d, n, monkeypatch):
    # the half-register factors move states only in their last bits; the shot
    # counts and purities drawn from them equal those of the paired rotation
    # the package used before, encoding's Hadamard layers included
    cfg = KernelConfig(kind="randomized", rm_settings=30, rm_shots=9000)
    X = np.random.default_rng(40 + d).uniform(-1, 1, size=(n, d))
    factored = qkad.kernel._represent(X, cfg, np.random.default_rng(d))
    for module in (qkad.statevec, qkad.kernel):
        monkeypatch.setattr(module, "local_factors", paired_factors)
        monkeypatch.setattr(module, "apply_local", apply_paired)
    paired = qkad.kernel._represent(X, cfg, np.random.default_rng(d))
    assert np.array_equal(factored.settings, paired.settings)
    assert np.array_equal(factored.counts, paired.counts)
    assert np.array_equal(factored.purities, paired.purities)


def test_collect_signature_rejects_mismatched_settings(rng):
    factors = local_factors(sample_haar_settings(1, 3, rng))
    with pytest.raises(ValueError, match="qubits"):
        collect_signature(encode_iqp(np.zeros((1, 2)), FM2), factors, 10, [rng])


def test_collect_signature_rejects_empty_settings(rng):
    factors = local_factors(np.empty((0, 2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="at least one measurement setting"):
        collect_signature(encode_iqp(np.zeros((1, 2)), FM2), factors, 10, [rng])


# ---------------------------------------------------------------------------
# hamming
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b,expected", [("00", "00", 0), ("01", "11", 1), ("0101", "1010", 4)])
def test_hamming_examples(a, b, expected):
    assert hamming(a, b) == expected


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        hamming("00", "000")


def test_coefficient_table_matches_hamming_distance():
    from qkad.kernel import _hamming_factor

    table = _hamming_factor(3)
    for s in range(8):
        for t in range(8):
            expected = (-2.0) ** (-hamming(format(s, "03b"), format(t, "03b")))
            assert table[s, t] == expected


@pytest.mark.parametrize("d", range(0, 9))
def test_coefficient_table_is_kronecker_power(d):
    # the (-2)^(-H) table factors per qubit, which _hamming_weighted relies on
    from qkad.kernel import _hamming_factor

    factor = np.array([[1.0, -0.5], [-0.5, 1.0]])
    kron = np.ones((1, 1))
    for _ in range(d):
        kron = np.kron(kron, factor)
    assert np.array_equal(_hamming_factor(d), kron)
    assert not _hamming_factor(d).flags.writeable


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("lead", [(7,), (3, 5)], ids=["r", "n-r"])
def test_hamming_weighted_matches_the_dense_table(d, lead):
    from qkad.kernel import _hamming_weighted

    f = np.random.default_rng(60 + d).random((*lead, 2**d))
    expected = f @ _hamming_coefficients(d)
    weighted = _hamming_weighted(f)
    assert weighted.shape == f.shape
    assert np.max(np.abs(weighted - expected)) <= 1e-12


def _forbid(monkeypatch, *names):
    import qkad.kernel

    def unreachable(*args, **kwargs):
        raise AssertionError("encoded or measured a point before the size check")

    for name in names:
        monkeypatch.setattr(qkad.kernel, name, unreachable)


def test_randomized_gram_builds_at_14_qubits():
    # no table of 4^d entries is built, so d = 14 fits in a few MB
    cfg = KernelConfig(kind="randomized", rm_settings=2, rm_shots=2, mitigate=False)
    X = np.random.default_rng(3).uniform(-0.1, 0.1, size=(2, 14))
    gram, train = build_gram_train(X, cfg, np.random.default_rng(0))
    assert gram.entries.shape == (2, 2)
    assert train.points.counts.shape == (2, 2, 2**14)


@pytest.mark.parametrize(
    "kind, d, n, message",
    [
        # (500, 2^22) complex states take 31.25 GiB
        ("inversion_test", 22, 500, r"inversion_test kernel at d=22 qubits and n=500 points "
         r"needs 33554432000 bytes for its \(n, 2\^d\) complex feature states"),
        # (5000, 30, 2^12) int64 counts take 4.6 GiB
        ("randomized", 12, 5000, r"needs 4915200000 bytes for its \(n, r, 2\^d\) int64 counts"),
        # the (2^28, 28) float table takes 56 GiB, more than two 4 GiB states
        ("exact", 28, 2, r"needs 60129542144 bytes for its \(2\^d, d\) basis-sign table"),
    ],
    ids=["states", "counts", "basis-signs"],
)
def test_quantum_point_sets_over_1_gib_fail_before_encoding(kind, d, n, message, monkeypatch):
    _forbid(monkeypatch, "encode_iqp", "collect_signature", "sample_haar_settings")
    cfg = KernelConfig(kind=kind)
    with pytest.raises(ValueError, match=message):
        build_gram_train(np.zeros((n, d)), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# randomized-measurement post-processing
# ---------------------------------------------------------------------------


def test_rm_kernel_entry_uniform_single_qubit_is_half():
    counts = uniform_counts(r=4, shots=1000)
    assert rm_kernel_entry(counts, counts, 1000) == 0.5  # exact float arithmetic


def test_rm_kernel_entry_bit_exact_symmetry(rng):
    for _ in range(10):
        a = random_counts(2, 7, 300, rng)
        b = random_counts(2, 7, 300, rng)
        assert rm_kernel_entry(a, b, 300) == rm_kernel_entry(b, a, 300)


def test_rm_kernel_entry_rejects_mismatched_records(rng):
    a = random_counts(1, 4, 100, rng)
    b = random_counts(2, 4, 100, rng)
    with pytest.raises(ValueError, match="qubit"):
        rm_kernel_entry(a, b, 100)
    c = random_counts(1, 5, 100, rng)
    with pytest.raises(ValueError, match="setting"):
        rm_kernel_entry(a, c, 100)


def test_rm_mitigated_entries_close_to_exact_fidelity():
    # desk-scale inputs at the feeding scale of the preprocessing chain;
    # tolerance calibrated over repeated trials (Haar noise dominates)
    X = np.random.default_rng(10).uniform(-0.1, 0.1, size=(6, 2))
    cfg = KernelConfig(kind="randomized", feature_map=FM2, rm_settings=30, rm_shots=9000)
    gram, _ = build_gram_train(X, cfg, np.random.default_rng(11))
    gex, _ = build_gram_train(X, KernelConfig(kind="exact", feature_map=FM2), np.random.default_rng(0))
    assert np.max(np.abs(gram.entries - gex.entries)) <= 0.05


def test_rm_purity_setting_permutation_invariance(rng):
    counts = random_counts(2, 6, 500, rng)
    perm = rng.permutation(6)
    assert rm_purity(counts[perm], 500) == pytest.approx(rm_purity(counts, 500), abs=1e-14)


def test_rm_purity_uniform_counts_closed_form():
    # ideal uniform counts on one qubit: the pair U-statistic evaluates to
    # (s - 4) / (2 (s - 1)) = 0.5 - O(1/s), approaching the mixed-state purity
    for shots in (10, 100, 10000):
        counts = uniform_counts(r=3, shots=shots)
        expected = (shots - 4.0) / (2.0 * (shots - 1.0))
        assert rm_purity(counts, shots) == pytest.approx(expected, abs=1e-12)
        assert abs(rm_purity(counts, shots) - 0.5) <= 1.5 / (shots - 1.0) + 1e-12


def test_rm_purity_unbiased_where_plugin_is_not():
    # exact enumeration over all count tables of s shots from the true
    # uniform single-qubit distribution: the pair U-statistic averages to
    # exactly 1/2 while the plug-in estimator is biased high
    s = 6
    p = 0.5
    mean_u = 0.0
    mean_plugin = 0.0
    for c0 in range(s + 1):
        pmf = math.comb(s, c0) * p**c0 * (1 - p) ** (s - c0)
        counts = np.array([[c0, s - c0]])
        mean_u += pmf * rm_purity(counts, s)
        mean_plugin += pmf * rm_kernel_entry(counts, counts, s)
    assert mean_u == pytest.approx(0.5, abs=1e-12)
    assert mean_plugin > 0.5 + 0.05


def test_rm_purity_pure_states_across_seeds():
    # single-estimate spread at r=30 is Haar-limited (std ~ 0.08); the
    # 15-seed mean must land within 0.05 of the pure-state purity 1
    x = np.array([0.06, -0.03])
    estimates = []
    for seed in range(15):
        rng = np.random.default_rng(500 + seed)
        settings = sample_haar_settings(30, 2, rng)
        counts = signature(x, FM2, settings, 9000, rng)
        estimates.append(rm_purity(counts, 9000))
    estimates = np.array(estimates)
    assert abs(estimates.mean() - 1.0) <= 0.05
    assert np.max(np.abs(estimates - 1.0)) <= 0.25  # 3 sigma of the Haar floor


@pytest.mark.parametrize("d", range(1, 9))
def test_rm_purity_matches_three_operand_einsum_oracle(d):
    rng = np.random.default_rng(40 + d)
    counts = random_counts(d, 7, 1000, rng)
    expected = rm_purity_einsum(counts, 1000)
    assert rm_purity(counts, 1000) == pytest.approx(expected, rel=1e-12, abs=0)


def test_rm_purity_needs_two_shots():
    with pytest.raises(ValueError, match="2 shots"):
        rm_purity(np.array([[1, 0]]), 1)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3)])
def test_rm_purity_takes_one_points_r_by_2_to_the_d_counts(shape):
    with pytest.raises(ValueError, match=re.escape(f"(r, 2**d), got {shape}")):
        rm_purity(np.ones(shape, dtype=np.int64), 10)


# ---------------------------------------------------------------------------
# mitigation
# ---------------------------------------------------------------------------


def test_mitigate_direct_substitution():
    assert mitigate(0.5, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert mitigate(0.37, 1.0, 1.0) == pytest.approx(0.37, abs=1e-12)
    assert mitigate(0.2, 0.8, 0.5) == pytest.approx(0.2 / math.sqrt(0.4), abs=1e-12)


def test_mitigate_rejects_nonpositive_purity():
    with pytest.raises(DegenerateSignatureError):
        mitigate(0.5, 0.0, 1.0)
    with pytest.raises(DegenerateSignatureError):
        mitigate(0.5, 0.3, -0.2)


# ---------------------------------------------------------------------------
# rbf
# ---------------------------------------------------------------------------


def test_rbf_entry_examples():
    x = np.array([0.0, 0.0])
    assert rbf_entry(x, x, 1.3) == 1.0
    assert rbf_entry(x, np.array([1.0, 1.0]), 0.5) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert rbf_entry(x, np.array([5.0, -3.0]), 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_rbf_auto_gamma_matches_total_variance(rng):
    X = rng.normal(size=(40, 3))
    assert rbf_auto_gamma(X) == pytest.approx(1.0 / (3 * X.var()), abs=1e-15)
    # rows with no variance give 1/d
    assert rbf_auto_gamma(np.full((5, 4), 2.5)) == 0.25


def einsum_rbf(a, b):
    # the formula the per-feature sum replaced: the (n, m, d) difference
    # tensor reduced by einsum
    diff = a[:, None, :] - b[None, :, :]
    return np.exp(-rbf_auto_gamma(b) * np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_rbf_row_blocks_equal_the_full_difference_tensor(n, rng, monkeypatch):
    # row bands change only how many rows exist at once; bands of 256 rows
    # put n below, at and above one band.  The reference squares the whole
    # difference tensor and sums its features in order, as the bands do.
    import qkad.kernel
    from qkad.kernel import _kernel_block

    A = rng.normal(size=(n, 5))
    B = rng.normal(size=(70, 5))
    for a, b in ((A, A.copy()), (A, B)):
        monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 256 * 32 * 8 * len(b))
        squares = (a[:, None, :] - b[None, :, :]) ** 2
        full = squares[..., 0].copy()
        for k in range(1, a.shape[1]):
            full += squares[..., k]
        gram = np.exp(-rbf_auto_gamma(b) * full)
        assert _kernel_block(make_cfg("rbf"), a, b).tobytes() == gram.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_rbf_blocks_up_to_two_features_equal_the_einsum_formula(d, monkeypatch):
    # one or two squares sum the same in any order, so the synthetic records
    # cannot move; bands of 16 rows leave a partial last band
    import qkad.kernel
    from qkad.kernel import _kernel_block

    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 16 * 32 * 8 * 300)
    rng = np.random.default_rng(d)
    X, T = rng.normal(size=(300, d)), rng.normal(size=(45, d))
    upper = np.triu_indices(300)
    train = _kernel_block(make_cfg("rbf"), X, X)
    assert train[upper].tobytes() == einsum_rbf(X, X)[upper].tobytes()
    assert _kernel_block(make_cfg("rbf"), T, X).tobytes() == einsum_rbf(T, X).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 28])
def test_rbf_gram_entries_match_the_pair_oracle(d):
    rng = np.random.default_rng(30 + d)
    X, T = rng.normal(size=(40, d)), rng.normal(size=(7, d))
    gram, train = build_gram_train(X, make_cfg("rbf"), rng)
    cross = build_gram_cross(T, train, rng)
    gamma = rbf_auto_gamma(X)
    for rows, entries in ((X, gram.entries), (T, cross.entries)):
        expected = [[rbf_entry(x, y, gamma) for y in X] for x in rows]
        assert np.max(np.abs(entries - expected)) <= 1e-12


def test_rbf_gram_memory_stays_near_its_output():
    # the features are summed in 2-D bands, never in an (n, n, d) tensor
    from qkad.kernel import _BLOCK_BYTES

    X = np.random.default_rng(10).normal(size=(1500, 28))
    tracemalloc.start()
    try:
        gram, _ = build_gram_train(X, make_cfg("rbf"), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= gram.entries.nbytes + _BLOCK_BYTES


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

ALL_KINDS = ["exact", "inversion_test", "randomized", "rbf"]


def make_cfg(kind, **kwargs):
    defaults = dict(it_shots=200, rm_settings=6, rm_shots=300)
    defaults.update(kwargs)
    return KernelConfig(kind=kind, **defaults)


def row_bytes(kind, m, d):
    # bytes of temporaries per band row against m points of d features with
    # make_cfg's 6 settings; rbf bands are sized at 32 times their 8 * m bytes
    return {"rbf": 32 * 8 * m, "randomized": 8 * 6 * 2**d}.get(kind, 16 * m)


@pytest.mark.parametrize(
    "kind, n",
    [pytest.param(kind, n, id=kind if n == 7 else f"{kind}-{n}")
     for kind in ALL_KINDS + ["randomized-unmitigated"] for n in (7, 257, 600)],
)
def test_gram_train_exactly_symmetric(kind, n, rng, monkeypatch):
    # one tile and band, then several 256-square tiles and 100-row bands: the
    # Gram is symmetric by construction and is not checked again, so compare
    # every bit here, and let the public constructor check it as well
    import qkad.kernel

    cfg = make_cfg("randomized", mitigate=False) if kind == "randomized-unmitigated" else make_cfg(kind)
    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 100 * row_bytes(cfg.kind, n, 2))
    X = rng.uniform(-0.5, 0.5, size=(n, 2))
    gram, _ = build_gram_train(X, cfg, rng)
    assert gram.symmetric
    assert gram.entries.tobytes() == gram.entries.T.tobytes()
    GramMatrix(entries=gram.entries, symmetric=True, eval_count=gram.eval_count)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_gram_train_rejects_a_nan_row(kind):
    # every kind rejects the row before encoding, with one message naming it
    for value, row in [(np.nan, 150), (np.inf, 0), (-np.inf, 299)]:
        X = np.random.default_rng(12).uniform(-0.5, 0.5, size=(300, 2))
        X[row, 1] = value
        message = f"Gram entries must be finite; row {row} has a non-finite feature"
        with pytest.raises(ValueError, match=message):
            build_gram_train(X, make_cfg(kind), np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["exact", "inversion_test", "randomized"])
def test_gram_train_names_the_first_row_whose_feature_map_angles_overflow(kind, monkeypatch):
    # encoding blocks of 3 rows put row 7 in the third block, so the row is
    # counted in the whole stack; an overflow warning that escaped would be
    # raised as an error
    monkeypatch.setattr(qkad.statevec, "_BLOCK_BYTES", 3 * 8 * 2**2 * 2)
    X = np.random.default_rng(15).uniform(-0.5, 0.5, size=(40, 2))
    X[7, 0], X[30, 1] = 1e200, -1e200
    message = "^feature-map angles overflow: row 7 has a non-finite angle at angle scale 3.0$"
    with pytest.raises(ValueError, match=message):
        build_gram_train(X, make_cfg(kind), np.random.default_rng(0))


def test_rbf_gram_train_rejects_rows_whose_variance_overflows(monkeypatch):
    # near 1e200 the variance is inf, so gamma is 0 and 0 * inf is NaN; the
    # second band runs on a pool thread, which must see the caller's
    # errstate, or its overflow warning is raised as an error
    from qkad.kernel import _bands

    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    X = np.random.default_rng(13).uniform(-1, 1, size=(300, 2)) * 1e200
    assert len(_bands(300, row_bytes("rbf", 300, 2), upper=True)) >= 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert rbf_auto_gamma(X) == 0.0
        with pytest.raises(ValueError, match="Gram entries must be finite"):
            build_gram_train(X, make_cfg("rbf"), np.random.default_rng(0))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_gram_cross_rejects_a_nan_test_row(kind):
    rng = np.random.default_rng(14)
    _, train = build_gram_train(rng.uniform(-0.5, 0.5, size=(40, 2)), make_cfg(kind), rng)
    T = rng.uniform(-0.5, 0.5, size=(9, 2))
    T[4], T[7, 0] = np.nan, np.inf
    # the first bad row is named, whatever its value
    with pytest.raises(ValueError, match="Gram entries must be finite; row 4 has a non-finite"):
        build_gram_cross(T, train, rng)


def test_rbf_gram_train_memory_stays_near_its_entries():
    # the n x n entries take 30.5 MiB; finiteness is checked band by band,
    # with no n x n bool array
    X = np.random.default_rng(15).normal(size=(2000, 2))
    tracemalloc.start()
    try:
        build_gram_train(X, make_cfg("rbf"), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 33 * 2**20


def triu_mirror(block, diagonal):
    # the copy-and-add formula the tiled in-place mirror replaced; it would
    # turn an upper -0.0 into +0.0, and these blocks hold no signed zeros
    entries = np.triu(block, 1) + np.triu(block, 1).T
    np.fill_diagonal(entries, diagonal)
    return entries


@pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
def test_tiled_mirror_matches_the_triu_formula(n, rng):
    # below, at and above a multiple of the 256-row tile
    from qkad.kernel import _mirror_upper

    block = rng.normal(size=(n, n))
    assert not np.array_equal(block, block.T)
    mirrored = block.copy()
    _mirror_upper(mirrored)
    # the diagonal and the upper triangle are read, never rewritten
    upper = np.triu_indices(n)
    assert mirrored[upper].tobytes() == block[upper].tobytes()
    diagonal = rng.normal(size=n)
    np.fill_diagonal(mirrored, diagonal)
    assert mirrored.tobytes() == triu_mirror(block, diagonal).tobytes()


def test_unmitigated_rm_training_gram_matches_the_triu_formula():
    # the raw RM block is not symmetric in floating point, so a diagonal tile
    # must keep its own upper part instead of taking its transpose
    from qkad.kernel import _kernel_block, _represent

    cfg = make_cfg("randomized", mitigate=False)
    X = np.random.default_rng(3).uniform(-0.5, 0.5, size=(300, 3))
    gram, train = build_gram_train(X, cfg, np.random.default_rng(5))
    replay = _represent(X, cfg, np.random.default_rng(5))
    raw = _kernel_block(cfg, replay, dataclasses.replace(replay))
    assert not np.array_equal(raw, raw.T)
    assert gram.entries.tobytes() == triu_mirror(raw, train.points.purities).tobytes()


@pytest.mark.parametrize("rows", [1, 4, 21], ids=["one-row", "partial-last", "single"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_training_block_upper_triangle_equals_the_full_block(kind, rows, monkeypatch):
    # the same object twice fills only the upper part of each band; its
    # upper triangle, diagonal included, must not change by a bit
    import qkad.kernel
    from qkad.kernel import _kernel_block, _represent

    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", rows * row_bytes(kind, 21, 3))
    cfg = make_cfg(kind)
    rng = np.random.default_rng(21)
    points = _represent(rng.uniform(-0.5, 0.5, size=(21, 3)), cfg, rng)
    twin = dataclasses.replace(points) if isinstance(points, SignatureCache) else points.copy()
    upper = np.triu_indices(21)
    same = _kernel_block(cfg, points, points)
    assert same[upper].tobytes() == _kernel_block(cfg, points, twin)[upper].tobytes()


def test_cross_block_folds_a_one_row_remainder_into_the_last_band(monkeypatch):
    # 9 rows in bands of 4 would leave a 1-row band, whose complex product
    # numpy runs as a matrix-vector product that rounds differently
    import qkad.kernel
    from qkad.kernel import _kernel_block, _represent

    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 4 * row_bytes("exact", 21, 3))
    cfg = make_cfg("exact")
    rng = np.random.default_rng(0)
    train = _represent(rng.uniform(-0.5, 0.5, size=(21, 3)), cfg, rng)
    test = _represent(rng.uniform(-0.5, 0.5, size=(9, 3)), cfg, rng, train=train)
    unbanded = np.clip(np.abs(test.conj() @ train.T) ** 2, 0.0, 1.0)
    assert _kernel_block(cfg, test, train).tobytes() == unbanded.tobytes()


def test_inversion_gram_draws_the_upper_triangle_in_row_major_order():
    X = np.random.default_rng(6).uniform(-1, 1, size=(600, 3))
    gram, _ = build_gram_train(X, make_cfg("inversion_test"), np.random.default_rng(7))
    fidelity, _ = build_gram_train(X, make_cfg("exact"), np.random.default_rng(0))
    expected = inversion_test_gram(fidelity.entries, 200, np.random.default_rng(7))
    assert gram.entries.tobytes() == expected.tobytes()


def test_inversion_gram_memory_stays_near_its_output():
    # the n x n entries take 30.5 MiB; the complex overlaps exist one band at a time
    X = np.random.default_rng(8).uniform(-1, 1, size=(2000, 6))
    tracemalloc.start()
    try:
        build_gram_train(X, make_cfg("inversion_test"), np.random.default_rng(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 72 * 2**20


# ---------------------------------------------------------------------------
# chunks on every core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_rbf_grams_and_the_mirror_are_byte_identical_at_any_worker_count(n, monkeypatch):
    from qkad.kernel import _mirror_upper

    X, T = np.random.default_rng(n).normal(size=(2, n, 3))
    block = np.random.default_rng(n).normal(size=(n, n))
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(qkad.statevec, "_cores", lambda w=workers: w)
        gram, train = build_gram_train(X, make_cfg("rbf"), np.random.default_rng(0))
        cross = build_gram_cross(T, train, np.random.default_rng(0))
        mirrored = block.copy()
        _mirror_upper(mirrored)
        outputs.append([m.tobytes() for m in (gram.entries, cross.entries, mirrored)])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_only_rbf_bands_are_filled_on_every_core(kind, monkeypatch):
    # unless numpy's OpenBLAS runs one thread, the GEMM bands stay on the
    # calling thread, which is what the name pins; at one BLAS thread every
    # kind's bands are chunked; every training Gram's mirror is chunked
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 100 * row_bytes(kind, 300, 2))
    on_every_core = qkad.kernel._on_every_core

    def noting(fn, items, blas=False):
        if qkad.statevec._workers(items, blas) > 1:
            chunked.append(fn.__name__)
        on_every_core(fn, items, blas)

    monkeypatch.setattr(qkad.kernel, "_on_every_core", noting)
    X = np.random.default_rng(22).uniform(-0.5, 0.5, size=(300, 2))
    only_rbf = ["fill", "copy"] if kind == "rbf" else ["copy"]
    for threads, expected in [(1, ["fill", "copy"]), (2, only_rbf), (None, only_rbf)]:
        monkeypatch.setattr(qkad.statevec, "_blas_threads", lambda t=threads: t)
        chunked = []
        build_gram_train(X, make_cfg(kind), np.random.default_rng(22))
        assert chunked == expected


GEMM_KINDS = ["exact", "inversion_test", "randomized", "randomized-unmitigated"]


@pytest.mark.parametrize("kind", GEMM_KINDS)
def test_gemm_grams_are_byte_identical_at_any_worker_count(kind, monkeypatch):
    # 40-row bands, 8 of them in the training block and 4 in the cross block;
    # at one BLAS thread they are chunked over the workers
    cfg = make_cfg("randomized", mitigate=False) if kind == "randomized-unmitigated" else make_cfg(kind)
    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 40 * row_bytes(cfg.kind, 300, 3))
    monkeypatch.setattr(qkad.statevec, "_blas_threads", lambda: 1)
    X, T = np.random.default_rng(24).uniform(-0.5, 0.5, size=(2, 300, 3))
    T = T[:130]
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(qkad.statevec, "_cores", lambda w=workers: w)
        rng = np.random.default_rng(25)
        gram, train = build_gram_train(X, cfg, rng)
        cross = build_gram_cross(T, train, rng)
        outputs.append([gram.entries.tobytes(), cross.entries.tobytes()])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_the_functions_perfbench_traces_run_on_the_calling_thread(monkeypatch):
    # perfbench wraps these bindings of kernel with a tracer that is not
    # thread-safe; only what they call spreads over the pool's threads
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    monkeypatch.setattr(qkad.statevec, "_blas_threads", lambda: 1)
    threads = set()
    for name in ("encode_iqp", "apply_local", "born_counts", "collect_signature", "rm_purity"):
        def noting(*args, fn=getattr(qkad.kernel, name), **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(qkad.kernel, name, noting)
    X, T = np.random.default_rng(26).uniform(-0.5, 0.5, size=(2, 300, 3))
    for kind in ALL_KINDS:
        monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", 40 * row_bytes(kind, 300, 3))
        rng = np.random.default_rng(27)
        _, train = build_gram_train(X, make_cfg(kind), rng)
        build_gram_cross(T, train, rng)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("workers", [2, 3])
def test_the_caller_fills_the_first_chunk_of_rbf_bands(workers, monkeypatch):
    bands = qkad.kernel._bands
    threads = {}

    class NotingBands(list):
        def __getitem__(self, i):
            threads[i] = threading.get_ident()
            return super().__getitem__(i)

    monkeypatch.setattr(qkad.kernel, "_bands", lambda *args, **kw: NotingBands(bands(*args, **kw)))
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    X = np.random.default_rng(23).normal(size=(600, 2))
    qkad.kernel._kernel_block(make_cfg("rbf"), X, X)
    callers = [threads[i] == threading.get_ident() for i in sorted(threads)]
    first = len(callers) // workers
    assert len(callers) == 6 and callers == [True] * first + [False] * (len(callers) - first)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_non_finite_band_on_a_pool_thread_raises_in_the_caller(workers, monkeypatch):
    # +-0.8e154 in two of the last rows: their variance sum overflows, so gamma
    # is 0, and only their own pair squares to inf, in the last band, where
    # 0 * inf is NaN; every other pair is finite
    from qkad.kernel import _bands

    X = np.zeros((600, 2))
    X[-2], X[-1] = 0.8e154, -0.8e154
    assert len(_bands(600, row_bytes("rbf", 600, 2), upper=True)) >= 3
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    before = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"):
        assert rbf_auto_gamma(X) == 0.0
        with pytest.raises(ValueError, match="^Gram entries must be finite$"):
            build_gram_train(X, make_cfg("rbf"), np.random.default_rng(0))
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "entry",
    [(3, 100), (100, 3), (590, 520), (10, 400), (599, 300)],
    ids=["diagonal-tile-upper", "diagonal-tile-lower", "last-diagonal-tile",
         "off-diagonal-tile-upper", "off-diagonal-tile-lower"],
)
def test_symmetric_gram_rejects_one_asymmetric_entry(entry, rng):
    block = rng.normal(size=(600, 600))
    entries = block + block.T
    GramMatrix(entries=entries, symmetric=True, eval_count=0)
    entries[entry] += 1e-9
    with pytest.raises(ValueError, match="symmetric flag set but entries differ from transpose"):
        GramMatrix(entries=entries, symmetric=True, eval_count=0)


@pytest.mark.parametrize(
    "entries, symmetric, message",
    [
        # a cast to float would drop the imaginary part with only a ComplexWarning
        (np.array([[1 + 1j, 0], [0, 1]]), True, "Gram entries must be real, got complex entries"),
        (np.ones((2, 3), dtype=complex), False, "Gram entries must be real, got complex entries"),
        (np.ones(3), False, "entries must be a matrix"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), True, "Gram entries must be finite"),
        (np.ones((2, 3)), True, "symmetric Gram must be square"),
    ],
    ids=["complex", "complex-cross", "vector", "nan", "non-square"],
)
def test_gram_matrix_rejects_what_a_caller_passes(entries, symmetric, message):
    with pytest.raises(ValueError, match=message):
        GramMatrix(entries=entries, symmetric=symmetric, eval_count=0)


def test_gram_train_exact_is_psd(rng):
    X = rng.uniform(-1, 1, size=(5, 2))
    gram, _ = build_gram_train(X, make_cfg("exact"), rng)
    assert np.linalg.eigvalsh(gram.entries).min() >= -1e-9
    assert np.all((gram.entries >= 0) & (gram.entries <= 1))


def test_gram_train_eval_counts(rng):
    X = rng.uniform(-1, 1, size=(6, 2))
    inv, _ = build_gram_train(X, make_cfg("inversion_test"), rng)
    assert inv.eval_count == 6 * 5 // 2
    rm, _ = build_gram_train(X, make_cfg("randomized"), rng)
    assert rm.eval_count == 6 * 6
    rbf, _ = build_gram_train(X, make_cfg("rbf"), rng)
    assert rbf.eval_count == 0


def test_gram_train_randomized_diagonal_semantics(rng):
    X = rng.uniform(-0.2, 0.2, size=(5, 2))
    mit, cache = build_gram_train(X, make_cfg("randomized", mitigate=True), np.random.default_rng(1))
    assert np.array_equal(np.diag(mit.entries), np.ones(5))
    raw, cache2 = build_gram_train(X, make_cfg("randomized", mitigate=False), np.random.default_rng(1))
    assert np.array_equal(np.diag(raw.entries), cache2.points.purities)
    assert cache.points.counts.shape[0] == 5


def test_randomized_cache_settings_are_one_array_drawn_in_order(rng):
    # the r settings come first off the stream, as r per-setting draws would take them
    X = rng.uniform(-0.5, 0.5, size=(3, 2))
    _, train = build_gram_train(X, make_cfg("randomized"), np.random.default_rng(4))
    replay = np.random.default_rng(4)
    expected = np.stack([sample_haar_setting(2, replay) for _ in range(6)])
    settings = train.points.settings
    assert settings.shape == (6, 2, 2, 2) and settings.dtype == complex
    assert np.array_equal(settings, expected)
    assert train.num_features == 2


def test_gram_train_deterministic_given_seed(rng):
    X = rng.uniform(-1, 1, size=(5, 2))
    for kind in ALL_KINDS:
        a, _ = build_gram_train(X, make_cfg(kind), np.random.default_rng(9))
        b, _ = build_gram_train(X, make_cfg(kind), np.random.default_rng(9))
        assert np.array_equal(a.entries, b.entries)


def test_inversion_cross_gram_draws_every_entry_in_row_major_order():
    # the cross twin of the training rule: one binomial draw per entry, in the
    # order of one call over the whole exact cross Gram
    rng = np.random.default_rng(6)
    X, X_test = rng.uniform(-1, 1, size=(300, 3)), rng.uniform(-1, 1, size=(40, 3))
    _, it_train = build_gram_train(X, make_cfg("inversion_test"), np.random.default_rng(7))
    _, exact_train = build_gram_train(X, make_cfg("exact"), np.random.default_rng(0))
    gram = build_gram_cross(X_test, it_train, np.random.default_rng(8))
    exact = build_gram_cross(X_test, exact_train, np.random.default_rng(0)).entries
    expected = np.random.default_rng(8).binomial(200, exact) / 200
    assert gram.entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unmitigated_raw_rm_block_is_symmetric_psd(seed):
    # before the diagonal rule the raw block is (2^d / r) sum_m F_m C F_m^T
    # with C positive definite, so it is PSD up to rounding
    from qkad.kernel import _kernel_block, _represent

    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.5, 0.5, size=(12, 3))
    cfg = make_cfg("randomized", mitigate=False)
    train = _represent(X, cfg, rng)
    raw = _kernel_block(cfg, train, dataclasses.replace(train))
    scale = np.max(np.abs(raw))
    assert np.max(np.abs(raw - raw.T)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(raw).min() >= -1e-12 * scale


def test_gram_train_entry_matches_scalar_op(rng):
    X = rng.uniform(-0.4, 0.4, size=(4, 2))
    gram, train = build_gram_train(X, make_cfg("randomized", mitigate=False), rng)
    cache = train.points
    for i in range(4):
        for j in range(i + 1, 4):
            expected = rm_kernel_entry(cache.counts[i], cache.counts[j], train.kernel.rm_shots)
            assert gram.entries[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_rm_raw_block_rows_match_the_pair_oracle(rows, monkeypatch):
    # the 5 test points are weighted `rows` at a time; 2 leaves a partial last block
    import qkad.kernel
    from qkad.kernel import _kernel_block, _represent

    cfg = make_cfg("randomized", mitigate=False)
    monkeypatch.setattr(qkad.kernel, "_BLOCK_BYTES", rows * 8 * cfg.rm_settings * 2**3)
    rng = np.random.default_rng(rows)
    train = _represent(rng.uniform(-0.5, 0.5, size=(4, 3)), cfg, rng)
    test = _represent(rng.uniform(-0.5, 0.5, size=(5, 3)), cfg, rng, train=train)
    raw = _kernel_block(cfg, test, train)
    for i in range(5):
        for j in range(4):
            expected = rm_kernel_entry(test.counts[i], train.counts[j], cfg.rm_shots)
            assert raw[i, j] == pytest.approx(expected, abs=1e-12)


def test_gram_cross_exact_equals_train_gram(rng):
    # the cross kernel has no config of its own: it encodes the test rows with
    # the feature map the training set was built with
    X, X_test = rng.uniform(-1, 1, size=(5, 2)), rng.uniform(-1, 1, size=(3, 2))
    for fm in (FM2, FeatureMapConfig(layers=1), FeatureMapConfig(angle_scale=0.5)):
        train, states = build_gram_train(X, make_cfg("exact", feature_map=fm), rng)
        cross = build_gram_cross(X, states, rng)
        assert np.max(np.abs(cross.entries - train.entries)) < 1e-12
        assert cross.entries.shape == (5, 5)
        assert not cross.symmetric
        expected = [[exact_fidelity(x, xp, fm) for xp in X] for x in X_test]
        actual = build_gram_cross(X_test, states, rng).entries
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def test_gram_cross_shape_and_eval_counts(rng):
    X_train = rng.uniform(-1, 1, size=(6, 2))
    X_test = rng.uniform(-1, 1, size=(3, 2))
    _, states = build_gram_train(X_train, make_cfg("inversion_test"), np.random.default_rng(1))
    cross = build_gram_cross(X_test, states, rng)
    assert cross.entries.shape == (3, 6)
    assert cross.eval_count == 3 * 6

    cfg = make_cfg("randomized")
    _, cache = build_gram_train(X_train, cfg, np.random.default_rng(2))
    rm_cross = build_gram_cross(X_test, cache, np.random.default_rng(3))
    assert rm_cross.entries.shape == (3, 6)
    assert rm_cross.eval_count == 3 * cfg.rm_settings


def test_gram_cross_randomized_duplicated_points_near_one():
    X_train = np.random.default_rng(4).uniform(-0.1, 0.1, size=(5, 2))
    cfg = make_cfg("randomized", rm_settings=30, rm_shots=9000, mitigate=True)
    _, cache = build_gram_train(X_train, cfg, np.random.default_rng(5))
    cross = build_gram_cross(X_train[:3], cache, np.random.default_rng(6))
    for k in range(3):
        assert abs(cross.entries[k, k] - 1.0) <= 0.05


@pytest.mark.parametrize("mitigate", [True, False], ids=["mitigated", "unmitigated"])
def test_test_points_estimate_purities_only_under_mitigation(mitigate, monkeypatch):
    # the n training purities are always estimated (the unmitigated diagonal
    # reads them); the t test purities only when mitigation divides by them
    calls = []
    monkeypatch.setattr(qkad.kernel, "rm_purity", lambda *a: calls.append(a) or rm_purity(*a))
    cfg = make_cfg("randomized", mitigate=mitigate)
    rng = np.random.default_rng(11)
    X, X_test = rng.uniform(-0.5, 0.5, size=(12, 3)), rng.uniform(-0.5, 0.5, size=(5, 3))
    _, train = build_gram_train(X, cfg, rng)
    build_gram_cross(X_test, train, rng)
    assert len(calls) == (12 + 5 if mitigate else 12)
    assert np.isfinite(train.points.purities).all()
    test = qkad.kernel._represent(X_test, cfg, rng, train=train.points)
    assert np.isfinite(test.purities).all() if mitigate else np.isnan(test.purities).all()


@pytest.mark.parametrize("kind", ["exact", "inversion_test", "randomized"])
def test_train_and_cross_encode_each_point_once(kind, monkeypatch):
    # the cross pass reuses the training states: n + t encoded rows, not 2n + t,
    # in one call per point set
    import qkad.kernel

    calls = []

    def counted(X, fm):
        calls.append(len(X))
        return encode_iqp(X, fm)

    monkeypatch.setattr(qkad.kernel, "encode_iqp", counted)
    rng = np.random.default_rng(8)
    X_train, X_test = rng.uniform(-1, 1, size=(7, 2)), rng.uniform(-1, 1, size=(3, 2))
    cfg = make_cfg(kind)
    _, states = build_gram_train(X_train, cfg, rng)
    build_gram_cross(X_test, states, rng)
    assert calls == [7, 3]


@pytest.mark.parametrize("kind", ["exact", "inversion_test"])
def test_gram_cross_rejects_raw_training_rows(kind, rng):
    # neither the rows nor the bare feature states say which kernel built them
    X = rng.uniform(-1, 1, size=(4, 2))
    _, train = build_gram_train(X, make_cfg(kind), rng)
    for points in (X, train.points):
        with pytest.raises(TypeError, match="train must be a TrainingSet, got ndarray"):
            build_gram_cross(X, points, rng)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gram_cross_rejects_test_rows_wider_than_training(kind, monkeypatch):
    # the width check runs before any test point is encoded or measured
    import qkad.kernel

    rng = np.random.default_rng(9)
    cfg = make_cfg(kind)
    _, train = build_gram_train(rng.uniform(-1, 1, size=(4, 2)), cfg, rng)
    calls = []
    for name in ("encode_iqp", "collect_signature"):
        original = getattr(qkad.kernel, name)
        monkeypatch.setattr(
            qkad.kernel, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    with pytest.raises(ValueError, match="test rows have 3 features, the training set was "
                       "built from 2"):
        build_gram_cross(rng.uniform(-1, 1, size=(3, 3)), train, rng)
    with pytest.raises(ValueError, match=r"expected a \(t, d\) test matrix, got shape \(2,\)"):
        build_gram_cross(rng.uniform(-1, 1, size=2), train, rng)
    with pytest.raises(ValueError, match=r"n >= 2, got shape \(1, 2\)"):
        build_gram_train(rng.uniform(-1, 1, size=(1, 2)), cfg, rng)
    assert calls == []


def test_gram_cross_requires_matching_cache(rng):
    # the cache alone does not say which feature map or mitigation built it
    X = rng.uniform(-1, 1, size=(4, 2))
    _, train = build_gram_train(X, make_cfg("randomized"), rng)
    with pytest.raises(TypeError, match="got SignatureCache"):
        build_gram_cross(X, train.points, rng)


def test_inversion_error_decreases_with_shots():
    # mean |estimate - exact| over 20 repetitions drops monotonically as the
    # shot budget grows
    x, xp = np.array([0.3, -0.7]), np.array([1.1, 0.4])
    p = exact_fidelity(x, xp, FM2)
    means = []
    for shots in (100, 1000, 9000):
        errs = [
            abs(inversion_test(x, xp, FM2, shots, np.random.default_rng(7000 + k)) - p)
            for k in range(20)
        ]
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]


def test_shot_noise_entries_outside_unit_interval_are_preserved():
    # estimates may leave [0, 1]; repairs are explicit, never silent
    X = np.random.default_rng(3).uniform(-0.1, 0.1, size=(5, 2))
    cfg = make_cfg("randomized", rm_settings=4, rm_shots=128, mitigate=False)
    gram, _ = build_gram_train(X, cfg, np.random.default_rng(1))
    assert gram.entries[np.triu_indices(5, 1)].max() > 1.0

    Xw = np.random.default_rng(4).uniform(-2, 2, size=(5, 2))
    wide, _ = build_gram_train(Xw, make_cfg("randomized", mitigate=False), np.random.default_rng(0))
    assert wide.entries.min() < 0.0


def test_estimator_spread_shrinks_with_more_settings():
    # empirical std over repetitions drops when r grows from 5 to 30
    x, xp = np.array([0.2, -0.3]), np.array([0.4, 0.1])
    fm = FM2

    def spread(r, base_seed):
        vals = []
        for k in range(25):
            rng = np.random.default_rng(base_seed + k)
            settings = sample_haar_settings(r, 2, rng)
            counts_a = signature(x, fm, settings, 200, rng)
            counts_b = signature(xp, fm, settings, 200, rng)
            vals.append(rm_kernel_entry(counts_a, counts_b, 200))
        return np.std(vals)

    assert spread(30, 900) < spread(5, 100)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_kernel_config_validation():
    with pytest.raises(ValueError, match="kind"):
        KernelConfig(kind="nope")
    with pytest.raises(ValueError, match="rm_settings"):
        KernelConfig(kind="randomized", rm_settings=1)
    with pytest.raises(ValueError, match="rm_shots >= 2"):
        KernelConfig(kind="randomized", rm_shots=1)


@pytest.mark.parametrize("name", ["it_shots", "rm_shots"])
def test_kernel_config_bounds_shots_at_the_largest_int64(name):
    # numpy draws shot counts as int64, so one more shot would fail every seed
    KernelConfig(kind="randomized", **{name: 2**63 - 1})
    with pytest.raises(ValueError, match=rf"^{name} must be <= 2\*\*63 - 1, got {2**63}$"):
        KernelConfig(kind="randomized", **{name: 2**63})
