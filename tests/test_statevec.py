import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import qkad.statevec
from oracles import (
    apply_factors_per_state,
    apply_iqp_adjoint,
    born_counts_rowwise,
    encode_iqp_point,
    inner_product,
    iqp_circuit_oracle,
    kron_apply_oracle,
    local_factors_per_setting,
    sample_haar_setting,
)
from qkad.statevec import (
    FeatureMapConfig,
    apply_local,
    born_counts,
    encode_iqp,
    local_factors,
    sample_haar_settings,
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
    setting = sample_haar_settings(1, 3, rng)[0]
    assert setting.shape == (3, 2, 2) and setting.dtype == np.complex128
    rotated = apply_local(state, local_factors(setting))
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
    # the factors built once per setting rotate as the per-state factor oracle does
    for _ in range(3):
        state, setting = random_state(d, rng), sample_haar_setting(d, rng)
        expected = apply_factors_per_state(state, setting)
        assert np.array_equal(apply_local(state, local_factors(setting)), expected)
    # a stack is rotated row by row as a lone state would be
    setting = sample_haar_setting(d, rng)
    for n in (1, 2, 16):
        stack = np.stack([random_state(d, rng) for _ in range(n)])
        rotated = apply_local(stack, local_factors(setting))
        assert rotated.shape == stack.shape
        for row, state in zip(rotated, stack):
            assert np.array_equal(row, apply_factors_per_state(state, setting))
            assert np.array_equal(row, apply_local(state, local_factors(setting)))


def encode_peak_and_bound():
    # the tracemalloc peak of encoding 256 rows at d=14, and the bound on it
    X = np.random.default_rng(0).uniform(-1, 1, size=(256, 14))
    tracemalloc.start()
    try:
        states = encode_iqp(X, FeatureMapConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, states.nbytes + 3 * qkad.statevec._BLOCK_BYTES


def test_encode_memory_stays_near_its_output():
    # the whole (256, 2^14, 14) float angle tensor would take 470 MB; encoded
    # in blocks, the peak is the 64 MiB of states plus three block-sized
    # temporaries; the peak also counts the encoding's own (2^d, d) sign
    # table (106.3 MiB measured with numpy 2.4)
    assert 8 * 256 * 2**14 * 14 >= 256 * 2**20
    peak, bound = encode_peak_and_bound()
    assert peak <= bound


@pytest.mark.parametrize("workers", [2, 3])
def test_encode_memory_on_every_core_stays_near_its_output(workers, monkeypatch):
    # the chunks' blocks share one block's rows, so more workers hold no
    # more block temporaries at once than one does
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    monkeypatch.setattr(qkad.statevec, "_blas_threads", lambda: 1)
    peak, bound = encode_peak_and_bound()
    assert peak <= bound


@pytest.mark.parametrize("d", [3, 10])
def test_encode_is_byte_identical_at_any_worker_count(d, monkeypatch):
    # 3-row blocks over 20 rows; at one BLAS thread the rows are chunked over
    # the workers, and each chunk is encoded in blocks of its share of 3 rows
    monkeypatch.setattr(qkad.statevec, "_BLOCK_BYTES", 3 * 8 * 2**d * d)
    monkeypatch.setattr(qkad.statevec, "_blas_threads", lambda: 1)
    X = np.random.default_rng(d).uniform(-2, 2, size=(20, d))
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(qkad.statevec, "_cores", lambda w=workers: w)
        outputs.append(encode_iqp(X, FeatureMapConfig()).tobytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert outputs[0] == np.stack([encode_iqp_point(x, FeatureMapConfig()) for x in X]).tobytes()


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
# sample_haar_settings
# ---------------------------------------------------------------------------


def test_haar_setting_matrices_are_unitary(rng):
    stack = sample_haar_settings(4, 5, rng)
    assert stack.shape == (4, 5, 2, 2) and stack.dtype == np.complex128
    for u in stack.reshape(-1, 2, 2):
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10


def test_haar_setting_seed_determinism():
    a = sample_haar_settings(2, 3, np.random.default_rng(7))
    b = sample_haar_settings(2, 3, np.random.default_rng(7))
    c = sample_haar_settings(2, 3, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_first_moment_is_half():
    # E |<0|U|0>|^2 = 1/2 for Haar-random SU(2); Monte Carlo over 1e5 draws
    stack = sample_haar_settings(1, 100_000, np.random.default_rng(11))
    mean = np.mean(np.abs(stack[0, :, 0, 0]) ** 2)
    assert abs(mean - 0.5) < 0.01


@pytest.mark.parametrize("r, d", [(1, 1), (2, 3), (30, 6), (5, 10)])
def test_one_call_draw_equals_per_setting_draws_and_leaves_the_same_stream(r, d):
    drawn, replay = np.random.default_rng(r + d), np.random.default_rng(r + d)
    stack = sample_haar_settings(r, d, drawn)
    expected = np.stack([sample_haar_setting(d, replay) for _ in range(r)])
    assert np.array_equal(stack, expected)
    assert drawn.normal() == replay.normal()


def test_haar_draw_rejects_an_empty_stack(rng):
    for r, d in [(0, 3), (3, 0)]:
        with pytest.raises(ValueError, match=f"r and d must be >= 1, got r={r}, d={d}"):
            sample_haar_settings(r, d, rng)


# ---------------------------------------------------------------------------
# local_factors
# ---------------------------------------------------------------------------


def assert_factor_stack_equals_oracle(stack):
    u_hi, u_lo_t = local_factors(stack)
    assert len(u_hi) == len(u_lo_t) == len(stack)
    for m, setting in enumerate(stack):
        expected_hi, expected_lo_t = local_factors_per_setting(setting)
        assert np.array_equal(u_hi[m], expected_hi) and u_hi[m].dtype == expected_hi.dtype
        assert np.array_equal(u_lo_t[m], expected_lo_t) and u_lo_t[m].dtype == expected_lo_t.dtype


@pytest.mark.parametrize("d", range(1, 13))
def test_factor_stack_is_bit_identical_to_per_setting_kron(d):
    # one broadcast multiply per qubit for the stack equals each setting's own np.kron chain
    assert_factor_stack_equals_oracle(sample_haar_settings(3, d, np.random.default_rng(d)))


@pytest.mark.parametrize("d", [1, 6, 7, 10])
def test_factors_of_the_broadcast_hadamards_equal_the_kron_oracle(d):
    # encode_iqp's lone, broadcast, real setting
    hadamards = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), (d, 2, 2))
    for got, expected in zip(local_factors(hadamards), local_factors_per_setting(hadamards)):
        assert np.array_equal(got, expected) and got.dtype == expected.dtype == np.float64


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(r=st.integers(1, 8), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_factor_stack_equals_oracle_property(r, d, seed):
    assert_factor_stack_equals_oracle(sample_haar_settings(r, d, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# apply_local
# ---------------------------------------------------------------------------


def test_apply_local_identity_is_noop(rng):
    state = random_state(3, rng)
    eye = np.stack([np.eye(2, dtype=complex)] * 3)
    assert np.allclose(apply_local(state, local_factors(eye)), state, atol=1e-14)


def test_apply_local_preserves_norm(rng):
    for _ in range(5):
        state = random_state(3, rng)
        setting = sample_haar_setting(3, rng)
        out = apply_local(state, local_factors(setting))
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-10


def test_apply_local_matches_kron_oracle(rng):
    # one whole-register factor up to _WHOLE_QUBITS, then a split at d // 2, odd d and even
    for d in range(1, 9):
        state = random_state(d, rng)
        setting = sample_haar_setting(d, rng)
        expected = kron_apply_oracle(setting, state)
        assert np.max(np.abs(apply_local(state, local_factors(setting)) - expected)) < 1e-12


def test_apply_local_dimension_mismatch(rng):
    factors = local_factors(sample_haar_setting(3, rng))
    for amps in (random_state(2, rng), np.zeros((5, 4), complex), np.zeros((2, 3, 8), complex)):
        message = "setting has 3 qubits, state or stack has shape " + re.escape(str(amps.shape))
        with pytest.raises(ValueError, match=message):
            apply_local(amps, factors)


@pytest.mark.parametrize("d", [1, 3, 6, 7, 10])
def test_apply_local_into_out_equals_the_allocating_form(d, rng):
    stack = sample_haar_settings(2, d, rng)
    factors = next(zip(*local_factors(stack)))
    for amps in (random_state(d, rng), np.stack([random_state(d, rng) for _ in range(5)])):
        out = np.full(amps.shape, np.nan, dtype=complex)
        assert apply_local(amps, factors, out=out) is out
        assert np.array_equal(out, apply_local(amps, factors))


def test_apply_local_into_a_row_of_a_block_writes_only_that_row(rng):
    factors = next(zip(*local_factors(sample_haar_settings(1, 4, rng))))
    state, block = random_state(4, rng), np.zeros((3, 2, 16), dtype=complex)
    apply_local(state, factors, out=block[1, 0])
    assert np.array_equal(block[1, 0], apply_local(state, factors))
    assert not block[1, 1].any() and not block[0].any() and not block[2].any()


def test_apply_local_rejects_a_wrongly_shaped_out(rng):
    factors = next(zip(*local_factors(sample_haar_settings(1, 3, rng))))
    state = random_state(3, rng)
    for out in (np.empty(4, complex), np.empty((1, 8), complex), np.empty(16, complex)):
        message = r"setting has 3 qubits, state or stack has shape \(8,\)"
        with pytest.raises(ValueError, match=message):
            apply_local(state, factors, out=out)


# ---------------------------------------------------------------------------
# Born sampling
# ---------------------------------------------------------------------------


def born_one(state, shots, rng):
    """Counts of one state measured in one setting, through the block sampler."""
    return born_counts([state[None, None]], shots, [rng])[0, 0]


def test_measure_deterministic_state(rng):
    state = np.array([1, 0, 0, 0], dtype=complex)
    counts = born_one(state, 100, rng)
    assert counts.tolist() == [100, 0, 0, 0]


def test_measure_uniform_superposition_frequency():
    state = np.array([1, 1], dtype=complex) / np.sqrt(2)
    counts = born_one(state, 10**6, np.random.default_rng(3))
    assert abs(counts[0] / 10**6 - 0.5) < 0.002  # 3 sigma + slack


def test_measure_total_shots_conserved(rng):
    for _ in range(5):
        state = random_state(3, rng)
        counts = born_one(state, 137, rng)
        assert counts.sum() == 137
        assert counts.shape == (8,)


def test_measure_zero_shots_rejected(rng):
    state = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="shots"):
        born_one(state, 0, rng)


def test_measure_bit_identical_given_seed():
    cfg = FeatureMapConfig()
    x = np.array([0.4, -1.2])
    a = born_one(encode_one(x, cfg), 5000, np.random.default_rng(42))
    b = born_one(encode_one(x, cfg), 5000, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_born_counts_shape(rng):
    state = random_state(2, rng)
    dense = born_one(state, 50, rng)
    assert dense.shape == (4,) and dense.sum() == 50


def test_born_counts_rejects_a_generator_count_unlike_the_points(rng):
    amps = np.stack([random_state(2, rng) for _ in range(6)]).reshape(3, 2, 4)
    # more points than generators, a block that is not (points, r, 2^d), fewer
    # points than generators, and blocks of unlike settings
    for blocks, generators in [([amps], 2), ([amps[0]], 2), ([amps[:1], amps[1:]], 4),
                               ([amps[:1], amps[1:, :1]], 3)]:
        with pytest.raises(ValueError, match="one generator per point"):
            born_counts(blocks, 10, [rng] * generators)


def random_block(points, settings, d, seed):
    rng = np.random.default_rng(seed)
    shape = (points, settings, 2**d)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # unnormalized rows: the sampler renormalizes each setting's row on its own
    return amps * rng.uniform(0.5, 2.0, size=(points, settings, 1))


def spawn(points, seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(points)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 6, 10])
@pytest.mark.parametrize("points", [1, 2, 7])
def test_born_counts_equal_the_rowwise_oracle_at_any_worker_count(
    workers, d, points, monkeypatch
):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    amps = random_block(points, 3, d, seed=d * 100 + points)
    counts = born_counts([amps], 1009, spawn(points, seed=d))
    assert counts.dtype == np.int64
    assert np.array_equal(counts, born_counts_rowwise(amps, 1009, spawn(points, seed=d)))


def test_born_counts_under_fast_thread_switching_with_more_workers_than_cores(monkeypatch):
    # every worker writes its own rows of one shared output array
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 4)
    amps = random_block(16, 3, 6, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = born_counts([amps], 500, spawn(16, seed=6))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(counts, born_counts_rowwise(amps, 500, spawn(16, seed=6)))


def test_cores_read_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert qkad.statevec._cores() == 1
    # without a mask every core counts, and one when the platform reports none
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, cores in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda c=count: c)
        assert qkad.statevec._cores() == cores


class _ThreadRecordingGenerator(np.random.Generator):
    """A generator that notes the thread each of its draws ran on, and when it began."""

    def __init__(self, seed, threads, events=None):
        super().__init__(np.random.PCG64(seed))
        self.threads, self.events = threads, events

    def multinomial(self, n, pvals):
        self.threads.append(threading.get_ident())
        if self.events is not None:
            self.events.append(("draw", self))
        return super().multinomial(n, pvals)


def stream_of(amps, size, events=None, fail_at=None):
    """``amps`` in blocks of ``size`` points, noting each block's thread in ``events``.

    It raises instead of giving block ``fail_at``.
    """
    for k, start in enumerate(range(0, len(amps), size)):
        if events is not None:
            events.append(("take", threading.get_ident()))
        if k == fail_at:
            raise RuntimeError(f"stream failed at block {k}")
        yield amps[start : start + size]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("points, size", [(1, 1), (5, 2), (7, 3), (7, 7)])
def test_born_counts_stream_draws_each_point_once_and_is_advanced_on_the_caller(
    workers, points, size, monkeypatch
):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    amps, threads, events = random_block(points, 2, 3, seed=1), [[] for _ in range(points)], []
    rngs = [_ThreadRecordingGenerator(i, threads[i]) for i in range(points)]
    counts = born_counts(stream_of(amps, size, events), 20, rngs)
    assert all(len(t) == 1 for t in threads)  # one draw per point, covering its settings
    caller = threading.get_ident()
    assert [thread for _, thread in events] == [caller] * len(range(0, points, size))
    if workers == 1:
        assert all(t == [caller] for t in threads)
    assert len({t[0] for t in threads}) <= min(workers, points)
    expected = born_counts_rowwise(amps, 20, [np.random.default_rng(np.random.PCG64(i))
                                              for i in range(points)])
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("points, size", [(6, 2), (7, 3)])
def test_born_counts_with_one_worker_takes_a_block_and_then_draws_it(points, size, monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 1)
    events = []
    rngs = [_ThreadRecordingGenerator(i, [], events) for i in range(points)]
    born_counts(stream_of(random_block(points, 2, 3, seed=2), size, events), 20, rngs)
    order = [rngs.index(e[1]) if e[0] == "draw" else "take" for e in events]
    blocks = [list(range(points))[start : start + size] for start in range(0, points, size)]
    assert order == [step for block in blocks for step in ["take", *block]]


@pytest.mark.parametrize("workers", [2, 3])
def test_born_counts_pool_threads_draw_a_block_while_the_caller_takes_the_next(
    workers, monkeypatch
):
    # the stream waits, as a slow rotation would, for the block it gave before
    # to be drawn: only pool threads can draw it meanwhile, so every draw is theirs
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    points, size = 12, 4
    threads = [[] for _ in range(points)]
    rngs = [_ThreadRecordingGenerator(i, threads[i]) for i in range(points)]
    amps = random_block(points, 2, 3, seed=4)

    def stream():
        for start in range(0, points + size, size):
            deadline = time.monotonic() + 10
            while not all(threads[max(0, start - size) : start]) and time.monotonic() < deadline:
                time.sleep(1e-3)
            if start < points:
                yield amps[start : start + size]

    born_counts(stream(), 20, rngs)
    assert all(len(t) == 1 for t in threads)
    assert threading.get_ident() not in {t[0] for t in threads}


def test_born_counts_take_seeds_or_generators_alike(monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    amps, seeds = random_block(7, 3, 4, seed=8), list(range(100, 107))
    counts = born_counts(stream_of(amps, 2), 300, seeds)
    generators = [np.random.default_rng(s) for s in seeds]
    assert np.array_equal(counts, born_counts([amps], 300, generators))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("nan_point, fail_at, raised", [
    (7, None, ValueError),  # a later block's point
    (None, 2, RuntimeError),  # the stream, at its third block
    (3, 2, ValueError),  # a point before the stream's failure comes first
    (8, 2, RuntimeError),  # a point of a block never taken is never drawn
])
def test_born_counts_raise_the_first_failure_of_a_stream_in_point_order(
    workers, nan_point, fail_at, raised, monkeypatch
):
    amps = random_block(10, 2, 2, seed=5)
    if nan_point is not None:
        amps[nan_point, 1, 2] = np.nan
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    before = threading.active_count()
    with pytest.raises(raised) as pooled:
        born_counts(stream_of(amps, 3, fail_at=fail_at), 30, spawn(10, seed=0))
    assert threading.active_count() == before
    if raised is RuntimeError:
        assert str(pooled.value) == "stream failed at block 2"
    else:
        with pytest.raises(ValueError) as serial:
            born_counts_rowwise(amps, 30, spawn(10, seed=0))
        assert str(pooled.value) == str(serial.value)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad", [0, 3, 5])
def test_born_counts_raises_a_worker_error_in_the_caller_and_leaves_no_thread(
    workers, bad, monkeypatch
):
    amps = random_block(6, 2, 2, seed=2)
    amps[bad, 1, 2] = np.nan
    with pytest.raises(ValueError) as serial:
        born_counts_rowwise(amps, 30, spawn(6, seed=0))
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: workers)
    before = threading.active_count()
    born_counts([random_block(6, 2, 2, seed=3)], 30, spawn(6, seed=0))
    assert threading.active_count() == before
    with pytest.raises(ValueError) as pooled:
        born_counts([amps], 30, spawn(6, seed=0))
    assert str(pooled.value) == str(serial.value)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# forked workers
# ---------------------------------------------------------------------------


def _slow_first(i):
    # item 0 ends last, so completion order differs from item order
    if i == 0:
        time.sleep(0.2)
    return i, os.getpid()


def test_forked_workers_return_results_in_item_order(monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    results = qkad.statevec._on_forked_workers(_slow_first, 4)
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


def _worker_state(i):
    a = np.ones((200, 200))
    a @ a
    return (qkad.statevec._IN_WORKER,
            qkad.statevec._openblas().scipy_openblas_get_num_threads64_(),
            len(os.listdir("/proc/self/task")))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_a_forked_worker_sets_the_worker_flag_and_pins_its_blas_alone(monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    blas = qkad.statevec._openblas()
    assert blas is not None  # numpy's wheels bundle scipy-openblas
    before = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(2)
    try:
        seen = qkad.statevec._on_forked_workers(_worker_state, 2)
        assert blas.scipy_openblas_get_num_threads64_() == 2
    finally:
        blas.scipy_openblas_set_num_threads64_(before)
    # after a GEMM the worker still runs one OS thread: no idle BLAS thread spins beside it
    assert seen == [(True, 1, 1), (True, 1, 1)]
    assert not qkad.statevec._IN_WORKER


def test_a_step_that_calls_blas_spreads_only_while_openblas_runs_one_thread(monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    workers = qkad.statevec._workers
    blas = qkad.statevec._openblas()
    before = blas.scipy_openblas_get_num_threads64_()
    try:
        # the thread count is read on every call
        for threads, spread in [(1, 2), (2, 1), (1, 2)]:
            blas.scipy_openblas_set_num_threads64_(threads)
            assert (workers(5, blas=True), workers(5)) == (spread, 2)
        # a forked worker runs its BLAS on one thread, yet gets one worker
        assert qkad.statevec._on_forked_workers(lambda i: workers(5, blas=True), 2) == [1, 1]
    finally:
        blas.scipy_openblas_set_num_threads64_(before)
    monkeypatch.setattr(qkad.statevec, "_openblas", lambda: None)
    assert (workers(5, blas=True), workers(5)) == (1, 2)


@pytest.mark.parametrize("why", ["one item", "one core", "in a worker", "no fork", "no blas"])
def test_forked_workers_run_the_items_in_process_when_they_cannot_fork(why, monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 1 if why == "one core" else 2)
    items = 1 if why == "one item" else 3
    if why == "in a worker":
        monkeypatch.setattr(qkad.statevec, "_IN_WORKER", True)
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    elif why == "no blas":
        monkeypatch.setattr(qkad.statevec, "_openblas", lambda: None)
    results = qkad.statevec._on_forked_workers(lambda i: (i, os.getpid()), items)
    assert results == [(i, os.getpid()) for i in range(items)]


def _fail_odd(i):
    if i == 1:
        time.sleep(0.2)  # fails after item 3 has failed
    if i % 2:
        raise ValueError(f"item {i} failed")
    return i


def test_the_first_failing_item_by_index_re_raises_and_no_worker_outlives_it(monkeypatch):
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    with pytest.raises(ValueError, match="^item 1 failed$"):
        qkad.statevec._on_forked_workers(_fail_odd, 4)
    assert multiprocessing.active_children() == []
    failed = qkad.statevec._on_forked_workers(_fail_odd, 4, fail=lambda i, exc: str(exc))
    assert failed == [0, "item 1 failed", 2, "item 3 failed"]
    assert multiprocessing.active_children() == []


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

