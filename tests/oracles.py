"""Independent reference implementations used to validate the package.

These deliberately avoid the package's own computational paths: the circuit
oracle multiplies dense gate matrices built from lifted Paulis and matrix
exponentials, the per-pair kernel estimators run one circuit (or one pair of
measurement records) at a time where the package fills whole Gram blocks,
the per-point encoding, per-setting Haar draw, per-setting Kronecker
factors, per-state factored rotation and per-row Born sampler are the forms
the package's batched encoding, one-call settings draw, stacked factors,
stacked rotation and threaded per-point sampler must reproduce bit for bit,
the paired rotation is the earlier form whose RM counts the package must
still reproduce, the projection oracle is column-by-column Gram-Schmidt
where the package uses Householder QR, the QP oracles are plain projected
gradient descent, the Frank-Wolfe gap and a dual feasibility check, and the
ranking-metric oracles recount precision/recall from scratch at every rank.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm

from qkad.kernel import DegenerateSignatureError
from qkad.ocsvm import OCSVMModel
from qkad.statevec import _WHOLE_QUBITS, FeatureMapConfig

_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def lift(gate: np.ndarray, qubit: int, d: int) -> np.ndarray:
    """Embed a single-qubit gate into the d-qubit space (qubit 0 = MSB)."""
    out = np.eye(1, dtype=complex)
    for q in range(d):
        out = np.kron(out, gate if q == qubit else _I2)
    return out


def iqp_circuit_oracle(
    x: np.ndarray,
    d: int,
    layers: int,
    lam: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gate-by-gate dense matrix product for the encoding circuit.

    Rotations are built as matrix exponentials of lifted Pauli products.  If
    an rng is given, the (commuting) diagonal gates of each layer are applied
    in a shuffled order, which must not change the result.
    """
    dim = 2**d
    h_all = np.eye(dim, dtype=complex)
    for q in range(d):
        h_all = lift(_H, q, d) @ h_all

    gates: list[np.ndarray] = []
    for j in range(d):
        gates.append(expm(-0.5j * lam * x[j] * lift(_Z, j, d)))
    for j in range(d):
        for k in range(j + 1, d):
            zz = lift(_Z, j, d) @ lift(_Z, k, d)
            gates.append(expm(-0.5j * lam**2 * x[j] * x[k] * zz))

    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    for _ in range(layers):
        state = h_all @ state
        order = list(range(len(gates)))
        if rng is not None:
            order = list(rng.permutation(len(gates)))
        for g in order:
            state = gates[g] @ state
    return state


def apply_factors_per_state(amps: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Apply a (d, 2, 2) stack of single-qubit gates to one state, factoring them per call.

    The per-state form :func:`qkad.statevec.apply_local` must reproduce bit
    for bit: :func:`local_factors_per_setting` multiplies the gates out into
    ``u_hi`` and ``u_lo``, and the state, as a ``(2^hi, 2^(d - hi))`` matrix
    ``A``, becomes ``(u_hi @ A) @ u_lo.T`` in two 2-D GEMMs; a 1x1 ``u_hi`` is
    ``[[1.0]]``, which changes no value.
    """
    d = len(gates)
    if amps.shape != (2**d,):
        raise ValueError(f"setting has {d} qubits, state has shape {amps.shape}")
    u_hi, u_lo_t = local_factors_per_setting(gates)
    return ((u_hi @ amps.reshape(len(u_hi), len(u_lo_t))) @ u_lo_t).reshape(-1)


def sample_haar_setting(d: int, rng: np.random.Generator) -> np.ndarray:
    """One (d, 2, 2) Haar setting, drawn on its own: real parts, then imaginary, then QR.

    The per-setting form :func:`qkad.statevec.sample_haar_settings` must
    reproduce bit for bit, ``r`` calls of this in a row against its one call.
    """
    z = rng.normal(size=(d, 2, 2)) + 1j * rng.normal(size=(d, 2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def local_factors_per_setting(setting: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U_hi, U_lo^T)`` of one (d, 2, 2) setting, each factor one ``reduce(np.kron, ...)``.

    The per-setting form one slice of :func:`qkad.statevec.local_factors`'s
    stacked factors must equal bit for bit; the split is ``d // 2`` above
    ``_WHOLE_QUBITS`` qubits, else none.
    """
    d = len(setting)
    hi = d // 2 if d > _WHOLE_QUBITS else 0
    u_hi, u_lo = (reduce(np.kron, gates, np.ones((1, 1))) for gates in (setting[:hi], setting[hi:]))
    return u_hi, u_lo.T


def paired_factors(settings: np.ndarray) -> tuple[np.ndarray, ...]:
    """The paired form of a (d, 2, 2) setting or (r, d, 2, 2) stack that :func:`apply_paired` takes.

    The package's rotation before half-register factors: gates q and q+1
    become one 4x4 Kronecker block, an odd last gate stays 2x2, so a d-qubit
    setting is applied in ``ceil(d / 2)`` GEMMs.  A stack gives one
    ``(r, k, k)`` stack per block, so ``zip(*pairs)`` yields each setting's
    blocks, as it yields each setting's factors of the package's form.
    """
    lead, d = settings.shape[:-3], settings.shape[-3]
    pairs = []
    for q in range(0, d, 2):
        block = settings[..., q, :, :]
        if q + 1 < d:
            low = settings[..., q + 1, None, :, None, :]
            block = (block[..., :, None, :, None] * low).reshape(lead + (4, 4))
        pairs.append(block)
    return tuple(pairs)


def apply_paired(
    amps: np.ndarray, pairs: tuple[np.ndarray, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate a ``(2^d,)`` state or an ``(n, 2^d)`` stack by one setting's :func:`paired_factors`.

    Each step is one GEMM of a block on the leading qubits; the transpose then
    moves the next qubits to the front, so after the last step the order is
    restored.  With :func:`paired_factors` it is a drop-in for the package's
    ``local_factors`` and ``apply_local``, whose RM counts must not change;
    like ``apply_local``, it writes into ``out`` and returns it when given.
    """
    t = amps
    lead = amps.shape[:-1]
    for block in pairs:
        t = (block @ t.reshape(lead + (len(block), -1))).mT
    if out is None:
        return t.reshape(amps.shape)
    out[...] = t.reshape(amps.shape)
    return out


def iqp_layer_angles_point(x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Per-basis-state angle of one diagonal layer for one point, one GEMV per call."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    lam = cfg.angle_scale
    bits = (np.arange(2**d)[:, None] >> (d - 1 - np.arange(d))[None, :]) & 1
    z = 1.0 - 2.0 * bits
    angles = z @ (lam * x)
    zx = z * (lam * x)[None, :]
    total = zx.sum(axis=1)
    angles += 0.5 * (total**2 - (zx**2).sum(axis=1))
    return angles


def encode_iqp_point(x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Feature-map state of one point, encoded on its own with per-call Hadamard factors."""
    phases = np.exp(-0.5j * iqp_layer_angles_point(x, cfg))
    hadamards = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), (len(x), 2, 2))
    amps = np.zeros_like(phases)
    amps[0] = 1.0
    for _ in range(cfg.layers):
        amps = apply_factors_per_state(amps, hadamards) * phases
    return amps


def kron_apply_oracle(matrices: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply a tensor product of single-qubit matrices via an explicit kron."""
    full = np.eye(1, dtype=complex)
    for m in matrices:
        full = np.kron(full, m)
    return full @ amps


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-space inner product <a|b> of two amplitude arrays."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape} amplitudes")
    return complex(np.vdot(a, b))


def apply_iqp_adjoint(amps: np.ndarray, x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Apply the adjoint of the feature-map circuit for ``x`` to the amplitudes ``amps``.

    Composing ``apply_iqp_adjoint(encode_iqp_point(x), x)`` recovers |0...0> up to
    float error; the all-zeros amplitude of the mixed composition is the
    state overlap the inversion test samples.  Each layer undoes the diagonal
    phases, then applies the Hadamards as one explicit Kronecker product.
    """
    d = len(x)
    if amps.shape != (2**d,):
        raise ValueError(f"state has shape {amps.shape}, the input has {d} features")
    phases = np.exp(+0.5j * iqp_layer_angles_point(x, cfg))
    for _ in range(cfg.layers):
        amps = kron_apply_oracle([_H] * d, amps * phases)
    return amps


def born_counts_rowwise(
    amps: np.ndarray, shots: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Born-rule counts of ``(points, r, 2^d)`` amplitudes, one draw per (point, setting).

    The per-row sampler the package's one-draw-per-point
    :func:`qkad.statevec.born_counts` must reproduce bit for bit: each row is
    renormalized and drawn on its own, in setting order, from its point's
    generator, all on the calling thread.
    """
    counts = np.empty(amps.shape, dtype=np.int64)
    for i, rng in enumerate(rngs):
        for m, row in enumerate(amps[i]):
            p = np.abs(row) ** 2
            counts[i, m] = rng.multinomial(shots, p / p.sum())
    return counts


# ---------------------------------------------------------------------------
# per-pair kernel estimators
# ---------------------------------------------------------------------------


def exact_fidelity(x: np.ndarray, x_other: np.ndarray, fm: FeatureMapConfig) -> float:
    """Squared overlap of the two feature-map states."""
    a = encode_iqp_point(x, fm)
    b = encode_iqp_point(x_other, fm)
    return float(abs(inner_product(b, a)) ** 2)


def inversion_test(
    x: np.ndarray,
    x_other: np.ndarray,
    fm: FeatureMapConfig,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """All-zeros frequency of the encode-then-uncompute circuit.

    Runs the encoding circuit for ``x`` followed by the adjoint circuit for
    ``x_other`` and samples the all-zeros outcome ``shots`` times.  Identical
    inputs short-circuit to exactly 1.0 since the composition is the identity.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if np.array_equal(np.asarray(x, float), np.asarray(x_other, float)):
        return 1.0
    composed = apply_iqp_adjoint(encode_iqp_point(x, fm), x_other, fm)
    p_zero = min(max(float(abs(composed[0]) ** 2), 0.0), 1.0)
    return int(rng.binomial(shots, p_zero)) / shots


def hamming(s: str, s_other: str) -> int:
    """Number of positions where two equal-length bitstrings differ."""
    if len(s) != len(s_other):
        raise ValueError(f"length mismatch: {len(s)} vs {len(s_other)}")
    return sum(c1 != c2 for c1, c2 in zip(s, s_other))


def _hamming_coefficients(d: int) -> np.ndarray:
    """Table (-2)**(-H(s, s')) built from bitstring Hamming distances."""
    labels = [format(v, f"0{d}b") for v in range(2**d)]
    return np.array([[(-2.0) ** (-hamming(s, t)) for t in labels] for s in labels])


def _check_signature_pair(counts_i: np.ndarray, counts_j: np.ndarray) -> None:
    if counts_i.shape[1] != counts_j.shape[1]:
        raise ValueError(
            f"qubit mismatch: {counts_i.shape[1]} vs {counts_j.shape[1]} outcomes"
        )
    if counts_i.shape[0] != counts_j.shape[0]:
        raise ValueError(
            f"setting-count mismatch: {counts_i.shape[0]} vs {counts_j.shape[0]}"
        )


def rm_kernel_entry(counts_i: np.ndarray, counts_j: np.ndarray, shots: int) -> float:
    """Cross-correlation kernel estimate from two points' ``(r, 2^d)`` shot counts.

    Averages ``2^d * sum_{s,s'} (-2)^(-H(s,s')) P_i(s) P_j(s')`` over the
    shared settings, where ``P = counts / shots``.  The quadratic form is
    evaluated in both argument orders and averaged, which makes the result
    bit-exactly symmetric.
    """
    _check_signature_pair(counts_i, counts_j)
    dim = counts_i.shape[1]
    coeff = _hamming_coefficients(dim.bit_length() - 1)
    p_i = counts_i / float(shots)
    p_j = counts_j / float(shots)
    forward = np.einsum("mi,ij,mj->m", p_i, coeff, p_j)
    backward = np.einsum("mi,ij,mj->m", p_j, coeff, p_i)
    per_setting = 0.5 * (forward + backward)
    return float(dim * per_setting.mean())


def rm_purity_einsum(counts: np.ndarray, shots: int) -> float:
    """Pair U-statistic purity of one point's ``(r, 2^d)`` shot counts.

    The quadratic form is one three-operand ``einsum`` over the bitstring
    Hamming table, where :func:`qkad.kernel.rm_purity` runs a GEMM.
    """
    dim = counts.shape[1]
    coeff = _hamming_coefficients(dim.bit_length() - 1)
    c = counts.astype(float)
    quad = np.einsum("mi,ij,mj->m", c, coeff, c)
    per_setting = (quad - c.sum(axis=1)) / (shots * (shots - 1.0))
    return float(dim * per_setting.mean())


def mitigate(k_ij: float, p_i: float, p_j: float) -> float:
    """Purity-normalized kernel entry ``k_ij / sqrt(p_i * p_j)``."""
    if p_i <= 0 or p_j <= 0:
        raise DegenerateSignatureError(
            f"nonpositive purity estimate (p_i={p_i!r}, p_j={p_j!r}); "
            "signature is unusable for mitigation"
        )
    return k_ij / math.sqrt(p_i * p_j)


def rbf_entry(x: np.ndarray, x_other: np.ndarray, gamma: float) -> float:
    """Gaussian kernel ``exp(-gamma * ||x - x'||^2)``."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    diff = np.asarray(x, float) - np.asarray(x_other, float)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def gram_schmidt(y: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``y`` in order by classical Gram-Schmidt, run twice."""
    basis = np.zeros_like(y)
    for j in range(y.shape[1]):
        v = y[:, j].copy()
        for _ in range(2):
            v -= basis[:, :j] @ (basis[:, :j].T @ v)
        basis[:, j] = v / np.linalg.norm(v)
    return basis


def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= cap, sum x = 1}.

    The map tau -> sum(clip(v - tau, 0, cap)) is piecewise linear and
    decreasing; the crossing of 1 is found exactly by linear interpolation
    between breakpoints.
    """
    taus = np.sort(np.concatenate([v, v - cap]))
    sums = np.clip(v[None, :] - taus[:, None], 0.0, cap).sum(axis=1)
    k = int(np.searchsorted(-sums, -1.0))
    if k == 0:
        tau = taus[0]
    elif sums[k] == 1.0:
        tau = taus[k]
    else:
        span = sums[k - 1] - sums[k]
        tau = taus[k - 1] + (sums[k - 1] - 1.0) * (taus[k] - taus[k - 1]) / span
    return np.clip(v - tau, 0.0, cap)


def assert_dual_feasible(model: OCSVMModel) -> None:
    """Box and simplex feasibility at the tolerances every fit must meet."""
    cap = 1.0 / (model.nu * model.n_train)
    assert np.all(model.alphas >= -1e-9)
    assert np.all(model.alphas <= cap + 1e-9)
    assert abs(model.alphas.sum() - 1.0) <= 1e-6


def dual_objective(G: np.ndarray, alpha: np.ndarray) -> float:
    """Value of ``1/2 alpha^T G alpha``."""
    return float(0.5 * alpha @ (G @ alpha))


def projected_gradient_qp(G: np.ndarray, cap: float, iters: int = 10**6) -> np.ndarray:
    """Projected-gradient solver for min 1/2 a^T G a on the capped simplex.

    The step is ``1/L`` with ``L = lambda_max(G)``, the gradient's Lipschitz
    constant, the standard step for an L-smooth convex objective: every step
    decreases the objective and the iterates converge to a minimizer.
    """
    step = 1.0 / np.linalg.eigvalsh(G)[-1]
    n = G.shape[0]
    alpha = np.full(n, 1.0 / n)
    for _ in range(iters):
        new = project_capped_simplex(alpha - step * (G @ alpha), cap)
        if np.max(np.abs(new - alpha)) < 1e-16:
            return new
        alpha = new
    return alpha


def frank_wolfe_gap(G: np.ndarray, alpha: np.ndarray, cap: float) -> float:
    """Frank-Wolfe gap ``g^T alpha - min_beta g^T beta`` of ``1/2 a^T G a`` at ``alpha``.

    ``g = G alpha`` and ``beta`` ranges over the capped simplex
    ``{0 <= beta <= cap, sum beta = 1}``.  For PSD ``G`` the objective is
    convex, so the gap bounds its excess over the optimum from above (Jaggi,
    ICML 2013).  The minimum is exact: a greedy fill puts mass ``cap`` on the
    smallest gradient entries until the unit mass is spent.
    """
    g = G @ alpha
    remaining, best = 1.0, 0.0
    for value in np.sort(g):
        take = min(cap, remaining)
        best += take * value
        remaining -= take
        if remaining <= 0.0:
            break
    return float(g @ alpha - best)


def average_precision_oracle(scores, labels) -> float:
    """Step-sum AP with precision/recall recounted from scratch per rank."""
    scores = list(scores)
    labels = list(labels)
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    total_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for k in range(1, n + 1):
        hits = sum(labels[i] for i in order[:k])
        precision = hits / k
        recall = hits / total_pos
        if recall > prev_recall:
            ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def f1_oracle(labels, predictions) -> float:
    """F1 from explicit confusion counting."""
    tp = sum(1 for l, p in zip(labels, predictions) if l == 1 and p == 1)
    fp = sum(1 for l, p in zip(labels, predictions) if l == 0 and p == 1)
    fn = sum(1 for l, p in zip(labels, predictions) if l == 1 and p == 0)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def inversion_test_gram(fidelity: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Inversion-test training Gram of exact ``fidelity``: the strict upper triangle
    drawn in one binomial call in row-major order, mirrored, with a unit diagonal."""
    iu, ju = np.triu_indices(len(fidelity), k=1)
    entries = np.ones_like(fidelity)
    entries[iu, ju] = entries[ju, iu] = rng.binomial(shots, fidelity[iu, ju]) / shots
    return entries
