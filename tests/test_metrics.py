import numpy as np
import pytest

from oracles import average_precision_oracle, f1_oracle
from qkad.metrics import average_precision, confusion, f1, precision_recall


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------


def test_confusion_all_correct():
    labels = np.array([1, 0, 1, 0])
    counts = confusion(labels, labels)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 0, 2, 0)


def test_confusion_all_normal():
    labels = np.zeros(5, dtype=int)
    counts = confusion(labels, labels)
    assert counts.tp == 0 and counts.tn == 5


def test_confusion_hand_built_case():
    labels = np.array([1, 1, 0, 0, 1, 0])
    preds = np.array([1, 0, 1, 0, 1, 0])
    counts = confusion(labels, preds)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 2, 1)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        confusion(np.array([0, 1]), np.array([0]))


def test_precision_recall_zero_denominators():
    counts = confusion(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    assert precision_recall(counts) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# f1
# ---------------------------------------------------------------------------


def test_f1_values():
    assert f1(1.0, 1.0) == 1.0
    assert f1(0.5, 0.5) == 0.5
    assert f1(1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert f1(0.0, 0.0) == 0.0


def test_f1_symmetry(rng):
    for _ in range(20):
        a, b = rng.uniform(size=2)
        assert f1(a, b) == pytest.approx(f1(b, a), abs=1e-15)


def test_f1_rejects_out_of_range():
    with pytest.raises(ValueError):
        f1(1.2, 0.5)


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------


def test_ap_perfect_ranking_is_one():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert average_precision(scores, labels) == 1.0


def test_ap_worked_example():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert average_precision(scores, labels) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert average_precision(scores, labels) == pytest.approx(
        average_precision_oracle(scores, labels), abs=1e-15
    )


def test_ap_matches_enumeration_oracle_on_random_instances(rng):
    for _ in range(100):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        scores = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
        assert average_precision(scores, labels) == pytest.approx(
            average_precision_oracle(scores, labels), abs=1e-12
        )


def test_ap_random_scores_approach_anomaly_ratio():
    rng = np.random.default_rng(0)
    n, ratio = 200, 0.3
    labels = (np.arange(n) < ratio * n).astype(int)
    values = []
    for _ in range(1000):
        values.append(average_precision(rng.uniform(size=n), labels))
    assert abs(np.mean(values) - ratio) <= 0.05


def test_ap_invariant_under_monotone_transform(rng):
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0] = 1
    base = average_precision(scores, labels)
    assert average_precision(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-15)
    assert average_precision(np.tanh(scores), labels) == pytest.approx(base, abs=1e-15)


def test_ap_all_positive_labels_is_one(rng):
    scores = rng.normal(size=10)
    assert average_precision(scores, np.ones(10, dtype=int)) == 1.0


def test_ap_requires_a_positive_label():
    with pytest.raises(ValueError, match="positive"):
        average_precision(np.array([0.1, 0.2]), np.array([0, 0]))


@pytest.mark.parametrize("scores, labels", [(np.zeros(3), np.ones(2)), (np.zeros((2, 2)),) * 2])
def test_ap_requires_matching_1d_arrays(scores, labels):
    with pytest.raises(ValueError, match="need matching 1-d arrays"):
        average_precision(scores, labels)


def test_f1_oracle_agreement_on_random_instances(rng):
    from qkad.metrics import confusion as conf

    for _ in range(100):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        counts = conf(labels, preds)
        p, r = precision_recall(counts)
        assert f1(p, r) == pytest.approx(f1_oracle(labels, preds), abs=1e-12)
