import numpy as np
import pytest

from hcms.metrics import EvaluationError, format_report, format_report_kv, score


def oracle(trues, preds, n_classes=3):
    """Recompute every metric by direct counting, independent of score()."""
    n = len(trues)
    per = {}
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(trues, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(trues, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(trues, preds) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[c] = (prec, rec, f1, tp + fn)
    acc = sum(1 for t, p in zip(trues, preds) if t == p) / n
    macro_f1 = sum(per[c][2] for c in range(n_classes)) / n_classes
    total = sum(per[c][3] for c in range(n_classes))
    weighted_f1 = sum(per[c][2] * per[c][3] for c in range(n_classes)) / total
    return per, acc, macro_f1, weighted_f1


def test_perfect_predictions():
    r = score([0, 1, 2, 0], [0, 1, 2, 0])
    assert r.accuracy == 1.0
    assert r.f1 == [1.0, 1.0, 1.0]
    assert r.macro_f1 == 1.0 and r.weighted_f1 == 1.0


def test_hand_confusion_tally():
    r = score([0, 0, 1, 2], [0, 1, 1, 2])
    assert r.accuracy == 0.75
    assert r.precision[0] == 1.0
    assert r.recall[0] == 0.5
    assert r.f1[0] == pytest.approx(2 / 3, abs=1e-12)
    assert r.macro_f1 == pytest.approx(7 / 9, abs=1e-12)


def test_absent_class_zero_convention():
    r = score([0, 0, 1], [0, 0, 1])  # class 2 absent everywhere
    assert r.precision[2] == r.recall[2] == r.f1[2] == 0.0
    assert r.support[2] == 0
    assert r.zero_division_warnings > 0
    # absent class has zero support so it cannot move the weighted mean
    assert r.weighted_f1 == 1.0


def test_errors():
    with pytest.raises(EvaluationError):
        score([], [])
    with pytest.raises(EvaluationError):
        score([0, 1], [0])


@pytest.mark.parametrize("bad", [None, -1, 3])
def test_labels_outside_classes_rejected(bad):
    # neither counted in some row (None) nor wrapped to class 2 (-1)
    with pytest.raises(EvaluationError):
        score([bad, 0, 1], [2, 0, 1])
    with pytest.raises(EvaluationError):
        score([2, 0, 1], [bad, 0, 1])


def test_matches_oracle_random():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        trues = list(rng.integers(0, 3, size=n))
        preds = list(rng.integers(0, 3, size=n))
        r = score(trues, preds)
        per, acc, macro_f1, weighted_f1 = oracle(trues, preds)
        assert r.accuracy == acc
        assert r.macro_f1 == macro_f1
        assert r.weighted_f1 == pytest.approx(weighted_f1, abs=1e-12)
        for c in range(3):
            assert (r.precision[c], r.recall[c], r.f1[c], r.support[c]) == per[c]


def test_macro_f1_permutation_invariant():
    rng = np.random.default_rng(3)
    trues = list(rng.integers(0, 3, size=30))
    preds = list(rng.integers(0, 3, size=30))
    base = score(trues, preds).macro_f1
    for _ in range(10):
        perm = rng.permutation(30)
        assert score([trues[i] for i in perm], [preds[i] for i in perm]).macro_f1 == base


def test_weighted_equals_macro_on_equal_support():
    rng = np.random.default_rng(4)
    trues = [0] * 10 + [1] * 10 + [2] * 10
    preds = list(rng.integers(0, 3, size=30))
    r = score(trues, preds)
    assert r.weighted_f1 == pytest.approx(r.macro_f1, abs=1e-12)


def test_report_formats():
    r = score([0, 0, 1, 2], [0, 1, 1, 2])
    text = format_report(r)
    assert "weighted" in text and "accuracy" in text
    kv = format_report_kv(r)
    assert "macro_f1 = " in kv
    assert "headline_f1_average = weighted" in kv
