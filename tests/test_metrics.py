import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.metrics import MetricsReport, evaluate


def test_hand_worked_binary_example():
    y_true = [0, 0, 0, 1, 1, 1]
    y_pred = [0, 0, 1, 1, 1, 0]
    r = evaluate(y_true, y_pred)
    assert r.labels == (0, 1)
    assert r.accuracy == pytest.approx(4 / 6)
    np.testing.assert_array_equal(r.confusion, [[2, 1], [1, 2]])
    assert r.precision[1] == pytest.approx(2 / 3)
    assert r.recall[1] == pytest.approx(2 / 3)
    assert r.f1[1] == pytest.approx(2 / 3)


def test_absent_predicted_class_gives_zero_metrics():
    r = evaluate([0, 1, 1], [0, 0, 0])
    assert r.precision[1] == 0.0
    assert r.recall[1] == 0.0
    assert r.f1[1] == 0.0


def test_explicit_labels_cover_unseen_classes():
    r = evaluate([0, 0], [0, 0], labels=(0, 1, 2))
    assert r.confusion.shape == (3, 3)
    assert r.recall[2] == 0.0


def test_validation():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([0, 1], [0])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_confusion_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    k = int(rng.integers(2, 5))
    y_true = rng.integers(0, k, size=n)
    y_pred = rng.integers(0, k, size=n)
    r = evaluate(y_true, y_pred, labels=tuple(range(k)))
    assert r.confusion.sum() == n
    assert np.trace(r.confusion) / n == pytest.approx(r.accuracy)
    for i, c in enumerate(r.labels):
        assert r.confusion[i].sum() == np.sum(y_true == c)
        assert r.confusion[:, i].sum() == np.sum(y_pred == c)
        p, q = r.precision[c], r.recall[c]
        expect_f1 = 2 * p * q / (p + q) if p + q else 0.0
        assert r.f1[c] == pytest.approx(expect_f1, abs=1e-12)


def test_report_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        MetricsReport((0, 1), 1.0, np.zeros((3, 3)), {}, {}, {})


def test_save(tmp_path):
    r = evaluate([0, 1], [0, 1], staged_errors=(0.4, 0.1))
    path = tmp_path / "a.json"
    r.save(path)
    b = json.loads(path.read_text())
    assert "timings" not in b
    assert b["staged_errors"] == [0.4, 0.1]
    assert b["accuracy"] == 1.0
