"""Classification metrics: accuracy, per-class precision/recall/F1, the
confusion matrix and staged training errors.  Reports hold no wall-clock
values; the recipes write those to timings.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricsReport", "evaluate"]


@dataclass(frozen=True)
class MetricsReport:
    labels: tuple
    accuracy: float
    confusion: np.ndarray  # confusion[i, j] = #(true=labels[i], pred=labels[j])
    precision: dict
    recall: dict
    f1: dict
    staged_errors: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.confusion, dtype=int)
        if c.shape != (len(self.labels),) * 2:
            raise ValueError("confusion matrix shape mismatch")
        object.__setattr__(self, "confusion", c)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "precision": {str(k): v for k, v in self.precision.items()},
            "recall": {str(k): v for k, v in self.recall.items()},
            "f1": {str(k): v for k, v in self.f1.items()},
            "staged_errors": list(self.staged_errors),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def evaluate(y_true, y_pred, labels=None, staged_errors=()) -> MetricsReport:
    """Score predictions against truth.

    Per-class precision/recall are 0 when the denominator is empty; F1 is 0
    when precision + recall is 0.  Row i of the confusion matrix sums to the
    number of true examples of labels[i].
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or len(y_true) == 0:
        raise ValueError("y_true and y_pred must be equal-length nonempty 1-d arrays")
    if labels is None:
        labels = tuple(sorted(set(y_true.tolist()) | set(y_pred.tolist())))
    labels = tuple(labels)
    index = {c: i for i, c in enumerate(labels)}
    conf = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(y_true, y_pred):
        conf[index[t], index[p]] += 1
    precision, recall, f1 = {}, {}, {}
    for i, c in enumerate(labels):
        tp = conf[i, i]
        pred_c = conf[:, i].sum()
        true_c = conf[i, :].sum()
        precision[c] = tp / pred_c if pred_c else 0.0
        recall[c] = tp / true_c if true_c else 0.0
        denom = precision[c] + recall[c]
        f1[c] = 2 * precision[c] * recall[c] / denom if denom else 0.0
    return MetricsReport(
        labels=labels,
        accuracy=float(np.mean(y_true == y_pred)),
        confusion=conf,
        precision=precision,
        recall=recall,
        f1=f1,
        staged_errors=tuple(staged_errors),
    )
