"""AdaBoost aggregation of weak measure-classifiers, with a one-vs-one
wrapper for multiclass problems.

Discrete AdaBoost (Freund-Schapire): round weights start uniform, the weak
learner is fit on the current weights, and examples are reweighted by
exp(+-alpha).  Stage weights are capped by clamping the round error away
from 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .measures import LabeledDataset, Measure, mass_matrix
from .weak import WeakClassifier

__all__ = [
    "Ensemble",
    "OneVsOneModel",
    "adaboost_fit",
    "ensemble_predict",
    "staged_training_error",
    "one_vs_one_fit",
    "one_vs_one_predict",
]

_ERR_CLAMP = 1e-10


@dataclass(frozen=True)
class Ensemble:
    """Ordered (weak classifier, stage weight) pairs over binary labels {0, 1}."""

    stages: tuple  # of (WeakClassifier, alpha)
    labels: tuple = (0, 1)

    def __post_init__(self):
        if len(self.stages) == 0:
            raise ValueError("an ensemble needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "labels", tuple(self.labels))

    def score(self, mu: Measure) -> float:
        """Signed vote: positive means label 1."""
        return sum(alpha * (2 * h.predict(mu) - 1) for h, alpha in self.stages)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "stages": [
                {"classifier": h.to_json(), "alpha": alpha} for h, alpha in self.stages
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Ensemble":
        stages = tuple(
            (WeakClassifier.from_json(s["classifier"]), float(s["alpha"]))
            for s in obj["stages"]
        )
        return Ensemble(stages, tuple(obj["labels"]))


def ensemble_predict(ensemble: Ensemble, mu: Measure) -> int:
    """Weighted vote; an exact zero score resolves to the first label."""
    lo, hi = ensemble.labels
    return hi if ensemble.score(mu) > 0 else lo


def staged_training_error(ensemble: Ensemble, data: LabeledDataset) -> list:
    """Training 0-1 error after each prefix of stages."""
    scores = np.zeros(len(data))
    errors = []
    y01 = (data.labels == ensemble.labels[1]).astype(int)
    masses = mass_matrix(data.measures, [h.region for h, _ in ensemble.stages])
    for (h, alpha), row in zip(ensemble.stages, masses):
        scores += alpha * (2 * h.predict_masses(row) - 1)
        errors.append(float(np.mean((scores > 0).astype(int) != y01)))
    return errors


def adaboost_fit(
    data: LabeledDataset,
    rounds: int,
    learner: Callable,
    seed: int = 0,
    subsample: float = 1.0,
    labels: tuple | None = None,
) -> Ensemble:
    """Discrete AdaBoost over a weak learner.

    learner(data, weights, rng) -> (WeakClassifier, weighted_error).  With
    subsample < 1, each round fits the learner on a fresh seed-derived
    fraction of the data; the error and reweighting always use the full
    dataset.  Stops early on a perfect round (error ~ 0, stage kept with
    capped alpha) or a useless one (error >= 0.5 after round 1, stage
    discarded).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if labels is None:
        present = data.label_set
        if len(present) == 2:
            labels = tuple(present)
        elif set(present) <= {0, 1}:  # constant labels still mean a {0,1} task
            labels = (0, 1)
        else:
            raise ValueError(f"adaboost_fit needs binary labels, got {present}")
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError("labels must name exactly 2 classes")
    n = len(data)
    y = np.where(data.labels == labels[1], 1, -1)
    # weak learners always see a clean {0, 1} relabeling of the task
    data01 = LabeledDataset(data.measures, (y > 0).astype(int))
    w = np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    stages = []
    for t in range(rounds):
        if subsample < 1.0:
            m = max(2, int(round(subsample * n)))
            idx = rng.choice(n, size=m, replace=False)
            sub = data01.subset(idx)
            sub_w = w[idx]
            sub_w = sub_w / sub_w.sum()
            h, _ = learner(sub, sub_w, rng)
        else:
            h, _ = learner(data01, w, rng)
        miss = h.predict_masses(mass_matrix(data.measures, (h.region,))[0]) != data01.labels
        err = float(w[miss].sum())
        if err >= 0.5 and t > 0:
            break
        e = min(max(err, _ERR_CLAMP), 1 - _ERR_CLAMP)
        alpha = 0.5 * math.log((1 - e) / e)
        stages.append((h, alpha))
        if err <= _ERR_CLAMP:
            break
        w = w * np.exp(np.where(miss, alpha, -alpha))
        w = w / w.sum()
    if not stages:  # first round already useless: keep it anyway (alpha >= 0)
        raise RuntimeError("adaboost produced no stages")
    return Ensemble(tuple(stages), (labels[0], labels[1]))


@dataclass(frozen=True)
class OneVsOneModel:
    """One binary ensemble per unordered class pair; majority of pairwise votes."""

    models: dict  # (class_i, class_j) with i < j -> Ensemble
    labels: tuple

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "models": {f"{i}-{j}": m.to_json() for (i, j), m in self.models.items()},
        }

    @staticmethod
    def from_json(obj: dict) -> "OneVsOneModel":
        models = {}
        for key, sub in obj["models"].items():
            i, j = key.split("-")
            models[(int(i), int(j))] = Ensemble.from_json(sub)
        return OneVsOneModel(models, tuple(obj["labels"]))


def one_vs_one_fit(
    data: LabeledDataset, rounds: int, learner: Callable, seed: int = 0, subsample: float = 1.0
) -> OneVsOneModel:
    labels = data.label_set
    if len(labels) < 2:
        raise ValueError("need at least 2 classes")
    counts = {c: int(np.sum(data.labels == c)) for c in labels}
    empty = [c for c, k in counts.items() if k == 0]
    if empty:
        raise ValueError(f"classes with no training examples: {empty}")
    models = {}
    for pair_idx, (a, b) in enumerate(combinations(labels, 2)):
        mask = np.isin(data.labels, (a, b))
        sub = data.subset(np.nonzero(mask)[0])
        models[(a, b)] = adaboost_fit(
            sub, rounds, learner, seed=seed + 7919 * pair_idx, subsample=subsample
        )
    return OneVsOneModel(models, tuple(labels))


def one_vs_one_predict(model: OneVsOneModel, mu: Measure) -> int:
    """Pairwise vote count; ties break toward the smallest class id."""
    votes = {c: 0 for c in model.labels}
    for (a, b), ens in model.models.items():
        votes[ensemble_predict(ens, mu)] += 1
    return max(sorted(votes), key=lambda c: votes[c])
