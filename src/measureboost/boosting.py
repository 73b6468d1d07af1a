"""AdaBoost aggregation of weak measure-classifiers, with a one-vs-one
wrapper for multiclass problems.

Discrete AdaBoost (Freund-Schapire): round weights start uniform, the weak
learner `learner(data, weights)` is fit on the full dataset under the
current weights, and examples are reweighted by exp(+-alpha).  Stage weights
are capped by clamping the round error away from 0 and 1.  A one-vs-one fit
asks `learner_for(cols)` for each class pair's learner, cols being the
pair's positions in the data.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .measures import LabeledDataset, mass_matrix
from .regions import region_to_json
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


def _staged_scores(ensemble: Ensemble, masses: np.ndarray):
    """Signed vote per measure after each stage, from the stage regions'
    `mass_matrix` rows, summed in stage order from 0.0; > 0 means label 1."""
    scores = np.zeros(masses.shape[1])
    for (h, alpha), row in zip(ensemble.stages, masses):
        scores = scores + alpha * (2 * h.predict_masses(row) - 1)
        yield scores


def _stage_masses(measures, stages) -> np.ndarray:
    """`mass_matrix` rows of the stages' regions, each distinct region computed
    once (boosting rounds and one-vs-one pairs often pick the same region)."""
    keys = [json.dumps(region_to_json(h.region)) for h, _ in stages]
    distinct = dict(zip(keys, (h.region for h, _ in stages)))
    row = {key: i for i, key in enumerate(distinct)}
    return mass_matrix(measures, list(distinct.values()))[[row[key] for key in keys]]


def _predict_all(ensembles, measures) -> list:
    """Each ensemble's labels per measure, from one `mass_matrix` over all their
    stage regions; an exact zero score resolves to the first label."""
    masses = _stage_masses(measures, [stage for ens in ensembles for stage in ens.stages])
    splits = np.cumsum([len(ens.stages) for ens in ensembles])[:-1]
    finals = [list(_staged_scores(ens, rows))[-1] for ens, rows in zip(ensembles, np.split(masses, splits))]
    return [np.asarray(ens.labels)[(s > 0).astype(int)] for ens, s in zip(ensembles, finals)]


def ensemble_predict(ensemble: Ensemble, measures) -> np.ndarray:
    """Weighted vote per measure; an exact zero score resolves to the first label."""
    return _predict_all([ensemble], measures)[0]


def staged_training_error(ensemble: Ensemble, data: LabeledDataset) -> list:
    """Training 0-1 error after each prefix of stages."""
    y01 = data.labels == ensemble.labels[1]
    masses = _stage_masses(data.measures, ensemble.stages)
    return [float(np.mean((s > 0) != y01)) for s in _staged_scores(ensemble, masses)]


def adaboost_fit(data: LabeledDataset, rounds: int, learner: Callable) -> Ensemble:
    """Discrete AdaBoost over a weak learner.

    learner(data, weights) -> (WeakClassifier, weighted_error, masses), on the
    data relabeled to {0, 1}: the two present labels, or (0, 1) for constant
    {0, 1} labels; masses, its region's mass per measure, give the round's
    misses.  Stops early on a perfect round (error ~ 0, stage kept
    with capped alpha) or a useless one (error >= 0.5 after round 1, stage
    discarded).  Round 0 is always kept, so the ensemble is never empty; its
    alpha is negative when its error exceeds 0.5, and the vote then flips
    that stage's predictions.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    labels = data.label_set
    if len(labels) != 2:
        if not set(labels) <= {0, 1}:
            raise ValueError(f"adaboost_fit needs binary labels, got {labels}")
        labels = [0, 1]  # constant labels still mean a {0,1} task
    y01 = (data.labels == labels[1]).astype(int)
    data01 = LabeledDataset(data.measures, y01)
    w = np.full(len(data), 1.0 / len(data))
    stages = []
    for t in range(rounds):
        h, _, row = learner(data01, w)
        miss = h.predict_masses(row) != y01
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
    return Ensemble(tuple(stages), tuple(labels))


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
            pair = re.fullmatch(r"(-?\d+)-(-?\d+)", key)  # the labels may be negative: "-2--1"
            if pair is None:
                raise KeyError(f"model key {key!r} is not two integer labels joined by '-'")
            models[(int(pair[1]), int(pair[2]))] = Ensemble.from_json(sub)
        return OneVsOneModel(models, tuple(obj["labels"]))


def one_vs_one_fit(data: LabeledDataset, rounds: int, learner_for: Callable) -> OneVsOneModel:
    """One `adaboost_fit` per class pair, on data.subset(cols) with the
    learner learner_for(cols), cols being the pair's positions in data."""
    labels = data.label_set
    if len(labels) < 2:
        raise ValueError("need at least 2 classes")
    models = {}
    for a, b in combinations(labels, 2):
        cols = np.nonzero(np.isin(data.labels, (a, b)))[0]
        models[(a, b)] = adaboost_fit(data.subset(cols), rounds, learner_for(cols))
    return OneVsOneModel(models, tuple(labels))


def one_vs_one_predict(model: OneVsOneModel, measures) -> np.ndarray:
    """Pairwise vote count per measure; ties break toward the smallest class id."""
    classes = np.sort(np.asarray(model.labels))
    votes = np.zeros((len(classes), len(measures)), dtype=int)
    for preds in _predict_all(list(model.models.values()), measures):
        votes[np.searchsorted(classes, preds), np.arange(len(measures))] += 1
    return classes[np.argmax(votes, axis=0)]  # argmax takes the first maximum
