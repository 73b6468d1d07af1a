"""Finite weighted point sets ("measures") and the mass primitives built on them.

A measure here is a finite set of support points in R^d together with
nonnegative weights.  The mass of a ball is the sum of the weights of the
support points it contains; bags of points (multi-instance data) are the
special case of all-ones weights.  No implicit normalization is ever applied:
thresholds depend on raw mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Measure",
    "LabeledDataset",
    "mass_matrix",
    "load_dataset_jsonl",
    "save_dataset_jsonl",
    "require_fields",
    "read_jsonl",
]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        if len(pts):  # rows without coordinates are not an empty cloud
            raise ValueError(f"points must have d >= 1 coordinates, got shape {pts.shape}")
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    if pts.ndim != 2:
        raise ValueError(f"points must be a (n, d) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class Measure:
    """A finite measure: support points (n, d) and nonnegative weights (n,).

    Immutable after construction; all operations on it are pure functions,
    so measures can be shared freely across worker processes.
    """

    points: np.ndarray
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        pts = _as_points(self.points)
        if self.weights is None:
            w = np.ones(len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(pts),):
            raise ValueError(f"weights shape {w.shape} does not match {len(pts)} points")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LabeledDataset:
    """Measures with integer class labels, all sharing one ambient dimension."""

    measures: tuple
    labels: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        measures = tuple(self.measures)
        labels = np.asarray(self.labels, dtype=int)
        if labels.shape != (len(measures),):
            raise ValueError("labels and measures must have the same length")
        dims = {m.dim for m in measures if len(m) > 0}
        if len(dims) > 1:
            raise ValueError(f"measures have inconsistent dimensions: {sorted(dims)}")
        labels.setflags(write=False)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "labels", labels)

    @property
    def label_set(self) -> list:
        return sorted(set(self.labels.tolist()))

    def __len__(self) -> int:
        return len(self.measures)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(
            tuple(self.measures[i] for i in idx), self.labels[idx]
        )


def mass_matrix(measures, balls) -> np.ndarray:
    """masses[a, i] = mass that measure i puts inside closed ball a.

    The supports are stacked once and each ball tests all of them at once
    (checking the dimension); consecutive balls on one center share one
    `Ball.sq_distances` pass.  Per-measure sums come from one `np.bincount`.
    An empty measure has mass 0 in every ball.
    """
    masses = np.zeros((len(balls), len(measures)))
    filled = [mu for mu in measures if len(mu)]
    if not filled:
        return masses
    points = np.vstack([mu.points for mu in filled])
    weights = np.concatenate([mu.weights for mu in filled])
    owner = np.repeat(np.arange(len(measures)), [len(mu) for mu in measures])
    center = None
    for a, ball in enumerate(balls):
        if not np.array_equal(ball.center, center):
            center, d2 = ball.center, ball.sq_distances(points)
        inside = d2 <= ball.radius**2
        masses[a] = np.bincount(owner[inside], weights=weights[inside], minlength=len(measures))
    return masses


# --- JSON Lines dataset format -------------------------------------------
#
# One record per measure:
#   {"label": <int>, "points": [[x1,...,xd], ...], "weights": [w1, ...]}
# "weights" is optional and defaults to all ones.


def _malformed(path, index: int, key, reason) -> KeyError:
    return KeyError(f"{path}: record {index} has a malformed {key!r} field ({reason})")


def require_fields(rec, fields, path, index: int) -> dict:
    """Check one record: `fields` maps each required key to a converter, and
    the converted value replaces the raw one.  A record that is not an
    object, a missing key or a value its converter rejects raises KeyError
    naming the file, the record and the field."""
    if not isinstance(rec, dict):
        raise KeyError(f"{path}: record {index} is not a JSON object")
    for key, convert in fields.items():
        if key not in rec:
            raise KeyError(f"{path}: record {index} has no {key!r} field")
        try:
            rec[key] = convert(rec[key])
        except (TypeError, ValueError) as exc:
            raise _malformed(path, index, key, exc) from None
    return rec


def read_jsonl(path, fields) -> list:
    """The records of a JSON Lines file, blank lines skipped, each checked
    and converted by `require_fields`."""
    records = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                records.append(require_fields(json.loads(line), fields, path, len(records) + 1))
    return records


def save_dataset_jsonl(data: LabeledDataset, path) -> None:
    with open(path, "w") as fh:
        for mu, y in zip(data.measures, data.labels):
            rec = {"label": int(y), "points": mu.points.tolist()}
            if not np.all(mu.weights == 1.0):
                rec["weights"] = mu.weights.tolist()
            fh.write(json.dumps(rec) + "\n")


def load_dataset_jsonl(path) -> LabeledDataset:
    records = read_jsonl(path, {"points": _as_points, "label": int})
    measures, dims = [], set()
    for index, rec in enumerate(records, 1):
        try:  # the points are checked, so what fails here is the weights
            mu = Measure(rec["points"], rec.get("weights"))
        except (TypeError, ValueError) as exc:
            raise _malformed(path, index, "weights", exc) from None
        if len(mu):
            dims.add(mu.dim)
        if len(dims) > 1:
            raise _malformed(path, index, "points", f"dimensions {sorted(dims)} in one file")
        measures.append(mu)
    return LabeledDataset(tuple(measures), np.array([rec["label"] for rec in records], dtype=int))
