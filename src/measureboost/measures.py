"""Finite weighted point sets ("measures") and the mass primitives built on them.

A measure here is a finite set of support points in R^d together with
nonnegative weights.  The mass of a region is the sum of the weights of the
support points it contains; bags of points (multi-instance data) are the
special case of all-ones weights.  No implicit normalization is ever applied:
thresholds and the p-mean mass statistic depend on raw mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Measure",
    "LabeledDataset",
    "total_mass",
    "integrate",
    "mass_in_region",
    "mass_matrix",
    "mbar_p",
    "load_dataset_jsonl",
    "save_dataset_jsonl",
]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
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
    def dim(self) -> int:
        for m in self.measures:
            if len(m) > 0:
                return m.dim
        raise ValueError("cannot infer dimension: all measures are empty")

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


def total_mass(mu: Measure) -> float:
    """Total mass of the measure; 0.0 for an empty measure."""
    return float(mu.weights.sum())


def integrate(mu: Measure, f: Callable[[np.ndarray], float]) -> float:
    """Integral of f against mu: sum of weight_i * f(point_i).

    Raises ValueError if f is non-finite on any support point.
    """
    if len(mu) == 0:
        return 0.0
    vals = np.array([f(x) for x in mu.points], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand is non-finite on a support point")
    return float(mu.weights @ vals)


def mass_matrix(measures, regions) -> np.ndarray:
    """masses[a, i] = mass that measure i puts inside closed region a.

    The supports are stacked once and each region tests all of them in one
    `contains_many` call (which checks the dimension); per-measure sums come
    from one `np.bincount`.  An empty measure has mass 0 in every region.
    """
    masses = np.zeros((len(regions), len(measures)))
    filled = [mu for mu in measures if len(mu)]
    if not filled:
        return masses
    points = np.vstack([mu.points for mu in filled])
    weights = np.concatenate([mu.weights for mu in filled])
    owner = np.repeat(np.arange(len(measures)), [len(mu) for mu in measures])
    for a, region in enumerate(regions):
        inside = region.contains_many(points)
        masses[a] = np.bincount(owner[inside], weights=weights[inside], minlength=len(measures))
    return masses


def mass_in_region(mu: Measure, region) -> float:
    """Mass that mu puts inside a closed region (boundary points count)."""
    return float(mass_matrix((mu,), (region,))[0, 0])


def mbar_p(data: LabeledDataset, p: float) -> float:
    """p-mean of the total masses: (sum_i M_i^p / N)^(1/p)."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    if p < 1:
        raise ValueError("p must be >= 1")
    masses = np.array([total_mass(m) for m in data.measures])
    return float(np.mean(masses**p) ** (1.0 / p))


# --- JSON Lines dataset format -------------------------------------------
#
# One record per measure:
#   {"label": <int>, "points": [[x1,...,xd], ...], "weights": [w1, ...]}
# "weights" is optional and defaults to all ones.


def save_dataset_jsonl(data: LabeledDataset, path) -> None:
    with open(path, "w") as fh:
        for mu, y in zip(data.measures, data.labels):
            rec = {"label": int(y), "points": mu.points.tolist()}
            if not np.all(mu.weights == 1.0):
                rec["weights"] = mu.weights.tolist()
            fh.write(json.dumps(rec) + "\n")


def load_dataset_jsonl(path) -> LabeledDataset:
    measures, labels = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            pts = np.asarray(rec["points"], dtype=float)
            if pts.size == 0:
                pts = pts.reshape(0, 0)
            measures.append(Measure(pts, rec.get("weights")))
            labels.append(int(rec["label"]))
    return LabeledDataset(tuple(measures), np.array(labels, dtype=int))
