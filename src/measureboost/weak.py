"""Weak classifiers on measures: a region, a mass threshold and a sign.

`exhaustive_search` is the trainer: it scans a discretized grid of regions x
thresholds x orientations for the weighted 0-1 loss minimizer.

The decision rule is strict: predict label 1 iff sign * (mass - threshold) > 0.
Ties at exactly the threshold therefore predict label 0, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import LabeledDataset, mass_matrix
from .regions import Ball, region_from_json, region_to_json

__all__ = [
    "WeakClassifier",
    "GridSpec",
    "weighted_error",
    "exhaustive_search",
    "kmeans_centers",
    "default_thresholds",
]

_WEIGHT_TOL = 1e-9
_KMEANS_ITERS = 100
_KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class WeakClassifier:
    region: object  # Ball | AxisRect
    threshold: float
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def predict(self, measures) -> np.ndarray:
        """0/1 prediction per measure, from one `mass_matrix` row."""
        return self.predict_masses(mass_matrix(measures, (self.region,))[0])

    def predict_masses(self, masses) -> np.ndarray:
        """Predictions from region masses, e.g. this region's `mass_matrix` row."""
        return (self.sign * (np.asarray(masses) - self.threshold) > 0).astype(int)

    def to_json(self) -> dict:
        return {
            "region": region_to_json(self.region),
            "threshold": self.threshold,
            "sign": self.sign,
        }

    @staticmethod
    def from_json(obj: dict) -> "WeakClassifier":
        return WeakClassifier(
            region_from_json(obj["region"]), float(obj["threshold"]), int(obj["sign"])
        )


@dataclass(frozen=True)
class GridSpec:
    """Discretized search grid: a list of candidate regions plus thresholds.

    thresholds=None derives them per region from the observed masses
    (mass quantiles 0, 0.1, ..., 1 and their midpoints): only those values
    can change the empirical loss.
    """

    regions: tuple
    thresholds: tuple | None = None

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ValueError("grid must contain at least one region")
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(self.thresholds))

    @staticmethod
    def balls(centers, radii, thresholds=None) -> "GridSpec":
        regions = [Ball(np.asarray(c), float(r)) for c in centers for r in radii]
        return GridSpec(tuple(regions), thresholds)


def _check_weights(w, n):
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError("weight vector length mismatch")
    if np.any(w < 0) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    return w


def weighted_error(h: WeakClassifier, data: LabeledDataset, w=None) -> float:
    """Weighted 0-1 error; uniform weights when w is None."""
    n = len(data)
    w = np.full(n, 1.0 / n) if w is None else _check_weights(w, n)
    return float(w[h.predict(data.measures) != data.labels].sum())


def default_thresholds(masses: np.ndarray) -> np.ndarray:
    """Mass quantiles 0, 0.1, ..., 1 plus midpoints of consecutive quantiles."""
    qs = np.quantile(masses, np.linspace(0, 1, 11))
    qs = np.unique(qs)
    mids = (qs[:-1] + qs[1:]) / 2.0
    return np.unique(np.concatenate([qs, mids]))


def exhaustive_search(
    data: LabeledDataset, grid: GridSpec, w=None, masses: np.ndarray | None = None
):
    """Minimize the weighted 0-1 error over regions x thresholds x signs.

    Region masses are computed once per (measure, region) pair and reused
    for every threshold.  Ties break deterministically: lowest error, then
    sign +1 before -1, then grid enumeration order (region-major, then
    threshold order).

    Returns (WeakClassifier, error).
    """
    n = len(data)
    w = np.full(n, 1.0 / n) if w is None else _check_weights(w, n)
    y = data.labels
    if masses is None:
        masses = mass_matrix(data.measures, grid.regions)
    best = None  # (error, sign_rank, region_idx, thr_idx, classifier)
    for a, region in enumerate(grid.regions):
        m = masses[a]
        thr = (
            np.asarray(grid.thresholds, dtype=float)
            if grid.thresholds is not None
            else default_thresholds(m)
        )
        # strict rule both ways: sign +1 predicts 1 iff m > t, sign -1 iff m < t
        # (m == t predicts 0 in either orientation, matching predict())
        above = m[None, :] > thr[:, None]
        below = m[None, :] < thr[:, None]
        err_plus = np.where(above, (y == 0) * w, (y == 1) * w).sum(axis=1)
        err_minus = np.where(below, (y == 0) * w, (y == 1) * w).sum(axis=1)
        for sign_rank, errs, sign in ((0, err_plus, 1), (1, err_minus, -1)):
            t = int(np.argmin(errs))
            key = (float(errs[t]), sign_rank, a, t)
            if best is None or key < best[0]:
                best = (key, WeakClassifier(region, float(thr[t]), sign))
    return best[1], best[0][0]


def kmeans_centers(points: np.ndarray, k: int, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding; deterministic given seed."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("empty input")
    if k > len(points):
        raise ValueError("k exceeds the number of points")
    rng = np.random.default_rng(seed)
    centers = [points[rng.integers(len(points))]]
    for _ in range(k - 1):
        d2 = np.min(
            np.sum((points[:, None, :] - np.array(centers)[None, :, :]) ** 2, axis=-1),
            axis=1,
        )
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with centers
            far = np.argsort(-d2)
            centers.append(points[far[0]])
            continue
        centers.append(points[rng.choice(len(points), p=d2 / total)])
    centers = np.array(centers)
    for _ in range(_KMEANS_ITERS):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        assign = np.argmin(d2, axis=1)
        new = centers.copy()
        for c in range(k):
            mask = assign == c
            if mask.any():
                new[c] = points[mask].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - centers, axis=1)))
        centers = new
        if shift < _KMEANS_TOL:
            break
    return centers
