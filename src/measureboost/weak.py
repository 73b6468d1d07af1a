"""Weak classifiers on measures: a region, a mass threshold and a sign.

Two trainers are provided.  `exhaustive_search` scans a discretized grid of
regions x thresholds x orientations for the weighted 0-1 loss minimizer.
`smooth_train` runs (restarted) gradient descent on a cross-entropy loss of
the sigmoid of the smoothed ball feature, then hardens the result back to a
threshold classifier.

The decision rule is strict: predict label 1 iff sign * (mass - threshold) > 0.
Ties at exactly the threshold therefore predict label 0, deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .measures import LabeledDataset, Measure, mass_in_region, mass_matrix
from .regions import AxisRect, Ball, SmoothParams, region_from_json, region_to_json
from .regions import sigmoid, smooth_feature, smooth_terms

__all__ = [
    "WeakClassifier",
    "GridSpec",
    "SmoothTrainConfig",
    "weighted_error",
    "exhaustive_search",
    "kmeans_centers",
    "cross_entropy_loss",
    "cross_entropy_grad",
    "smooth_train",
    "default_thresholds",
]

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class WeakClassifier:
    region: object  # Ball | AxisRect
    threshold: float
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def predict(self, mu: Measure) -> int:
        return int(self.predict_masses(mass_in_region(mu, self.region)))

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

    @staticmethod
    def rects_from_axes(axis_grids, thresholds=None, half_open=True) -> "GridSpec":
        """All boxes with per-axis corners drawn from the given grids.

        axis_grids: one increasing value list per axis.  With half_open,
        +inf upper corners are added so truncated quadrants are available.
        """
        per_axis = []
        for grid in axis_grids:
            grid = list(grid)
            his = grid[1:] + ([np.inf] if half_open else [])
            per_axis.append([(lo, hi) for lo in grid for hi in his if hi > lo])
        boxes = itertools.product(*per_axis)  # one (lo, hi) pair per axis
        regions = [AxisRect(*np.array(box, dtype=float).reshape(-1, 2).T) for box in boxes]
        return GridSpec(tuple(regions), thresholds)


@dataclass(frozen=True)
class SmoothTrainConfig:
    learning_rate: float = 0.05
    epochs: int = 60
    restarts: int = 8
    batch_size: int = 32
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.epochs, self.restarts, self.batch_size, self.init_scale) <= 0:
            raise ValueError("all smooth-train parameters must be positive")


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
    preds = h.predict_masses(mass_matrix(data.measures, (h.region,))[0])
    return float(w[preds != data.labels].sum())


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


def kmeans_centers(points: np.ndarray, k: int, seed: int = 0, iters: int = 100, tol: float = 1e-6):
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
    for _ in range(iters):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        assign = np.argmin(d2, axis=1)
        new = centers.copy()
        for c in range(k):
            mask = assign == c
            if mask.any():
                new[c] = points[mask].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - centers, axis=1)))
        centers = new
        if shift < tol:
            break
    return centers


# --- smoothed objective ----------------------------------------------------

_CLAMP = 1e-12


def cross_entropy_loss(p: SmoothParams, data: LabeledDataset, w=None) -> float:
    """Cross-entropy of sigmoid(smooth feature) against binary labels.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the log.  With
    example weights w, terms are scaled by N * w_i so that uniform weights
    recover the unweighted loss.
    """
    y = data.labels
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be binary")
    n = len(data)
    scale_w = np.ones(n) if w is None else n * _check_weights(w, n)
    f = np.array([smooth_feature(mu, p) for mu in data.measures])
    prob = np.clip(sigmoid(f), _CLAMP, 1 - _CLAMP)
    return float(-(scale_w * (y * np.log(prob) + (1 - y) * np.log(1 - prob))).sum())


def cross_entropy_grad(p: SmoothParams, data: LabeledDataset, w=None, idx=None):
    """Gradient of the cross-entropy loss wrt (center, radius, threshold, scale).

    idx restricts to a mini-batch of example indices.
    """
    n = len(data)
    scale_w = np.ones(n) if w is None else n * _check_weights(w, n)
    idx = range(n) if idx is None else idx
    gc = np.zeros_like(p.center)
    gr = gs = gsig = 0.0
    for i in idx:
        mu, y = data.measures[i], data.labels[i]
        if len(mu) == 0:  # the feature is -threshold, constant in everything else
            gs -= scale_w[i] * (sigmoid(-p.threshold) - y)
            continue
        d, g, e = smooth_terms(mu.points, p)
        dldf = scale_w[i] * (sigmoid(float(mu.weights @ e) - p.threshold) - y)
        active = g > 0
        coef = mu.weights * e / p.scale
        if np.any(active):
            safe_d = np.where(d > 0, d, 1.0)
            direction = (mu.points - p.center) / safe_d[:, None]
            gc += dldf * (coef[active, None] * direction[active]).sum(axis=0)
        gr += dldf * float(coef[active].sum())
        gsig += dldf * float((mu.weights * e * g).sum()) / p.scale**2
        gs -= dldf
    return gc, gr, gs, gsig


def _pairwise_distance_sample(pool: np.ndarray, rng, cap: int = 2000):
    if len(pool) < 2:
        return np.array([1.0])
    i = rng.integers(0, len(pool), size=cap)
    j = rng.integers(0, len(pool), size=cap)
    d = np.linalg.norm(pool[i] - pool[j], axis=1)
    d = d[d > 0]
    return d if len(d) else np.array([1.0])


def smooth_train(data: LabeledDataset, cfg: SmoothTrainConfig, w=None):
    """Restarted SGD on the smoothed objective, for both label orientations.

    Each restart initializes the center at a random support point, the
    radius at a random pairwise-distance quantile, the threshold at the
    median candidate mass and the scale at cfg.init_scale.  The returned
    classifier is the hardened (ball, threshold, sign) with the lowest
    weighted 0-1 training error over all runs.

    Returns (WeakClassifier, training_error).
    """
    y = data.labels
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be binary")
    n = len(data)
    w_arr = np.full(n, 1.0 / n) if w is None else _check_weights(w, n)
    rng = np.random.default_rng(cfg.seed)
    support = [x for mu in data.measures for x in mu.points]
    if not support:
        raise ValueError("dataset has no support points")
    support = np.array(support)
    dists = _pairwise_distance_sample(support, rng)
    best = None
    for sign in (1, -1):
        flipped = data if sign == 1 else LabeledDataset(data.measures, 1 - y)
        for _ in range(cfg.restarts):
            center = support[rng.integers(len(support))].copy()
            radius = float(np.quantile(dists, rng.uniform()))
            scale = cfg.init_scale
            unthresholded = SmoothParams(center, radius, 0.0, scale)
            masses = [smooth_feature(mu, unthresholded) for mu in flipped.measures]
            threshold = float(np.median(masses))
            params = SmoothParams(center, radius, threshold, scale)
            for _ in range(cfg.epochs):
                order = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    gc, gr, gs, gsig = cross_entropy_grad(params, flipped, w_arr, batch)
                    params = SmoothParams(
                        params.center - cfg.learning_rate * gc,
                        max(0.0, params.radius - cfg.learning_rate * gr),
                        params.threshold - cfg.learning_rate * gs,
                        max(1e-3, params.scale - cfg.learning_rate * gsig),
                    )
            hard = WeakClassifier(
                Ball(params.center, params.radius), params.threshold, sign
            )
            err = weighted_error(hard, data, w_arr)
            if best is None or err < best[1]:
                best = (hard, err)
    return best
