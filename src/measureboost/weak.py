"""Weak classifiers on measures: a region, a mass threshold and a sign.

`grid_learner` is the trainer of one fit: it ranks each region's default
thresholds among its masses once, and each round's `exhaustive_search`
scores the weighted 0-1 loss of every orientation x region x threshold of
a discretized grid, from running sums of the class weights over each
region's masses in increasing order, and returns the first cell, sign +1
first, then by region, then by threshold, whose loss is within
tau = n * 4 * eps of the least.  tau bounds the rounding of those sums, so
the choice follows the exact losses and no longer depends on the summation
order or the memory layout of the masses.

The decision rule is strict: predict label 1 iff sign * (mass - threshold) > 0.
Ties at exactly the threshold therefore predict label 0, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measures import LabeledDataset, mass_matrix
from .regions import Ball, region_from_json, region_to_json

__all__ = [
    "WeakClassifier",
    "ball_grid",
    "exhaustive_search",
    "grid_learner",
    "rank_thresholds",
    "ThresholdRanks",
    "kmeans_centers",
    "default_thresholds",
]

_WEIGHT_TOL = 1e-9
_KMEANS_ITERS = 100
_KMEANS_TOL = 1e-6
_SKIP_REL, _SKIP_FLOOR = 1e-9, 1e-150  # margins of the bounded Lloyd skip test
_TIE_EPS = 4 * np.finfo(float).eps  # tie margin per measure: tau = n * _TIE_EPS


@dataclass(frozen=True)
class WeakClassifier:
    region: Ball
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


def ball_grid(centers, radii) -> tuple:
    """Search grid: one closed ball per (center, radius), centers outermost."""
    return tuple(Ball(np.asarray(c), float(r)) for c in centers for r in radii)


def _check_weights(w, n):
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError("weight vector length mismatch")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError("weights must be finite, nonnegative and sum to 1")
    return w


def default_thresholds(masses: np.ndarray) -> np.ndarray:
    """Per region (row of masses), its mass quantiles 0, 0.1, ..., 1 plus the
    midpoints of consecutive quantiles, sorted; repeated values are kept."""
    qs = np.sort(np.quantile(masses, np.linspace(0, 1, 11), axis=1).T, axis=1)
    return np.sort(np.hstack([qs, (qs[:, :-1] + qs[:, 1:]) / 2.0]), axis=1)


class ThresholdRanks(NamedTuple):
    """Each region's thresholds placed among its masses (`rank_thresholds`).
    Masses and thresholds do not change between boosting rounds, so a fit
    ranks them once (`grid_learner`) and every round's `exhaustive_search`
    reuses it."""

    thresholds: np.ndarray  # (regions, T)
    order: np.ndarray  # (regions, n): measures by increasing mass, ties in index order
    le: np.ndarray  # (regions, T): how many of the region's masses are <= the threshold
    lt: np.ndarray  # (regions, T): how many are < the threshold


def rank_thresholds(masses, thresholds) -> ThresholdRanks:
    """Rank each row of masses against its row of thresholds with exact
    comparisons only: one rank over every value, offset per row so that one
    stable argsort and two searchsorted calls serve all rows at once."""
    masses, thr = np.asarray(masses, dtype=float), np.asarray(thresholds, dtype=float)
    n_regions, n = masses.shape
    values, rank = np.unique(np.concatenate([masses.ravel(), thr.ravel()]), return_inverse=True)
    offset = len(values) * np.arange(n_regions)[:, None]  # row a's keys all lie below row a+1's
    mkeys = rank[: masses.size].reshape(masses.shape) + offset
    tkeys = rank[masses.size :].reshape(thr.shape) + offset
    order = np.argsort(mkeys, axis=1, kind="stable")
    ranked = np.take_along_axis(mkeys, order, axis=1).ravel()  # ascending, one row after another
    start = n * np.arange(n_regions)[:, None]  # where each row begins in ranked
    le = np.searchsorted(ranked, tkeys, side="right") - start
    lt = np.searchsorted(ranked, tkeys, side="left") - start
    return ThresholdRanks(thr, order, le, lt)


def exhaustive_search(data: LabeledDataset, regions, w, masses: np.ndarray, ranks: ThresholdRanks):
    """Minimize the weighted 0-1 error over regions x thresholds x signs.

    masses is the regions' mass matrix over data, ranks its `rank_thresholds`
    against one row of thresholds per region, and w the weights of data.
    The winner is the first cell in (sign, region, threshold) order, sign +1
    first, whose error is within tau = n * 4 * eps of the least.  tau bounds
    the rounding of the error sums, so ties in exact arithmetic go to sign
    +1, then the lower region index, then the threshold that comes first in
    its row, whatever the summation order or the memory layout of the masses.

    Returns (WeakClassifier, error, its region's masses over data).
    """
    n = len(data)
    w = _check_weights(w, n)
    y = data.labels
    thr, order, le, lt = ranks
    pos, neg = (y == 0) * w, (y == 1) * w  # loss of predicting 1, of predicting 0
    # cum[c, a, k]: class c's weight on region a's k smallest masses, summed in that order
    cum = np.zeros((2, len(order), n + 1))
    np.cumsum(np.stack([pos[order], neg[order]]), axis=2, out=cum[:, :, 1:])
    (pos_le, neg_le), (pos_lt, neg_lt) = (np.take_along_axis(cum, k[None], axis=2) for k in (le, lt))
    pos_all, neg_all = cum[:, :, -1:]
    # strict rule both ways: sign +1 predicts 1 iff m > t, sign -1 iff m < t
    # (m == t predicts 0 in either orientation, matching predict())
    errs = np.stack([neg_le + (pos_all - pos_le), pos_lt + (neg_all - neg_lt)])
    # Each error is two sums of class weights (nonnegative, total 1 within
    # _WEIGHT_TOL), one of them a difference of two prefixes of one running
    # sum: at most n + 1 roundings, each at most eps/2 of a value <= 1.  So
    # every error lies within (n + 1) * eps/2 <= n * eps of its exact value,
    # in any summation order, and two exactly tied cells lie within
    # 2 * n * eps of each other: tau = 4 * n * eps holds them with room to
    # spare.  Errors that differ exactly differ by far more while tau is far
    # below the weights' spacing (1/n for uniform weights, n << 1e7).
    tied = errs <= errs.min() + n * _TIE_EPS
    s, a, t = np.unravel_index(np.argmax(tied), errs.shape)  # argmax: the first True
    return WeakClassifier(regions[a], float(thr[a, t]), 1 - 2 * int(s)), float(errs[s, a, t]), masses[a]


def grid_learner(grid, masses):
    """Learner of one fit, learner(data, w) -> `exhaustive_search` over the
    grid, for the measures whose grid masses are the columns of masses, in
    data's order.  Masses and their `default_thresholds` do not change
    between rounds, so they are ranked once, here."""
    ranks = rank_thresholds(masses, default_thresholds(masses))
    return lambda data, w: exhaustive_search(data, grid, w, masses, ranks)


def kmeans_centers(points: np.ndarray, k: int, seed: int = 0):
    """k-means++ seeding, then Lloyd's algorithm; deterministic given seed.

    Lloyd runs bounded (Hamerly, *Making k-means even faster*, SDM 2010):
    each point keeps an upper bound on its distance to its own center and a
    lower bound on its distance to every other center, and a step computes
    distances only for the points whose bounds overlap.  A point skips only
    when its own center is provably strictly nearest in floating point, so
    the assignments, and the returned centers, are bit for bit those of
    plain Lloyd.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("empty input")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must be between 1 and the number of points, {n}")
    rng = np.random.default_rng(seed)
    centers = [points[rng.integers(n)]]
    # squared distances add one coordinate at a time, in np.sum's order for
    # the few coordinates of a feature point, into preallocated buffers
    d2, acc, tmp = np.full(n, np.inf), np.empty(n), np.empty(n)
    for _ in range(k - 1):
        acc.fill(0.0)
        for x, c in zip(points.T, centers[-1]):
            acc += np.square(np.subtract(x, c, out=tmp), out=tmp)
        np.minimum(d2, acc, out=d2)
        total = d2.sum()  # 0 when all remaining points coincide with centers
        i = np.argsort(-d2)[0] if total <= 0 else rng.choice(n, p=d2 / total)
        centers.append(points[i])
    centers = np.array(centers)
    dim = points.shape[1]
    d2, diff = np.empty((n, k)), np.empty((n, k))
    assign = np.zeros(n, dtype=np.intp)
    upper, lower = np.full(n, np.inf), np.zeros(n)  # every row is computed in the first step
    drift = 0.0  # sum over steps of the largest center move
    for _ in range(_KMEANS_ITERS):
        # A row skips only if its float d2 to its center is strictly below its
        # float d2 to every other center, so the first-minimum argmin would
        # keep it; a float tie always recomputes.  The bounds are distances
        # up to rounding: each sqrt of a float d2 is within a few ulps of the
        # true distance, `upper` is a sum of nonnegative terms (its error is
        # relative to itself) and `lower` a difference of terms no larger
        # than lower + drift, so the relative margin _SKIP_REL covers every
        # rounding by orders of magnitude.  Squares below the smallest normal
        # lose absolute precision; the floor _SKIP_FLOOR, above the square
        # root of the smallest normal, keeps such rows from skipping.
        # Infinite bounds (k = 1, overflow) and NaN fail the test: recompute.
        margin = upper * (1 + _SKIP_REL) + _SKIP_REL * (lower + drift) + _SKIP_FLOOR
        rows = np.flatnonzero(~(margin < lower))
        m = len(rows)
        if m:
            # one coordinate at a time, added in np.sum's order into one buffer: no (n, k, dim) array
            dist, buf = d2[:m], diff[:m]
            dist.fill(0.0)
            for x, c in zip(points[rows].T, centers.T):
                dist += np.square(np.subtract(x[:, None], c, out=buf), out=buf)
            own = np.arange(m), np.argmin(dist, axis=1)
            assign[rows] = own[1]
            upper[rows] = np.sqrt(dist[own])
            dist[own] = np.inf
            lower[rows] = np.sqrt(dist.min(axis=1))
        # per-cluster sums in index order, like mean(axis=0) over the members
        cells = (assign[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(cells, points.ravel(), centers.size).reshape(centers.shape)
        counts = np.bincount(assign, minlength=k)[:, None]
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centers)  # empty: keep the center
        moves = np.linalg.norm(new - centers, axis=1)
        shift = float(np.max(moves))
        centers = new
        if shift < _KMEANS_TOL:
            break
        # a point's own center moved by moves[a]; every other one by at most
        # the largest move, or the second largest when its own moved most
        top = int(np.argmax(moves))
        second = float(np.max(np.delete(moves, top))) if k > 1 else 0.0
        upper += moves[assign]
        lower -= np.where(assign == top, second, shift)
        drift += shift
    return centers
