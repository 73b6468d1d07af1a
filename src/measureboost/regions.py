"""Geometric regions (closed Euclidean balls, axis-aligned boxes) and the
smoothed ball feature used by the gradient-descent weak learner.

Regions are closed: a support point sitting exactly on the boundary counts
as inside.  This makes grid searches reproducible since ties never depend on
floating-point happenstance in the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Measure

__all__ = [
    "Ball",
    "AxisRect",
    "SmoothParams",
    "contains",
    "dist_to_ball",
    "smooth_terms",
    "smooth_feature",
    "sigmoid",
    "region_to_json",
    "region_from_json",
]


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 1-d coordinate array")
        if not (self.radius >= 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be finite and nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        d2 = np.sum((points - self.center) ** 2, axis=1)
        return d2 <= self.radius**2


@dataclass(frozen=True)
class AxisRect:
    """Closed axis-aligned box; +inf entries in maxs give half-open quadrants."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.mins, dtype=float)
        hi = np.asarray(self.maxs, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("mins and maxs must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo == np.inf):
            raise ValueError("mins must be finite, maxs may only be +inf")
        if np.any(lo > hi):
            raise ValueError("mins must be <= maxs componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "mins", lo)
        object.__setattr__(self, "maxs", hi)

    @property
    def dim(self) -> int:
        return len(self.mins)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        return np.all((points >= self.mins) & (points <= self.maxs), axis=1)


Region = Ball | AxisRect


def contains(region: Region, x) -> bool:
    """Closed membership test for a single point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return bool(region.contains_many(x)[0])


def dist_to_ball(ball: Ball, x) -> float:
    """Euclidean set distance to a closed ball: max(0, ||x - C|| - r)."""
    x = np.asarray(x, dtype=float)
    return max(0.0, float(np.linalg.norm(x - ball.center)) - ball.radius)


@dataclass(frozen=True)
class SmoothParams:
    """Parameters of the smoothed ball feature: center, radius, threshold, scale."""

    center: np.ndarray
    radius: float
    threshold: float
    scale: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not self.scale > 0:
            raise ValueError("scale must be positive")


def smooth_terms(points: np.ndarray, p: SmoothParams):
    """Per point: distance d to the center, gap g = max(0, d - radius) to the
    ball, and decay exp(-g / scale)."""
    d = np.linalg.norm(points - p.center, axis=1)
    g = np.maximum(0.0, d - p.radius)
    return d, g, np.exp(-g / p.scale)


def smooth_feature(mu: Measure, p: SmoothParams) -> float:
    """Integral of exp(-dist(ball, x)/scale) against mu, minus the threshold.

    Converges to mass_in_region(mu, ball) - threshold as scale -> 0 when no
    support point sits exactly on the ball boundary.
    """
    if len(mu) == 0:
        return -p.threshold
    return float(mu.weights @ smooth_terms(mu.points, p)[2]) - p.threshold


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if scalar else out


# --- JSON encoding --------------------------------------------------------
#
#   {"type": "ball", "center": [...], "radius": r}
#   {"type": "rect", "mins": [...], "maxs": [...]}   ("inf" allowed in maxs)


def region_to_json(region: Region) -> dict:
    if isinstance(region, Ball):
        return {"type": "ball", "center": region.center.tolist(), "radius": region.radius}
    maxs = [("inf" if m == np.inf else m) for m in region.maxs.tolist()]
    return {"type": "rect", "mins": region.mins.tolist(), "maxs": maxs}


def region_from_json(obj: dict) -> Region:
    if obj["type"] == "ball":
        return Ball(np.asarray(obj["center"]), float(obj["radius"]))
    if obj["type"] == "rect":
        maxs = [math.inf if m == "inf" else float(m) for m in obj["maxs"]]
        return AxisRect(np.asarray(obj["mins"], dtype=float), np.asarray(maxs))
    raise ValueError(f"unknown region type {obj.get('type')!r}")
