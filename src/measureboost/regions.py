"""Geometric regions: closed Euclidean balls and axis-aligned boxes.

Regions are closed: a support point sitting exactly on the boundary counts
as inside.  This makes grid searches reproducible since ties never depend on
floating-point happenstance in the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "AxisRect",
    "contains",
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

    def sq_distances(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        return np.sum((points - self.center) ** 2, axis=1)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        return self.sq_distances(points) <= self.radius**2


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
