"""Geometric regions: closed Euclidean balls.

Balls are closed: a support point sitting exactly on the boundary counts as
inside.  This makes grid searches reproducible since ties never depend on
floating-point happenstance in the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Ball", "region_to_json", "region_from_json"]


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
        # one coordinate at a time into one buffer, in np.sum's order for the
        # few coordinates of a feature point: no (n, dim) temporaries
        out, tmp = np.zeros(len(points)), np.empty(len(points))
        for x, c in zip(points.T, self.center):
            out += np.square(np.subtract(x, c, out=tmp), out=tmp)
        return out


# --- JSON encoding: {"type": "ball", "center": [...], "radius": r} ---------


def region_to_json(region: Ball) -> dict:
    return {"type": "ball", "center": region.center.tolist(), "radius": region.radius}


def region_from_json(obj: dict) -> Ball:
    if obj["type"] == "ball":
        return Ball(np.asarray(obj["center"]), float(obj["radius"]))
    raise ValueError(f"unknown region type {obj.get('type')!r}")
