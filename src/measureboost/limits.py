"""Empirical machinery for the limit theorems: rescaled rectangle counts of
persistence diagrams, Monte-Carlo estimation of their limiting measure, the
matching scale schedules, and Monte-Carlo empirical Rademacher complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import mass_matrix
from .ph.complexes import cech_filtration
from .ph.persistence import betti_oracle
from .ph.diagrams import PersistenceDiagram

__all__ = [
    "Rectangle",
    "r_n_schedule",
    "xi_count",
    "mu_k_montecarlo",
    "rademacher_estimate",
    "feature_matrix",
]


@dataclass(frozen=True)
class Rectangle:
    """Birth/death rectangle [s, t) x [u, v) with 0 < s <= t <= u <= v <= inf.

    Since s > 0, no degree-0 pair of a Cech diagram (all born at 0) lies in
    any rectangle, so degree-0 counts and limits are identically zero.
    """

    s: float
    t: float
    u: float
    v: float

    def __post_init__(self):
        if not (0 < self.s <= self.t <= self.u <= self.v):
            raise ValueError("need 0 < s <= t <= u <= v")

    def count_in(self, diagram: PersistenceDiagram) -> int:
        p = diagram.pairs
        if len(p) == 0:
            return 0
        return int(
            np.sum(
                (p[:, 0] >= self.s)
                & (p[:, 0] < self.t)
                & (p[:, 1] >= self.u)
                & (p[:, 1] < self.v)
            )
        )


def r_n_schedule(n: int, k: int, d: int) -> float:
    """Scale sequence for the sparse-regime rectangle counts.

    Exponent -(k+2)/(2+d(k+1)) for k <= d-4, else -(k+4)/(d(k+3));
    at k = d-4 both branches are admissible and the first is used.
    """
    if n < 2 or k < 0 or d < 1:
        raise ValueError("need n >= 2, k >= 0, d >= 1")
    if k <= d - 4:
        expo = (k + 2) / (2 + d * (k + 1))
    else:
        expo = (k + 4) / (d * (k + 3))
    return float(n ** (-expo))


def xi_count(
    diagram: PersistenceDiagram, rect: Rectangle, n: int, r_n: float, k: int, d: int
) -> float:
    """Rescaled rectangle count of the diagram of the 1/r_n-blown-up cloud.

    The diagram must be computed on the points divided by r_n; counting it
    inside `rect` directly is then the same as counting the unrescaled
    diagram inside r_n * rect.  Normalization: n^(k+2) * r_n^(d(k+1)).

    For k = 0 the count of a Cech diagram is identically zero: all its
    degree-0 births are 0, below the rectangle's s > 0.
    """
    if n < 1 or not (0 < r_n):
        raise ValueError("inconsistent n / r_n metadata")
    if diagram.dim != k:
        raise ValueError(f"diagram dimension {diagram.dim} != k={k}")
    return rect.count_in(diagram) / (n ** (k + 2) * r_n ** (d * (k + 1)))


def _ball_volume(d: int, radius: float) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d


def mu_k_montecarlo(
    density_moment: float, k: int, d: int, rect: Rectangle, n_mc: int, seed: int
):
    """Monte-Carlo estimate of the limiting rectangle measure.

    Samples k+1 offsets uniformly in the ball of radius (k+2)*v around the
    origin (outside it no k-feature of k+2 points at scale <= v can exist),
    evaluates the inclusion-exclusion combination of the Betti indicators
    at the four rectangle scales, and rescales by the ball volume, the
    density moment and 1/(k+2)!.

    For k = 0 the estimate is identically zero: the Betti-0 indicator is
    monotone in the scale, so the combination cancels on every sample.  For
    d = 1 and k >= 1 it is zero too: points on a line carry no k-cycle.

    Returns (estimate, standard_error).
    """
    if not math.isfinite(rect.v):
        raise ValueError("v must be finite for Monte-Carlo sampling")
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    rng = np.random.default_rng(seed)
    radius = (k + 2) * rect.v
    samples = np.empty(n_mc)
    for i in range(n_mc):
        # uniform in the d-ball via normalized Gaussian + radial power
        g = rng.standard_normal((k + 1, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        y = g * (radius * rng.uniform(size=(k + 1, 1)) ** (1.0 / d))
        pts = np.vstack([np.zeros((1, d)), y])
        # one complex per sample; each h is 1 iff its k-th Betti number at that scale is 1
        fc = cech_filtration(pts, max_dim=min(k + 1, 3), max_value=float("inf"))
        hs = {r: int(betti_oracle(fc, r, k) == 1) for r in (rect.s, rect.t, rect.u, rect.v)}
        samples[i] = (
            hs[rect.t] * hs[rect.u]
            - hs[rect.t] * hs[rect.v]
            - hs[rect.s] * hs[rect.u]
            + hs[rect.s] * hs[rect.v]
        )
    factor = _ball_volume(d, radius) ** (k + 1) * density_moment / math.factorial(k + 2)
    mean = float(samples.mean()) * factor
    stderr = float(samples.std(ddof=1) / math.sqrt(n_mc)) * factor
    return mean, stderr


def feature_matrix(regions, measures) -> np.ndarray:
    """values[a, i] = mass of measure i inside region a (a finite function class)."""
    return mass_matrix(measures, regions)


def rademacher_estimate(values: np.ndarray, n_draws: int, seed: int):
    """Monte-Carlo empirical Rademacher complexity of a finite function class.

    values[f, i] holds f(Z_i); for each sign draw the inner supremum is an
    exact enumeration max over rows.  Returns (estimate, standard_error).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("values must be a nonempty (functions x sample) matrix")
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    n_funcs, n = values.shape
    rng = np.random.default_rng(seed)
    sups = np.empty(n_draws)
    for b in range(n_draws):
        sigma = rng.choice((-1.0, 1.0), size=n)
        sups[b] = np.max(np.abs(values @ sigma)) / n
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(n_draws))
