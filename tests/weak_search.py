"""The exhaustive search over a grid, everything derived per call: the tests'
way to reach the default-threshold search without a fit."""

import numpy as np

from measureboost.measures import mass_matrix
from measureboost.weak import default_thresholds, exhaustive_search, rank_thresholds


def search(data, grid, w=None, masses=None, thresholds=None):
    """`exhaustive_search` over grid on data.  w defaults to uniform weights,
    masses to the grid's mass matrix over data and thresholds (one row per
    region) to their `default_thresholds`; the thresholds are ranked afresh."""
    n = len(data)
    w = np.full(n, 1.0 / n) if w is None else w
    masses = mass_matrix(data.measures, grid) if masses is None else np.asarray(masses, dtype=float)
    thresholds = default_thresholds(masses) if thresholds is None else thresholds
    return exhaustive_search(data, grid, w, masses, rank_thresholds(masses, thresholds))
