"""A FilteredComplex from (verts, value) pairs: the tests' way to hand an
enumerated complex to `persistence` and `betti_oracle`."""

import numpy as np

from measureboost.ph import FilteredComplex


def complex_of(simplices, max_dim):
    """The FilteredComplex of (verts, value) pairs sorted by (value,
    dimension, verts), dimensions 0 .. max_dim."""
    groups = [[s for s in simplices if len(s[0]) == k + 1] for k in range(max_dim + 1)]
    return FilteredComplex(
        tuple(np.array([v for v, _ in g], dtype=np.intp).reshape(-1, k + 1) for k, g in enumerate(groups)),
        tuple(np.array([x for _, x in g], dtype=float) for g in groups),
    )
