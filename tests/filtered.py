"""A FilteredComplex from (verts, value) pairs: the tests' way to hand an
enumerated complex to `persistence` and `betti_oracle`; the dense matrix of
half distances, with the builder's edge values; and the homology reduction
of one boundary block, which judges the pairs `persistence` finds."""

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


def half_distances(points):
    """Half the distance between every two points of an (n, d) cloud, or of
    each cloud of an (N, n, d) stack, summed one coordinate at a time in that
    order, as the builder values its edges: the same bits."""
    values = np.zeros(points.shape[:-1] + points.shape[-2:-1])
    for x in np.moveaxis(points, -1, 0):
        values += np.square(x[..., :, None] - x[..., None, :])
    return np.sqrt(values) / 2.0


def reduce_block(rows, cols):
    """The homology reduction of one boundary block, left to right over
    GF(2), each column a Python-int bitset over the rows: the oracle of the
    pairs `persistence` finds.

    rows, cols: vertex rows of the (k-1)- and k-simplices in filtration order.

    Returns {column position: pivot row position} for the columns that do
    not reduce to zero, in column order; each is a finite pair.
    """
    position = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    pivot_col, pivots = {}, {}
    for j, verts in enumerate(map(tuple, cols.tolist())):
        col = 0
        for s in range(len(verts)):
            col ^= 1 << position[verts[:s] + verts[s + 1 :]]
        while col:
            low = col.bit_length() - 1
            other = pivot_col.get(low)
            if other is None:
                pivot_col[low] = col
                pivots[j] = low
                break
            col ^= other
    return pivots
