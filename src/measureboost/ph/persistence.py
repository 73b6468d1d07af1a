"""Persistence computation by column reduction of the GF(2) boundary matrix.

Columns are stored as Python integers used as bitsets over the rows of the
boundary block one dimension down; XOR is then a single C-level operation
and the pivot is `bit_length() - 1`.  The boundary matrix is block-diagonal
across dimensions, so each block reduces independently; blocks are processed
from the top dimension downward so the clearing shortcut (skip columns known
to be births) applies.
"""

from __future__ import annotations

import numpy as np

from .complexes import FilteredComplex
from .diagrams import PersistenceDiagram

__all__ = ["persistence", "betti_oracle"]


def _reduce_block(cols, row_index, cleared):
    """Reduce one boundary block.

    cols: list of (verts, value) for k-simplices in filtration order.
    row_index: position of each (k-1)-simplex in filtration order.
    cleared: column positions known to be births (skipped).

    Returns {column position: pivot row position} for the columns that do
    not reduce to zero, in column order; each is a finite pair.
    """
    pivot_col = {}
    pivots = {}
    for j, (verts, _value) in enumerate(cols):
        if j in cleared:
            continue
        col = 0
        for skip in range(len(verts)):
            col ^= 1 << row_index[verts[:skip] + verts[skip + 1 :]]
        while col:
            low = col.bit_length() - 1
            other = pivot_col.get(low)
            if other is None:
                pivot_col[low] = col
                pivots[j] = low
                break
            col ^= other
    return pivots


def persistence(
    fc: FilteredComplex, include_zero_length: bool = False
) -> list[PersistenceDiagram]:
    """Persistence diagrams of a filtration, dimensions 0 .. max_dim - 1.

    One pass from the top block down (Chen & Kerber's twist): block k gives
    the finite pairs of H_{k-1}, and its pivot rows are the births of those
    pairs, so block k-1 skips their columns.  The k-simplices that are
    neither such a birth nor a pivot column of block k give death = +inf.
    Zero-length pairs (birth == death) are dropped unless
    `include_zero_length`.
    """
    groups = fc.by_dim()
    found = [[] for _ in range(fc.max_dim)]  # (birth, death) of H_0 .. H_{max_dim-1}
    killed = set()
    for k in range(fc.max_dim, -1, -1):
        pivots = {}
        if k:
            rows, cols = groups[k - 1], groups[k]
            row_index = {verts: i for i, (verts, _v) in enumerate(rows)}
            pivots = _reduce_block(cols, row_index, killed)
            found[k - 1] += [(rows[low][1], cols[j][1]) for j, low in pivots.items()]
        if k < fc.max_dim:
            found[k] += [
                (value, np.inf)
                for j, (_verts, value) in enumerate(groups[k])
                if j not in killed and j not in pivots
            ]
        killed = set(pivots.values())

    diagrams = []
    for k, pairs in enumerate(found):
        if not include_zero_length:
            pairs = [(b, d) for b, d in pairs if b != d]
        pairs.sort()
        diagrams.append(PersistenceDiagram(k, np.array(pairs, dtype=float).reshape(-1, 2)))
    return diagrams


def _gf2_rank(columns) -> int:
    """Rank of a GF(2) matrix given as bitset columns."""
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def betti_oracle(fc: FilteredComplex, r: float, k: int) -> int:
    """Brute-force Betti number of the sublevel complex at scale r.

    beta_k = #k-simplices - rank(boundary_k) - rank(boundary_{k+1}),
    all restricted to simplices with value <= r.  Intended for small
    complexes as an independent check of the reduction.
    """
    groups = fc.by_dim()
    present = [
        [(verts, v) for verts, v in groups[d] if v <= r]
        for d in range(fc.max_dim + 1)
    ]

    def boundary_columns(dim):
        if dim == 0 or dim > fc.max_dim:
            return []
        row_index = {verts: i for i, (verts, _v) in enumerate(present[dim - 1])}
        cols = []
        for verts, _v in present[dim]:
            col = 0
            for skip in range(len(verts)):
                face = verts[:skip] + verts[skip + 1 :]
                col ^= 1 << row_index[face]
            cols.append(col)
        return cols

    if k > fc.max_dim:
        return 0
    n_k = len(present[k])
    rank_dk = _gf2_rank(boundary_columns(k))
    rank_dk1 = _gf2_rank(boundary_columns(k + 1))
    return n_k - rank_dk - rank_dk1
