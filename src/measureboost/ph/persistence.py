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

    Returns (pairs, positive, birth_rows): pairs are (row_pos, col_pos),
    positive the column positions that reduced to zero, birth_rows the set
    of paired row positions.
    """
    pivot_col = {}
    pairs = []
    positive = []
    for j, (verts, _value) in enumerate(cols):
        if j in cleared:
            positive.append(j)
            continue
        col = 0
        k = len(verts)
        for skip in range(k):
            face = verts[:skip] + verts[skip + 1 :]
            col ^= 1 << row_index[face]
        while col:
            low = col.bit_length() - 1
            other = pivot_col.get(low)
            if other is None:
                pivot_col[low] = col
                pairs.append((low, j))
                break
            col ^= other
        else:
            positive.append(j)
    return pairs, positive, set(low for low, _ in pairs)


def persistence(
    fc: FilteredComplex, include_zero_length: bool = False
) -> list[PersistenceDiagram]:
    """Persistence diagrams of a filtration, dimensions 0 .. max_dim - 1.

    Unpaired positive simplices give death = +inf.  Zero-length pairs
    (birth == death) are dropped unless `include_zero_length`.
    """
    groups = fc.by_dim()
    max_dim = fc.max_dim
    # pairs_by_dim[k]: list of (birth_value, death_value) for H_k
    pairs_by_dim = {k: [] for k in range(max_dim)}
    positive_by_dim = {}
    birth_rows_by_dim = {}
    cleared = set()
    for k in range(max_dim, 0, -1):
        rows, cols = groups[k - 1], groups[k]
        row_index = {verts: i for i, (verts, _v) in enumerate(rows)}
        pairs, positive, birth_rows = _reduce_block(cols, row_index, cleared)
        positive_by_dim[k] = set(positive)
        birth_rows_by_dim[k] = birth_rows
        for low, j in pairs:
            pairs_by_dim[k - 1].append((rows[low][1], cols[j][1]))
        cleared = birth_rows
    positive_by_dim[0] = set(range(len(groups[0])))

    diagrams = []
    for k in range(max_dim):
        finite = pairs_by_dim[k]
        killed = birth_rows_by_dim.get(k + 1, set())
        essential = [
            (groups[k][j][1], np.inf)
            for j in sorted(positive_by_dim.get(k, set()))
            if j not in killed
        ]
        all_pairs = finite + essential
        if not include_zero_length:
            all_pairs = [(b, d) for b, d in all_pairs if b != d]
        all_pairs.sort()
        diagrams.append(
            PersistenceDiagram(k, np.array(all_pairs, dtype=float).reshape(-1, 2))
        )
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
