"""Persistence pairs: a union-find for H0, coboundary reduction above it.

Block k has a row per (k-1)-simplex and a column per k-simplex, both in
filtration order, and the blocks pair bottom-up.  Block 1 (edges against
vertices) pairs by union-find (Edelsbrunner & Harer, Computational
Topology, VII.1): an edge that joins two components kills the younger one's
oldest vertex (the elder rule).  That is the pivot the column reduction of
the vertex-edge matrix finds, as the pairing does not depend on how the
matrix is reduced.  Blocks k >= 2 reduce the coboundary instead (Bauer,
Ripser, J. Appl. Comput. Topol. 2021): one column per row, youngest row
first, whose entries are the row's cofaces and whose pivot is its oldest
coface.  The pairs of persistent cohomology are those of homology (de
Silva, Morozov & Vejdemo-Johansson, Dualities in persistent (co)homology,
Inverse Problems 2011), so a pivot (row r, column c) is the homology pair
(birth r, death c).  Two shortcuts keep most rows out of the loop:

  * clearing: a row that block k-1 paired as a death has a coboundary
    that reduces to zero, so it is skipped;
  * apparent pairs: a row whose oldest coface has it as its youngest facet
    is paired with that coface unreduced, since no younger row's column
    can hold that coface.  numpy finds them all at once.

An apparent pair (r, c) is a pair of every reduction, of the boundary
as of the coboundary: no column older than c holds the row r, so c's
boundary column keeps r as its pivot, and no row younger than r holds
the coface c.  The other rows' columns are Python integers used as
bitsets over the columns, the oldest at the highest bit: XOR is a single
C-level operation and the pivot is `bit_length() - 1`.  An apparent row
gets a bitset only once a reduction reads it, and only the non-zero
reduced columns are kept, so a row whose class is essential leaves
nothing behind.  A column's facets are found among the rows by one sort
of the rows' integer codes (`_codes`) and a binary search per dropped
vertex.
"""

from __future__ import annotations

import numpy as np

from .complexes import FilteredComplex, _codes
from .diagrams import PersistenceDiagram

__all__ = ["persistence", "betti_oracle"]


def _union_find_block(rows, cols):
    """Pair block 1, edges against vertices, by the elder rule.

    Each component's root is its oldest vertex, the least row position.  The
    edges join components in filtration order; one that joins two roots is a
    death, its birth the younger root, which then hangs under the older.
    Returns (birth rows, death columns) as position arrays, in column order.
    """
    position = np.empty(int(rows.max()) + 1, dtype=np.intp)
    position[rows[:, 0]] = np.arange(len(rows))
    ends = position[cols]
    root, births, deaths = list(range(len(rows))), [], []
    for j, (a, b) in enumerate(zip(ends[:, 0].tolist(), ends[:, 1].tolist())):
        while root[a] != a:  # path halving
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            if a > b:
                a, b = b, a
            root[b] = a
            births.append(b)
            deaths.append(j)
    return np.array(births, dtype=np.intp), np.array(deaths, dtype=np.intp)


def _coboundary_block(rows, cols, cleared):
    """Pair block k >= 2 by reducing its coboundary, youngest row first.

    rows, cols: vertex rows of the (k-1)- and k-simplices in filtration order.
    cleared: boolean mask of the rows that block k-1 paired as deaths.

    Returns (birth rows, death columns) as position arrays: the apparent
    pairs, then the reduced ones.
    """
    n, m, width = int(rows.max()) + 1, len(cols), cols.shape[1]  # every vertex of a column is in a facet
    order = np.argsort(_codes(rows, n))
    codes = _codes(rows[order], n)
    dropped = (np.delete(cols, s, axis=1) for s in range(width))  # facets[j, s]: row of column j without vertex s
    facets = np.column_stack([order[np.searchsorted(codes, _codes(f, n))] for f in dropped])
    youngest = facets.max(axis=1)
    # each row's cofaces, oldest first, as bit positions m - 1 - column
    bits = (m - 1) - np.argsort(facets.ravel(), kind="stable") // width
    ends = np.cumsum(np.bincount(facets.ravel(), minlength=len(rows)))
    starts = ends - np.diff(ends, prepend=0)
    del facets
    live = np.flatnonzero(starts < ends)  # the rows with a coface
    top = bits[starts[live]]  # their oldest coface, the pivot of their unreduced column
    apparent = youngest[(m - 1) - top] == live
    apparent_at = np.full(m, -1, dtype=np.intp)  # pivot bit -> its apparent row
    apparent_at[top[apparent]] = live[apparent]

    def column(r):
        return sum(1 << b for b in bits[starts[r] : ends[r]].tolist())

    reduced, births, deaths = {}, [], []  # reduced: pivot bit -> kept column
    for r in live[~apparent & ~cleared[live]][::-1].tolist():
        col = column(r)
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                a = int(apparent_at[low])
                if a < 0:
                    reduced[low] = col
                    births.append(r)
                    deaths.append(m - 1 - low)
                    break
                other = reduced[low] = column(a)  # unreduced: no younger row holds its pivot
            col ^= other
    births = np.concatenate([live[apparent], np.array(births, dtype=np.intp)])
    return births, np.concatenate([(m - 1) - top[apparent], np.array(deaths, dtype=np.intp)])


def persistence(
    fc: FilteredComplex, include_zero_length: bool = False
) -> list[PersistenceDiagram]:
    """Persistence diagrams of a filtration, dimensions 0 .. max_dim - 1.

    One pass from the bottom block up.  Block k + 1 gives the finite pairs of
    H_k: its births are k-simplices, its deaths (k+1)-simplices, and those
    deaths are the rows block k + 2 clears.  The k-simplices that are
    neither a death of block k nor a birth of block k + 1 give death = +inf.
    Block 1 pairs by union-find (the elder rule), the blocks above by
    coboundary reduction with clearing and apparent pairs.  A filtration
    has one pairing: the elder rule's pairs are the pivots of the
    vertex-edge block, and the coboundary's pivots are those of the
    boundary, so every block gives the pairs of one reduction of the whole
    boundary matrix.  Zero-length pairs (birth == death) are dropped unless
    `include_zero_length`.
    """
    diagrams, cleared = [], np.zeros(len(fc.values[0]), dtype=bool)
    for k in range(fc.max_dim):
        values, above = fc.values[k], fc.values[k + 1]
        births = deaths = np.empty(0, dtype=np.intp)
        if len(above):
            rows, cols = fc.verts[k], fc.verts[k + 1]
            births, deaths = _coboundary_block(rows, cols, cleared) if k else _union_find_block(rows, cols)
        essential = ~cleared
        essential[births] = False
        b = np.concatenate([values[births], values[essential]])
        d = np.concatenate([above[deaths], np.full(np.count_nonzero(essential), np.inf)])
        if not include_zero_length:
            b, d = b[b != d], d[b != d]
        order = np.lexsort((d, b))  # stable, like a sort of (birth, death) tuples
        diagrams.append(PersistenceDiagram(k, np.column_stack([b[order], d[order]])))
        cleared = np.zeros(len(above), dtype=bool)
        cleared[deaths] = True
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
    complexes as an independent check of the reduction: it reads the
    `simplices` view and finds each facet by its vertex tuple.
    """
    if k > fc.max_dim:
        return 0
    present = [[] for _ in range(fc.max_dim + 2)]  # no simplex above max_dim
    for verts, v in fc.simplices:
        if v <= r:
            present[len(verts) - 1].append(verts)

    def boundary_rank(dim):
        position = {verts: i for i, verts in enumerate(present[dim - 1])}
        columns = [sum(1 << position[verts[:s] + verts[s + 1 :]] for s in range(dim + 1)) for verts in present[dim]]
        return _gf2_rank(columns)

    return len(present[k]) - (boundary_rank(k) if k else 0) - boundary_rank(k + 1)
