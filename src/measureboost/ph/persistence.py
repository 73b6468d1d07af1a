"""Persistence pairs: a union-find for H0, column reduction above it.

Block k has a column per k-simplex and a row per (k-1)-simplex, both in
filtration order.  Block 1 (edges against vertices) pairs by union-find
(Edelsbrunner & Harer, Computational Topology, VII.1): an edge that joins
two components kills the younger one's oldest vertex (the elder rule).
That is the pivot the column reduction of the vertex-edge matrix finds, as
the pairing does not depend on how the matrix is reduced, so the pairs are
the same.  Blocks k >= 2 reduce over GF(2): a column's facets are found
among the rows by one sort of the rows' integer codes (`_codes`) and a
binary search per dropped vertex, and columns are Python integers used as
bitsets over the rows: XOR is a single C-level operation and the pivot is
`bit_length() - 1`.  The blocks pair independently, top dimension first,
so the clearing shortcut (skip columns known to be births) applies.
"""

from __future__ import annotations

import numpy as np

from .complexes import _ROWS, FilteredComplex, _codes
from .diagrams import PersistenceDiagram

__all__ = ["persistence", "betti_oracle"]


def _union_find_block(rows, cols, cleared):
    """Pair block 1, edges against vertices, as `_reduce_block` would.

    Each component's root is its oldest vertex, the least row position.  The
    edges join components in filtration order; one that joins two roots is a
    pivot column, its pivot row the younger root, which then hangs under the
    older.  The cleared edges are skipped: each closes a cycle.
    """
    position = np.empty(int(rows.max()) + 1, dtype=np.intp)
    position[rows[:, 0]] = np.arange(len(rows))
    live = np.delete(np.arange(len(cols)), list(cleared))
    ends = position[cols[live]]
    root, pivots = list(range(len(rows))), {}
    for j, a, b in zip(live.tolist(), ends[:, 0].tolist(), ends[:, 1].tolist()):
        while root[a] != a:  # path halving
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            if a > b:
                a, b = b, a
            root[b] = a
            pivots[j] = b
    return pivots


def _reduce_block(rows, cols, cleared):
    """Reduce one boundary block.

    rows, cols: vertex rows of the (k-1)- and k-simplices in filtration order.
    cleared: column positions known to be births (skipped).

    Returns {column position: pivot row position} for the columns that do
    not reduce to zero, in column order; each is a finite pair.
    """
    n = int(rows.max()) + 1  # every vertex of a column is in one of its facets
    order = np.argsort(_codes(rows, n))
    codes = _codes(rows[order], n)
    live = np.delete(np.arange(len(cols)), list(cleared))
    pivot_col, pivots = {}, {}
    for start in range(0, len(live), _ROWS):  # as lists, a whole block's facets would outweigh the complex
        js = live[start : start + _ROWS]
        dropped = (np.delete(cols[js], s, axis=1) for s in range(cols.shape[1]))  # facets[i, s]: row of js[i] without its vertex s
        facets = np.column_stack([order[np.searchsorted(codes, _codes(f, n))] for f in dropped])
        for j, at in zip(js.tolist(), facets.tolist()):
            col = 0
            for row in at:
                col ^= 1 << row
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
    Block 1 pairs by union-find (the elder rule), the blocks above by column
    reduction.  A block's pivots are the same for every reduction of it, and
    the elder rule's pairs are the pivots of the vertex-edge block, so both
    give the pairs of one reduction of the whole boundary matrix.
    Zero-length pairs (birth == death) are dropped unless
    `include_zero_length`.
    """
    diagrams, killed = [], set()
    for k in range(fc.max_dim, -1, -1):
        pivots, values = {}, fc.values[k]
        if k and len(values):
            pivots = (_reduce_block if k > 1 else _union_find_block)(fc.verts[k - 1], fc.verts[k], killed)
        if k < fc.max_dim:  # finite pairs from block k + 1, then the essential classes
            essential = np.ones(len(values), dtype=bool)
            essential[list(killed)] = essential[list(pivots)] = False
            b = np.concatenate([births, values[essential]])
            d = np.concatenate([deaths, np.full(np.count_nonzero(essential), np.inf)])
            if not include_zero_length:
                b, d = b[b != d], d[b != d]
            order = np.lexsort((d, b))  # stable, like a sort of (birth, death) tuples
            diagrams.insert(0, PersistenceDiagram(k, np.column_stack([b[order], d[order]])))
        if k:
            births, deaths = fc.values[k - 1][list(pivots.values())], values[list(pivots)]
        killed = set(pivots.values())
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
