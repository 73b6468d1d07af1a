"""Construction of Cech and Rips filtrations from Euclidean point clouds.

Conventions, fixed once for the whole package:
  * Cech filtration value of a simplex = radius of the minimal enclosing ball
    of its vertices (equivalent to the closed-balls intersection test).
  * Rips filtration value = diameter / 2, so the two filtrations agree on
    vertices and edges.  Beware: much of the literature uses diameter.

The edges are all pairs whose value is <= max_value.  Their candidates are
the pairs a KD-tree finds within twice max_value (every pair at infinity),
or the Delaunay edges below, so a build holds no n x n distance matrix;
each candidate is valued exactly, one coordinate at a time.  One vectorized
loop builds every higher dimension from the one below, and a candidate is
kept iff all of its facets were kept and its value is <= max_value.  Rips
extends each kept simplex (f0, ..., fk-1) by the last vertex v of every
kept simplex (f1, ..., fk-1, v): on the sorted rows those form one run,
so the candidates are a join of the rows with themselves, which holds
every higher common neighbour, and no n x n edge mask is built.  The
candidates of every dimension, edges and join candidates included, are
counted against a budget before any candidate array is built.  Cech, on
2-D and 3-D clouds of more than max(d, max_dim) + 1 points with
max_dim >= 2, takes its edges and candidates from the faces of the
Delaunay triangulation instead: the Cech and Delaunay-Cech filtrations
have the same persistence (Bauer and Edelsbrunner, The Morse theory of
Cech and Delaunay complexes, 2017), with far fewer simplices.  It falls
back to the join on a cloud with a repeated point and when Qhull cannot
be trusted with the cloud: a closest pair below sqrt(eps) times the
bounding box diagonal, a Qhull error or a point left out (see
`_delaunay_cells`).  Smaller clouds keep every candidate: k+2 points get
their full complex, with the top simplex sorted last.  The same loop,
`_faces`, builds the Monte-Carlo limit's complexes, each k+2-point sample
one of its `cells`.  Rows are matched by int64 codes of their vertices,
so a build refuses n**max_dim >= 2**63: 2**21 points at max_dim 3.  A
triangle's Cech value is its circumradius, or half its longest edge when
it is obtuse; a tetrahedron's is its circumradius when its circumcenter
lies in it, and else its largest facet's value, bit for bit, so no
tetrahedron outlives a triangle by rounding alone.  Each dimension's kept
rows and values go into the `FilteredComplex` as arrays, sorted stably by
value: no Python object is made per simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["FilteredComplex", "cech_filtration", "rips_filtration"]

_JITTER_SEED = 715517
# most candidate simplices of one dimension a build may list: edges, then the
# join or Delaunay candidates of `_cofaces`, each counted before it is listed
_BUDGET = 5_000_000
_ROWS = 1 << 16  # tetrahedra whose circumballs are solved at a time


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """The simplices of dimensions 0 .. max_dim in filtration order: by value,
    ties in the rows' lexicographic order.  Dimension k is verts[k], an int
    array of increasing vertex rows of shape (n_k, k + 1), and values[k], a
    float array of shape (n_k,); a dimension the build never reaches is empty.
    """

    verts: tuple
    values: tuple

    @property
    def max_dim(self) -> int:
        return len(self.verts) - 1

    @property
    def simplices(self) -> tuple:
        """Every simplex as (verts: tuple[int, ...], value: float), sorted by
        (value, dimension, verts): built on each call, for oracles and tests."""
        values = np.concatenate(self.values)
        dims = np.repeat(np.arange(len(self.values)), [len(v) for v in self.values])
        pairs = list(zip((tuple(row) for verts in self.verts for row in verts.tolist()), values.tolist()))
        return tuple(pairs[i] for i in np.lexsort((dims, values)).tolist())  # stable: ties keep the rows' order


def _pair_values(points, pairs):
    """Half the distance of each pair of rows, summed one coordinate at a
    time in that order: every caller gets the same bits."""
    values = np.zeros(len(pairs))
    for x in points.T:
        diff = x[pairs[:, 0]] - x[pairs[:, 1]]
        values += np.square(diff, out=diff)
    np.sqrt(values, out=values)
    values /= 2.0
    return values


def _diagonal(points):
    """Length of the bounding box diagonal, 1.0 when every point is the same."""
    return float(np.linalg.norm(np.ptp(points, axis=0))) or 1.0


def _dedup_points(points: np.ndarray):
    """The points, with every later copy of a repeated point jittered
    deterministically so distances are nonzero (the same array when no point
    repeats).

    Repeats are equal rows (-0.0 == 0.0), neighbours in lexicographic order:
    the sort is stable, so each run of copies starts with the first copy.
    """
    order = np.lexsort(points.T[::-1])
    rows = points[order]
    later = order[1:][np.all(rows[1:] == rows[:-1], axis=1)]
    if not len(later):
        return points
    rng = np.random.default_rng(_JITTER_SEED)
    jitter = rng.standard_normal(points.shape) * (1e-12 * _diagonal(points))
    out = points.copy()
    out[later] += jitter[later]
    return out


def _circumradius3(p0, p1, p2):
    """Minimal enclosing ball radius for triples, vectorized over rows."""
    a2 = np.sum((p1 - p2) ** 2, axis=-1)
    b2 = np.sum((p0 - p2) ** 2, axis=-1)
    c2 = np.sum((p0 - p1) ** 2, axis=-1)
    e2 = np.stack([a2, b2, c2], axis=-1)
    longest = e2.max(axis=-1)
    obtuse = longest >= e2.sum(axis=-1) - longest
    area16 = np.maximum(
        2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2**2 - b2**2 - c2**2, 1e-300
    )
    circum = np.sqrt(a2 * b2 * c2 / area16)
    return np.where(obtuse, 0.5 * np.sqrt(longest), circum)


def _solve_stacked(gram, rhs):
    """The solution of each stacked system gram x = rhs; NaN where gram is
    singular."""
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the stack: halve it
        if len(gram) == 1:
            return np.full(rhs.shape, np.nan)
        half = len(gram) // 2
        return np.concatenate([_solve_stacked(gram[:half], rhs[:half]), _solve_stacked(gram[half:], rhs[half:])])


def _circumradius4(pts):
    """Circumradius of each tetrahedron of an (N, 4, d) stack whose
    circumcenter lies in the closed tetrahedron and whose vertices sit on
    that sphere within a relative 1e-9 (a flat one's solve may miss it), else 0.

    A tetrahedron's minimal ball is its circumball iff the circumcenter lies
    in it, and a facet's otherwise, so raised to the facet maximum this is the
    Cech value, with that facet's bits.  The Gram system of the edges from the
    first vertex solves for the center's other barycentric coordinates.
    """
    rel = pts - pts[:, :1]
    edges = rel[:, 1:]
    alpha = _solve_stacked(edges @ edges.transpose(0, 2, 1), 0.5 * np.einsum("nij,nij->ni", edges, edges))
    with np.errstate(invalid="ignore", over="ignore"):  # singular systems give NaN or inf, which fail both tests
        center = (alpha[:, None] @ edges)[:, 0]
        radius = np.sqrt((center[:, None] @ center[:, :, None])[:, 0, 0])
        dist = np.sqrt(np.sum((rel - center[:, None]) ** 2, axis=-1))
        inside = np.all(alpha >= 0, axis=1) & (alpha.sum(axis=1) <= 1)
        on_sphere = np.all(np.abs(dist - radius[:, None]) <= 1e-9 * radius[:, None], axis=1)
    return np.where(inside & on_sphere, radius, 0.0)


def _cech_value(points, simplices):
    """Minimal enclosing ball radius of each triangle row of vertex indices;
    of each tetrahedron row, `_circumradius4`, solved _ROWS tetrahedra at a
    time: a caller raises it to the facet maximum."""
    if simplices.shape[1] == 3:
        return _circumradius3(*points[simplices.T])
    starts = range(0, len(simplices), _ROWS)
    return np.concatenate([np.empty(0)] + [_circumradius4(points[simplices[i : i + _ROWS]]) for i in starts])


def _codes(simplices, n):
    """Integer codes of vertex rows that order like the rows' vertex tuples.

    In int64 whatever the rows' type (Qhull's cells are int32, whose codes
    of 3 vertices would wrap from n = 1291 on); exact while n**k < 2**63 for
    rows of k vertices, so `_cell_faces` sorts 4-vertex rows without codes
    from n = 55109 on.
    """
    code = simplices[:, 0].astype(np.int64)
    for col in simplices.T[1:]:
        code = code * n + col
    return code


def _cell_faces(cells, size, n):
    """The distinct `size`-vertex faces of the cells (rows of increasing
    vertex indices), as lexicographically sorted rows."""
    columns = list(itertools.combinations(range(cells.shape[1]), size))
    subsets = cells[:, columns].reshape(-1, size)
    if float(n) ** size >= 2.0**63:  # the codes would wrap: sort the rows themselves
        return np.unique(subsets, axis=0)
    _, first = np.unique(_codes(subsets, n), return_index=True)
    return subsets[first]


def _delaunay_cells(points):
    """The Delaunay cells of the points as rows of increasing vertex indices,
    or None when Qhull cannot be trusted with them.

    Qhull decides the cells on the lifted coordinates |p|^2, whose rounding
    error is about eps * diagonal^2 (of the bounding box): two points closer
    than sqrt(eps) times the diagonal are below that resolution.  It also
    fails on flat clouds and merges points closer than its precision, which
    then drop out of the triangulation.
    """
    from scipy.spatial import Delaunay, QhullError, cKDTree  # slow to import: only here

    own = np.arange(len(points))
    _, near = cKDTree(points).query(points, k=2)
    # a point is its own nearest neighbour unless a distance underflows to 0
    closest = np.column_stack([own, np.where(near[:, 0] == own, near[:, 1], near[:, 0])])
    if _pair_values(points, closest).min() < np.sqrt(np.finfo(float).eps) * _diagonal(points) / 2:
        return None
    try:
        tri = Delaunay(points)
    except QhullError:
        return None
    if len(tri.coplanar):
        return None
    return np.sort(tri.simplices, axis=1)


def _check_budget(count, dim):
    if count > _BUDGET:
        raise RuntimeError(
            f"{count} candidate {dim}-simplices exceed the enumeration budget of "
            f"{_BUDGET}; lower max_value or the point count"
        )


def _edges(points, max_value, cells):
    """The kept edges as lexicographically sorted rows i < j, and their values.

    The candidates are the edges of `cells` (the Delaunay cells, or one cell
    per Monte-Carlo sample), or, when cells is None, every pair within twice
    max_value (widened by a relative 1e-9 against the KD-tree's rounding),
    counted against the budget before any is listed.
    """
    n = len(points)
    radius = max(2.0 * max_value * (1 + 1e-9), 0.0)
    if cells is not None:
        pairs = _cell_faces(cells, 2, n)
    elif radius == np.inf:
        _check_budget(n * (n - 1) // 2, 1)
        pairs = np.column_stack(np.triu_indices(n, 1))
    else:
        from scipy.spatial import cKDTree  # slow to import: only here

        tree = cKDTree(points)
        _check_budget((int(tree.count_neighbors(tree, radius)) - n) // 2, 1)  # ordered pairs, self included
        pairs = tree.query_pairs(radius, output_type="ndarray")
        pairs = pairs[np.argsort(_codes(pairs, n))]
    values = _pair_values(points, pairs)
    keep = values <= max_value
    return pairs[keep], values[keep]


def _cofaces(points, faces, values, max_value, value_fn, cells):
    """Kept simplices one dimension above `faces`, with their values.

    faces holds the kept simplices of one dimension as lexicographically
    sorted rows of increasing vertex indices, values their filtration values.
    A candidate is a face and a new vertex v above its last: the faces one
    vertex larger of the `cells` (the Delaunay cells, or one cell per
    Monte-Carlo sample) or, when cells is None, the face
    (f0, ..., fk-1) with the last vertex v of every kept face (f1, ..., fk-1,
    v), a join of the rows with themselves that lists every higher common
    neighbour.  A candidate is kept iff all of its facets were kept and its
    value, raised to the facet maximum, is <= max_value.  The rows returned
    are again sorted, so they can serve as `faces` one dimension up.
    """
    n, k = len(points), faces.shape[1]
    codes = _codes(faces, n)

    def lookup(facets):
        """Row of each facet in faces, and whether it is there."""
        code = _codes(facets, n)
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        return at, codes[at] == code

    if cells is None:
        # the faces (f1, ..., fk-1, v) of a face are one run of the sorted rows
        heads, tails = _codes(faces[:, :-1], n), _codes(faces[:, 1:], n)
        lo = np.searchsorted(heads, tails)
        runs = np.searchsorted(heads, tails, side="right") - lo
        _check_budget(int(runs.sum()), k)
        rows = np.repeat(np.arange(len(faces)), runs)
        starts = np.cumsum(runs) - runs  # where each face's candidates begin in rows
        vertex = faces[np.repeat(lo - starts, runs) + np.arange(len(rows)), -1]
    else:
        cand = _cell_faces(cells, k + 1, n)
        _check_budget(len(cand), k)
        rows, found = lookup(cand[:, :k])
        rows, vertex = rows[found], cand[found, k]
    cand = np.concatenate([faces[rows], vertex[:, None]], axis=1)
    vals, keep = values[rows], np.ones(len(cand), dtype=bool)
    # the facets through the new vertex; the one without it is the face
    for columns in list(itertools.combinations(range(k + 1), k))[1:]:
        at, found = lookup(cand[:, columns])
        keep &= found
        vals = np.maximum(vals, values[at])
    cand, vals = cand[keep], vals[keep]
    if value_fn is not None:
        vals = np.maximum(value_fn(points, cand), vals)
    keep = vals <= max_value
    return cand[keep], vals[keep]


def _faces(points, top, max_value, value_fn, cells):
    """The kept simplices of dimensions 1 .. top as sorted rows and values,
    one dimension at a time, up to the first empty one."""
    faces, values = _edges(points, max_value, cells)
    yield faces, values
    for _ in range(2, top + 1):
        if not len(faces):
            return
        faces, values = _cofaces(points, faces, values, max_value, value_fn, cells)
        yield faces, values


def _build_filtration(points, max_dim, max_value, value_fn):
    if not 0 <= max_dim <= 3:
        raise ValueError(f"max_dim must be between 0 and 3, got {max_dim}")
    if not max_value >= 0:  # NaN fails every value test and keeps only the vertices, as a negative bound does
        raise ValueError(f"max_value must be a number >= 0, got {max_value}")
    points = _as_cloud(points)
    n, d = points.shape
    if float(n) ** max_dim >= 2.0**63:  # `_codes` of the max_dim-vertex rows would wrap
        raise ValueError(f"{n} points are too many at max_dim {max_dim}: need n**{max_dim} < 2**63")
    verts = [np.arange(n)[:, None]] + [np.empty((0, k + 1), dtype=np.intp) for k in range(1, max_dim + 1)]
    values = [np.zeros(n)] + [np.empty(0)] * max_dim
    if n >= 2 and max_dim >= 1:
        deduped = _dedup_points(points)
        cells, top = None, max_dim
        # Cech and Delaunay-Cech filtrations have the same persistence.  Clouds
        # with a repeated point keep every candidate: when every point is a copy
        # of one, the jittered copies span only 1e-12 and their radii are
        # rounding noise
        if value_fn is not None and deduped is points and 2 <= d <= 3 and max_dim >= 2 and n > max(d, max_dim) + 1:
            cells = _delaunay_cells(points)
        points = deduped
        if cells is not None:
            top = min(max_dim, d)  # no Delaunay faces above the ambient dimension
        for dim, (faces, vals) in enumerate(_faces(points, top, max_value, value_fn, cells), 1):
            # the rows are sorted, so a stable sort by value breaks ties by the rows
            order = np.argsort(vals, kind="stable")
            verts[dim], values[dim] = faces[order], vals[order]
    return FilteredComplex(tuple(verts), tuple(values))


def _as_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or (len(pts) > 1 and not pts.shape[1]):
        raise ValueError("points must be a (n, d) array with d >= 1")
    if not np.all(np.isfinite(pts)):  # the KD-tree takes finite points only
        raise ValueError("points contain non-finite coordinates")
    return pts


def cech_filtration(points, max_dim: int, max_value: float) -> FilteredComplex:
    """Cech filtration: simplex value = minimal enclosing ball radius."""
    return _build_filtration(points, max_dim, max_value, _cech_value)


def rips_filtration(points, max_dim: int, max_value: float) -> FilteredComplex:
    """Rips filtration with value = diameter/2 (matches Cech on edges).

    A flag simplex's half-diameter is the maximum of its facets' values, so
    no value function is needed above the edges.
    """
    return _build_filtration(points, max_dim, max_value, None)
