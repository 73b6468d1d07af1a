import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from measureboost import graphs
from measureboost.datagen import sample_sphere, sample_torus
from measureboost.limits import r_n_schedule
from measureboost.measures import Measure
from measureboost.ph import cech_filtration, persistence, rips_filtration
from measureboost.ph.complexes import (
    _cech_value,
    _cell_faces,
    _circumradius3,
    _dedup_points,
    _delaunay_cells,
    _edges,
)
from measureboost.ph.diagrams import (
    PersistenceDiagram,
    diagram_to_measure,
    load_diagrams_jsonl,
    save_diagrams_jsonl,
)
from measureboost.ph.persistence import _coboundary_block, _union_find_block, betti_oracle

from filtered import complex_of, half_distances, reduce_block
from membership import persistent_betti


def equilateral():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])


def test_equilateral_golden_values():
    fc = cech_filtration(equilateral(), max_dim=2, max_value=np.inf)
    dgms = persistence(fc)
    d1 = next(d for d in dgms if d.dim == 1)
    assert d1.pairs.shape == (1, 2)
    birth, death = d1.pairs[0]
    assert birth == pytest.approx(0.5, abs=1e-9)
    assert death == pytest.approx(1 / np.sqrt(3), abs=1e-9)


def test_two_points_h0():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    fc = cech_filtration(pts, max_dim=1, max_value=np.inf)
    d0 = next(d for d in persistence(fc) if d.dim == 0)
    finite = d0.pairs[np.isfinite(d0.pairs[:, 1])]
    essential = d0.pairs[~np.isfinite(d0.pairs[:, 1])]
    assert len(essential) == 1
    assert finite[0][1] == pytest.approx(1.0)  # merge at half the distance


def check_monotone(fc):
    """Assert every face has value <= its coface (raises on violation)."""
    values = {verts: value for verts, value in fc.simplices}
    for verts, value in fc.simplices:
        for face in itertools.combinations(verts, len(verts) - 1):
            if face and values[face] > value + 1e-12:
                raise AssertionError(f"face {face} ({values[face]}) above simplex {verts} ({value})")


def test_filtration_monotone_and_sorted():
    rng = np.random.default_rng(0)
    fc = cech_filtration(rng.normal(size=(10, 3)), max_dim=3, max_value=1.5)
    check_monotone(fc)  # raises on a face/value violation
    vals = [v for _, v in fc.simplices]
    assert vals == sorted(vals)


def test_rips_matches_cech_on_edges():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    c = cech_filtration(pts, max_dim=1, max_value=np.inf)
    r = rips_filtration(pts, max_dim=1, max_value=np.inf)
    ce = {v: val for v, val in c.simplices if len(v) == 2}
    re = {v: val for v, val in r.simplices if len(v) == 2}
    assert ce.keys() == re.keys()
    for k in ce:
        assert ce[k] == pytest.approx(re[k], abs=1e-12)


def test_rips_triangle_value_is_half_diameter():
    pts = equilateral()
    r = rips_filtration(pts, max_dim=2, max_value=np.inf)
    tri = next(s for s in r.simplices if len(s[0]) == 3)
    assert tri[1] == pytest.approx(0.5)


def _loop_miniball(pts):
    """The smallest boundary-subset ball that encloses every point within a
    relative 1e-9, the first in combinations order on ties, one subset at a
    time, each solved relative to its first point: (radius, center), or None
    when no subset ball encloses."""
    n, d = pts.shape
    best = None
    for size in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            rel = pts - pts[subset[0]]
            center = np.zeros(d)
            if size > 1:
                edges = rel[list(subset[1:])]
                try:
                    alpha = np.linalg.solve(edges @ edges.T, 0.5 * np.einsum("ij,ij->i", edges, edges))
                except np.linalg.LinAlgError:
                    continue
                center = alpha @ edges
            radius = float(np.linalg.norm(center))
            dmax = float(np.sqrt(np.max(np.sum((rel - center) ** 2, axis=1))))
            if dmax <= radius * (1 + 1e-9) and (best is None or radius < best[0]):
                best = (radius, pts[subset[0]] + center)
    return best


@st.composite
def four_point_sets(draw):
    """1-4 sets of 4 points in 1 to 4 dimensions: uniform, with repeats,
    collinear, cocircular or cospherical (often turned out of the coordinate
    planes), or 1e-12 clusters far from the origin."""
    d = draw(st.integers(1, 4))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layout = draw(st.sampled_from(["uniform", "repeated", "line", "sphere", "cluster"]))
        if layout == "line":
            pts = rng.integers(-4, 5, size=(4, 1)) / 2 * rng.normal(size=d) + rng.normal(size=d)
        elif layout == "sphere" and d > 1:  # angles on a pi/4 grid: many points share circles
            a, b = rng.integers(0, 8, size=(2, 4)) * np.pi / 4
            pts = np.zeros((4, d))
            pts[:, :2] = np.column_stack([np.cos(a), np.sin(a)])
            if d > 2 and draw(st.booleans()):
                pts[:, :2] *= np.sin(b)[:, None]
                pts[:, 2] = np.cos(b)
            if draw(st.booleans()):
                pts = pts @ np.linalg.qr(rng.normal(size=(d, d)))[0] + rng.normal(size=d)
        elif layout == "cluster":
            far = rng.normal(size=d)
            pts = far / np.linalg.norm(far) * 10.0 ** rng.integers(0, 4) + rng.normal(scale=1e-12, size=(4, d))
        else:
            pts = rng.uniform(-1, 1, size=(4, d))
        if layout == "repeated" or draw(st.booleans()):
            pts[rng.integers(1, 4, size=2)] = pts[0]
        sets.append(pts)
    return np.array(sets)


def _tetrahedron_values(stack):
    """Each 4-point set's value as the builder values a tetrahedron, and its
    largest facet value: the circumradius rule raised to its facets' values,
    each a triangle's raised to its edges'."""
    half = half_distances(stack)
    facets = np.max([
        np.maximum(_circumradius3(*stack[:, list(tri)].transpose(1, 0, 2)), half[:, tri, :][:, :, tri].max(axis=(1, 2)))
        for tri in itertools.combinations(range(4), 3)
    ], axis=0)
    values = _cech_value(stack.reshape(-1, stack.shape[2]), np.arange(len(stack) * 4).reshape(-1, 4))
    return np.maximum(values, facets), facets


@given(four_point_sets())
@example(np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]] * 4]))  # a singular row among others
@example(np.array([[  # a cluster whose circumcenter lies inside: its value is the circumradius, exactly
    [531.5650773736287, -843.8442622382438, -73.24909285695394],
    [531.5650773736294, -843.8442622382422, -73.24909285695328],
    [531.5650773736269, -843.8442622382437, -73.24909285695394],
    [531.565077373627, -843.8442622382416, -73.24909285695239],
]]))
@settings(max_examples=500, deadline=None)
def test_batched_miniball_matches_subset_enumeration(stack):
    # a tetrahedron takes its minimal ball's radius, and a facet's value bit
    # for bit where that facet's ball holds the fourth vertex
    got, facets = _tetrahedron_values(stack)
    for pts, value, facet in zip(stack, got.tolist(), facets.tolist()):
        # the oracle works relative to the first point: on a 1e-12 cluster at
        # distance 1e3, an absolute center rounds by about 7% of the radius
        pts = pts - pts[0]
        radius, _ = _loop_miniball(pts)
        assert abs(value - radius) <= 1e-9 * radius
        for tri in itertools.combinations(range(4), 3):
            r, center = _loop_miniball(pts[list(tri)])
            (other,) = set(range(4)) - set(tri)
            if np.linalg.norm(pts[other] - center) <= r * (1 - 1e-9):  # inside, not within rounding of the sphere
                assert value == facet


def test_miniball_tiny_cluster_far_from_origin():
    # a 1e-12 cluster at distance 1 has the values of the same cluster moved
    # to the origin and scaled up: the enclosure and equidistance tests are
    # relative only
    p = np.array([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4), 0.0])
    pts = p + np.random.default_rng(0).normal(scale=1e-12, size=(5, 3))
    stack = np.array([pts[list(subset)] for subset in itertools.combinations(range(5), 4)])
    got, _ = _tetrahedron_values(stack)
    scaled, _ = _tetrahedron_values((stack - p) * 1e12)
    np.testing.assert_allclose(got, scaled / 1e12, rtol=1e-9, atol=0)
    for q, value in zip(stack, got.tolist()):
        radius, _ = _loop_miniball(q)
        assert abs(value - radius) <= 1e-9 * radius


def test_h2_keeps_no_pair_that_only_rounding_made():
    # a tetrahedron whose minimal ball is a facet's takes that facet's value,
    # so no H2 pair is born and killed by one ball: a radius solved apart
    # from the facet's rounds differently, and left 223 pairs on this torus,
    # 144 of them with d - b <= 1e-9, and 118 on the sphere, one void
    torus = persistence(cech_filtration(sample_torus(150, 4.0, 2.0, 0), max_dim=3, max_value=3.0))[2]
    assert torus.dim == 2 and len(torus) == 79
    assert np.all(torus.pairs[:, 1] - torus.pairs[:, 0] > 1e-9)
    sphere = persistence(cech_filtration(sample_sphere(300, 6.0, 0), max_dim=3, max_value=np.inf))[2]
    assert sphere.pairs.shape == (1, 2)  # the one void
    assert sphere.pairs[0, 0] == pytest.approx(2.0915644783105236, rel=1e-9)
    assert abs(sphere.pairs[0, 1] - 6.0) <= 1e-12


def test_max_value_truncates():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 2))
    fc = cech_filtration(pts, max_dim=2, max_value=0.4)
    assert all(v <= 0.4 for _, v in fc.simplices)


def dedup_by_unique(points):
    """Every row but the first occurrence of its value jittered, the repeats
    found with np.unique: the reference for the builder's duplicate search."""
    _, first = np.unique(points, axis=0, return_index=True)
    if len(first) == len(points):
        return points
    diag = float(np.linalg.norm(np.ptp(points, axis=0))) or 1.0
    jitter = np.random.default_rng(715517).standard_normal(points.shape) * (1e-12 * diag)
    later = np.setdiff1d(np.arange(len(points)), first)
    out = points.copy()
    out[later] += jitter[later]
    return out


def brute_force_filtration(points, max_dim, max_value, cech):
    """Every vertex subset up to max_dim + 1 vertices, valued as the builders value it.

    A subset enters iff all of its facets entered and its value is <= max_value;
    the value is the half distance for edges and, above, the Cech radius or
    nothing (Rips) raised to the facet maximum.
    """
    pts = dedup_by_unique(np.asarray(points, dtype=float))
    values = {(i,): 0.0 for i in range(len(pts))}
    for size in range(2, max_dim + 2):
        for verts in itertools.combinations(range(len(pts)), size):
            facets = list(itertools.combinations(verts, size - 1))
            if any(f not in values for f in facets):
                continue
            if size == 2:
                p, q = pts[list(verts)]
                value = math.sqrt(sum((a - b) * (a - b) for a, b in zip(p.tolist(), q.tolist()))) / 2.0
            else:
                value = max(values[f] for f in facets)
                if cech and size == 3:
                    # rows of one triple, as the builder passes them: 1-D sums may round differently
                    value = max(value, float(_circumradius3(*pts[list(verts), None])[0]))
                elif cech:
                    # the circumradius or 0, raised to the facet maximum as above
                    value = max(value, float(_cech_value(pts, np.array([verts]))[0]))
            if value <= max_value:
                values[verts] = value
    return tuple(sorted(values.items(), key=lambda s: (s[1], len(s[0]), s[0])))


@st.composite
def degenerate_clouds(draw, min_n=0, min_d=1):
    """Small clouds on half grids, lines and circles and of drawn floats,
    often with a repeated point."""
    n, d = draw(st.integers(min_n, 9)), draw(st.integers(min_d, 3))
    layout = draw(st.sampled_from(["grid", "line", "circle", "uniform"]))
    if layout == "grid":
        pts = np.array(draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))) / 2.0
    elif layout == "line":
        t = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) / 2.0
        pts = t[:, None] * np.array([1.0, 2.0, -1.0][:d])
    elif layout == "circle" and d > 1:
        angles = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))) * np.pi / 4
        pts = np.zeros((n, d))
        pts[:, 0], pts[:, 1] = np.cos(angles), np.sin(angles)
    else:
        floats = st.floats(0.0, 2.0, allow_nan=False)
        pts = np.array(draw(st.lists(floats, min_size=n * d, max_size=n * d)))
    pts = pts.reshape(n, d)
    if n > 1 and draw(st.booleans()):
        pts[-1] = pts[0]
    return pts


def in_general_position(pts):
    """Whether no d + 1 of the points lie within rounding of one hyperplane
    and no d + 2 within rounding of one sphere (so no point repeats): every
    orientation and in-sphere determinant, of the subset moved to its first
    point and scaled to unit size, is above 1e-9 times its rows' norms."""
    d = pts.shape[1]
    for size in (d + 1, d + 2):
        for subset in itertools.combinations(pts, size):
            rows = np.array(subset[1:]) - subset[0]
            scale = np.abs(rows).max()
            if scale == 0:
                return False
            rows /= scale
            if size == d + 2:
                rows = np.column_stack([rows, np.sum(rows**2, axis=1)])
            if abs(np.linalg.det(rows)) <= 1e-9 * np.prod(np.linalg.norm(rows, axis=1)):
                return False
    return True


def _sorted_pairs(dg, rtol, cut):
    """The essential pairs and the pairs longer than rtol times their death,
    sorted, with a death within rtol of the cut made essential."""
    b, d = dg.pairs.T
    p = dg.pairs[d - b > rtol * np.where(np.isinf(d), 0.0, d)].copy()
    p[p[:, 1] >= cut * (1 - rtol), 1] = np.inf
    return p[np.lexsort((p[:, 1], p[:, 0]))]


def assert_matches_enumeration(pts, max_dim, max_value, kind):
    n, d = pts.shape
    build = cech_filtration if kind == "cech" else rips_filtration
    fc = build(pts, max_dim=max_dim, max_value=max_value)
    want = brute_force_filtration(pts, max_dim, max_value, kind == "cech")
    delaunay = (
        kind == "cech"
        and 2 <= d <= 3
        and max_dim >= 2
        and n > max(d, max_dim) + 1
        and len(np.unique(pts, axis=0)) == n
        and _delaunay_cells(pts) is not None
    )
    if not delaunay:
        assert fc.simplices == want  # every candidate is kept
        return
    # Delaunay-Cech: fewer simplices, the same persistence
    got = persistence(fc)
    want = persistence(complex_of(want, max_dim))
    assert [dg.dim for dg in got] == [dg.dim for dg in want]
    # Where d + 2 points share a sphere, the Delaunay cells are not unique and
    # another simplex on that sphere may kill a class: on a regular octagon a
    # different triangle on the shared circle kills the H1 class, and its
    # radius rounds differently (1.0 vs 0.9999999999999999).  So clouds with
    # points on or within rounding of a common sphere or hyperplane (half
    # grids, circles, repeated points) compare within a relative 1e-12, after
    # dropping the pairs shorter than that, and every other cloud exactly.
    # The same rounding decides the cut: a simplex valued within rounding of
    # max_value may fall on either side of it, so a death within rtol of
    # max_value counts as the cut, an essential class.
    rtol = 0.0 if in_general_position(pts) else 1e-12
    for a, b in zip(got, want):
        np.testing.assert_allclose(
            _sorted_pairs(a, rtol, max_value), _sorted_pairs(b, rtol, max_value), rtol=rtol, atol=0
        )


@given(
    degenerate_clouds(),
    st.integers(0, 3),
    st.sampled_from([0.3, 0.6, 1.0, np.inf]),
    st.sampled_from(["cech", "rips"]),
)
# every 4-subset of 7 points is a candidate of the join
@example(np.column_stack([np.arange(7.0), np.arange(7.0) ** 2 / 6]), 3, np.inf, "rips")
# a repeated point makes Cech fall back to the join, whose candidate (0, 1, 2) lacks the edge 02;
# Rips keeps such a candidate if the facet test is left out, Cech drops it by its radius
@example(np.array([[0, 0], [0.5, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0, 0.5], [0, 0]]), 3, 0.3, "cech")
@example(np.array([[0, 0], [0.5, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0, 0.5], [0, 0]]), 3, 0.3, "rips")
@settings(max_examples=300, deadline=None)
def test_builders_match_all_subsets_enumeration(pts, max_dim, max_value, kind):
    assert_matches_enumeration(pts, max_dim, max_value, kind)


# five points of the unit circle: the Delaunay cell holding the center rounds its circumradius
# to 1.0000000000000002 and is cut, while the full complex kills the H1 class at exactly 1.0
# with a right-angled triangle
_FIVE_ANGLES = np.pi * np.array([0, 0.5, 1.5, 0.25, 1])


@given(degenerate_clouds(min_n=5, min_d=2), st.integers(2, 3), st.sampled_from([0.3, 0.6, 1.0, np.inf]))
@example(np.tile([np.cos(3 * np.pi / 4), np.sin(3 * np.pi / 4), 0.0], (5, 1)), 3, 0.3)  # copies of one point
@example(np.column_stack([np.cos(_FIVE_ANGLES), np.sin(_FIVE_ANGLES)]), 2, 1.0)
@settings(max_examples=300, deadline=None)
def test_delaunay_cech_matches_all_subsets_enumeration(pts, max_dim, max_value):
    # the inputs of the Delaunay path, which the test above draws rarely
    assert_matches_enumeration(pts, max_dim, max_value, "cech")


@given(degenerate_clouds(), st.booleans())
@example(np.array([[0.0, 1.0], [1e-200, 1.0]]), False)  # distance underflows to 0
@settings(max_examples=200, deadline=None)
def test_duplicate_search_matches_np_unique(pts, flipped_copy):
    if flipped_copy and len(pts):  # the first row with its zeros negated: -0.0 == 0.0
        pts = np.vstack([pts, np.where(pts[0] == 0, -pts[0], pts[0])])
    got = _dedup_points(pts)
    want = dedup_by_unique(pts)
    assert np.array_equal(got, want)
    assert (got is pts) == (want is pts)  # the same array when no point repeats


@given(
    degenerate_clouds(min_n=2),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]),
    st.sampled_from([1.0, 3.0, 1e-160, 1e150]),
)
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]]), 0.0, 1.0)  # -0.0 copies
# spacing 2 * max_value: values on the boundary; 60 points span several KD-tree leaves
@example(np.mgrid[0:10, 0:6].reshape(2, -1).T * 0.5, 0.25, 1.0)
@settings(max_examples=300, deadline=None)
def test_pair_search_matches_the_distance_matrix(pts, max_value, scale):
    # the KD-tree pair search against every entry of the dense half-distance matrix
    pts = _dedup_points(pts * scale)
    max_value *= scale
    edges, values = _edges(pts, max_value, None)
    half = half_distances(pts)
    i, j = np.nonzero(np.triu(half <= max_value, 1))
    assert np.array_equal(edges, np.column_stack([i, j]))
    assert np.array_equal(values, half[i, j])


@pytest.mark.parametrize("n, max_value, bound", [(6000, 0.002, 8e6), (20_000, 0.005, 100e6)])
def test_rips_build_holds_no_edge_mask(n, max_value, bound):
    # the candidates come from a join of the sorted edge rows: an n x n edge
    # mask alone would take 36 MB at 6000 points and 400 MB at 20 000
    pts = np.random.default_rng(0).uniform(0, 1, (n, 2))
    rips_filtration(pts[:10], 2, max_value)  # imports scipy outside the trace
    tracemalloc.start()
    try:
        rips_filtration(pts, 2, max_value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_persistence_keeps_no_bitset_for_apparent_pairs():
    # 20 000 uniform points at 0.005: most triangle-block pairs are apparent,
    # and a Python-int bitset kept for every pivot column peaked at 210 MB
    pts = np.random.default_rng(0).uniform(0, 1, (20_000, 2))
    fc = rips_filtration(pts, 2, 0.005)
    tracemalloc.start()
    try:
        persistence(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_kept_simplices_are_held_in_arrays():
    # 60 points at infinity keep all 523,685 simplices up to dimension 3: one
    # Python tuple per simplex would take the build's peak near 150 MB
    pts = np.random.default_rng(0).uniform(0, 1, (60, 2))
    import scipy.spatial  # noqa: F401  the builders import it lazily: keep it out of the peak

    rips_filtration(pts, 3, np.inf)
    tracemalloc.start()
    try:
        fc = rips_filtration(pts, 3, np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, fc.values)) == 523_685
    assert peak < 100e6


def _line(n):
    return np.column_stack([np.arange(float(n)), np.zeros(n)])


_CLOUD = np.random.default_rng(4).uniform(0, 1, (12, 3))
_BOTH = (cech_filtration, rips_filtration)


@pytest.mark.parametrize(
    "build, pts, max_dim, max_value, empty_from",
    [
        *[(b, np.empty((0, 2)), 2, np.inf, 0) for b in _BOTH],  # no vertex
        *[(b, np.zeros((1, 2)), 2, np.inf, 1) for b in _BOTH],  # a vertex, no edge
        *[(b, _line(5), 0, np.inf, None) for b in _BOTH],  # vertices only
        (cech_filtration, _CLOUD[:, :2], 3, np.inf, 3),  # no Delaunay face above the plane
        *[(b, _CLOUD, 3, "below the top", 3) for b in _BOTH],  # every tetrahedron clipped
        *[(b, _line(6), 3, 0.5, 2) for b in _BOTH],  # neighbour edges, no triangle
    ],
)
def test_complex_holds_one_array_pair_per_dimension(build, pts, max_dim, max_value, empty_from):
    if max_value == "below the top":
        max_value = np.nextafter(build(pts, max_dim, np.inf).values[max_dim].min(), -np.inf)
    fc = build(pts, max_dim, max_value)
    assert fc.max_dim == max_dim
    assert len(fc.verts) == len(fc.values) == max_dim + 1
    for k, (rows, values) in enumerate(zip(fc.verts, fc.values)):
        assert np.issubdtype(rows.dtype, np.integer) and rows.shape == (len(values), k + 1)
        assert values.dtype == float and values.shape == (len(rows),)
        assert np.all(values[1:] >= values[:-1])
        assert np.all(rows[:, 1:] > rows[:, :-1])  # increasing vertex rows
    # nonempty below empty_from, empty from there on
    assert [len(rows) > 0 for rows in fc.verts] == [empty_from is None or k < empty_from for k in range(max_dim + 1)]
    assert [dg.dim for dg in persistence(fc)] == list(range(max_dim))


def test_planar_cloud_has_no_h2():
    pts = np.random.default_rng(3).uniform(0, 1, size=(25, 2))
    h2 = next(dg for dg in persistence(cech_filtration(pts, max_dim=3, max_value=np.inf)) if dg.dim == 2)
    assert len(h2) == 0


def test_cell_faces_of_int32_cells():
    # Qhull's cells are int32; their codes must not wrap at n = 2000 (2000**3 > 2**31)
    cells = np.sort(np.random.default_rng(0).choice(2000, size=(3000, 4)), axis=1)
    for size in (2, 3, 4):
        got = _cell_faces(cells.astype(np.int32), size, 2000)
        assert np.array_equal(got, _cell_faces(cells, size, 2000))
        assert np.array_equal(got, np.unique(got, axis=0))  # sorted rows


@pytest.mark.parametrize(
    "n, cells",
    [
        (70_000, [[30000, 30001, 30002, 30003], [0, 1, 2, 3]]),  # the first row's code wraps below 0
        (2**17, [[0, 8193, 8194, 8195], [8192, 8193, 8194, 8195]]),  # codes equal mod 2**64
    ],
)
def test_cell_faces_of_four_vertices_stay_exact_past_int64_codes(n, cells):
    # a 3-D Delaunay build at max_dim 3 lists its tetrahedra as 4-vertex
    # faces, whose codes n**4 exceed int64 from n = 55109 points on
    got = _cell_faces(np.array(cells, dtype=np.int32), 4, n)
    assert got.tolist() == sorted(cells)


def test_builders_refuse_clouds_whose_row_codes_would_wrap():
    # at max_dim 3 the triangles' codes n**3 pass 2**63 from n = 2**21 on.
    # Two 4-point clusters at the ends of the ids, the rest 10 apart, make
    # two tetrahedra, of which wrapped codes kept one
    x = np.arange(2**21 + 8) * 10.0
    x[:4] = [0.0, 0.1, 0.2, 0.3]
    x[-4:] = x[-5] + 10.0 + np.array([0.0, 0.1, 0.2, 0.3])
    for build in (rips_filtration, cech_filtration):
        with pytest.raises(ValueError, match="too many at max_dim 3"):
            build(x[:, None], 3, 0.2)


def test_delaunay_cech_keeps_every_delaunay_face_at_inf():
    from scipy.spatial import Delaunay

    # 1500**3 > 2**31: wrapped codes of the triangles lose tetrahedra
    pts = np.random.default_rng(0).uniform(0, 1, size=(1500, 3))
    cells = np.sort(Delaunay(pts).simplices, axis=1).tolist()
    fc = cech_filtration(pts, max_dim=3, max_value=np.inf)
    for size, rows in enumerate(fc.verts, 1):
        faces = {face for cell in cells for face in itertools.combinations(cell, size)}
        assert set(map(tuple, rows.tolist())) == faces


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_diagram_counts_match_betti_oracle(seed):
    # Rips, a finite max_value or a low max_dim leaves classes above H0 unkilled
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    d = int(rng.choice([2, 3]))
    pts = rng.uniform(0, 1, size=(n, d))
    build = rips_filtration if rng.integers(2) else cech_filtration
    fc = build(pts, max_dim=int(rng.integers(1, 4)), max_value=float(rng.choice([np.inf, 0.3, 0.45])))
    dgms = persistence(fc, include_zero_length=True)
    scales = np.linspace(0.05, 1.2, 7)
    for dg in dgms:
        for r in scales:
            assert persistent_betti(dg, r) == betti_oracle(fc, r, dg.dim)


@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_k_plus_2_points_have_one_k_pair(k, d, data):
    # the one k-pair that mu_k_montecarlo reads: born with the last
    # k-simplex, killed by the top simplex, which sorts last
    coord = st.one_of(st.floats(-1, 1), st.integers(-2, 2).map(lambda i: i / 2))
    pts = np.array(data.draw(st.lists(coord, min_size=(k + 2) * d, max_size=(k + 2) * d))).reshape(k + 2, d)
    fc = cech_filtration(pts, max_dim=k + 1, max_value=np.inf)
    birth = max(v for verts, v in fc.simplices if len(verts) == k + 1)
    top, death = fc.simplices[-1]
    assert len(top) == k + 2
    for _, r in fc.simplices:
        assert (betti_oracle(fc, r, k) == 1) == (birth <= r < death)


def assert_union_find_pivots_match_reduction(fc):
    """Block 1's union-find gives the pivots of its column reduction, in
    column order."""
    births, deaths = _union_find_block(fc.verts[0], fc.verts[1])
    assert list(zip(deaths.tolist(), births.tolist())) == list(reduce_block(fc.verts[0], fc.verts[1]).items())


@given(
    degenerate_clouds(min_n=2),
    st.integers(1, 3),
    st.sampled_from([0.3, 0.6, 1.0, np.inf]),
    st.sampled_from([cech_filtration, rips_filtration]),
)
@settings(max_examples=200, deadline=None)
def test_coboundary_pairs_match_reduction_on_small_clouds(pts, max_dim, max_value, build):
    # each block k >= 2 cleared by block k - 1's deaths, as `persistence` clears it
    fc = build(pts, max_dim, max_value)
    deaths = _union_find_block(fc.verts[0], fc.verts[1])[1] if len(fc.values[1]) else np.empty(0, dtype=np.intp)
    for k in range(2, fc.max_dim + 1):
        if not len(fc.values[k]):
            break
        cleared = np.zeros(len(fc.values[k - 1]), dtype=bool)
        cleared[deaths] = True
        births, deaths = _coboundary_block(fc.verts[k - 1], fc.verts[k], cleared)
        pairs = dict(zip(deaths.tolist(), births.tolist()))
        assert len(pairs) == len(deaths)
        assert pairs == reduce_block(fc.verts[k - 1], fc.verts[k])
        # the cleared rows are deaths of block k - 1, never births of block k
        assert not cleared[births].any()


@given(
    degenerate_clouds(min_n=2),
    st.integers(1, 3),
    st.sampled_from([0.3, 0.6, 1.0, np.inf]),
    st.sampled_from([cech_filtration, rips_filtration]),
)
@settings(max_examples=200, deadline=None)
def test_union_find_pivots_match_reduction_on_small_clouds(pts, max_dim, max_value, build):
    assert_union_find_pivots_match_reduction(build(pts, max_dim, max_value))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_union_find_pivots_match_reduction_on_rounded_clouds(seed):
    # coordinates on a grid of step 1/4: repeated points and tied values
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(10, 60)), int(rng.integers(1, 4))
    pts = np.round(rng.uniform(0, 2, size=(n, d)) * 4) / 4
    build = rips_filtration if rng.integers(2) else cech_filtration
    fc = build(pts, max_dim=int(rng.integers(1, 4)), max_value=float(rng.choice([0.3, 0.6, np.inf])))
    assert_union_find_pivots_match_reduction(fc)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_union_find_pivots_match_reduction_on_graphs(seed):
    # a lower-star complex: vertices in value order, not in index order, and
    # tied integer values, so edges enter with their vertices
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < 0.2]
    with mock.patch.object(graphs, "persistence", wraps=persistence) as spy:
        graphs.graph_sublevel_diagrams(graphs.Graph(n, tuple(edges)), rng.integers(0, 4, size=n).astype(float))
    assert_union_find_pivots_match_reduction(spy.call_args.args[0])


def test_union_find_pivots_match_reduction_at_limits_size():
    # the degree-0 limit check: 2000 points of the square at the r_n scale
    r_n = r_n_schedule(2000, 0, 2)
    pts = np.random.default_rng(0).uniform(0, 1, size=(2000, 2)) / r_n
    fc = cech_filtration(pts, max_dim=1, max_value=2.5)
    assert len(fc.values[1]) > 2000
    assert_union_find_pivots_match_reduction(fc)


def test_include_zero_length_flag():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fc = cech_filtration(pts, max_dim=2, max_value=np.inf)
    strict = persistence(fc)
    loose = persistence(fc, include_zero_length=True)
    for dg in strict:
        finite = dg.pairs[np.isfinite(dg.pairs[:, 1])]
        assert np.all(finite[:, 1] > finite[:, 0])
    n_strict = sum(len(d.pairs) for d in strict)
    n_loose = sum(len(d.pairs) for d in loose)
    assert n_loose >= n_strict


def test_duplicate_points_are_handled():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    fc = cech_filtration(pts, max_dim=2, max_value=np.inf)
    dgms = persistence(fc)
    d0 = next(d for d in dgms if d.dim == 0)
    assert np.sum(~np.isfinite(d0.pairs[:, 1])) == 1  # one essential component


def test_stability_smoke():
    # tiny perturbations move the H1 diagram by at most a comparable amount
    from measureboost.ph.bottleneck import bottleneck

    rng = np.random.default_rng(5)
    theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    noisy = pts + rng.normal(scale=1e-3, size=pts.shape)
    d1 = next(d for d in persistence(cech_filtration(pts, 2, np.inf)) if d.dim == 1)
    d1n = next(d for d in persistence(cech_filtration(noisy, 2, np.inf)) if d.dim == 1)
    assert bottleneck(d1, d1n) < 5e-3


def test_diagram_to_measure_rotates():
    dg = PersistenceDiagram(1, np.array([[0.2, 0.9], [0.1, np.inf]]))
    m = diagram_to_measure(dg, truncation=2.0)
    assert isinstance(m, Measure)
    got = sorted(map(tuple, m.points.tolist()))
    assert got == [(0.1, pytest.approx(1.9)), (0.2, pytest.approx(0.7))]


def test_diagram_to_measure_requires_truncation_for_inf():
    dg = PersistenceDiagram(0, np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        diagram_to_measure(dg)
    # a truncation below an infinite death's birth would put a death before its birth
    dg = PersistenceDiagram(1, np.array([[0.5, 1.0], [2.5, np.inf], [1.0, np.inf]]))
    with pytest.raises(ValueError, match="truncation 2.0 is below the birth 2.5 of an infinite death"):
        diagram_to_measure(dg, 2.0)


def test_diagrams_jsonl_roundtrip(tmp_path):
    dgs = [
        PersistenceDiagram(0, np.array([[0.0, 1.0], [0.0, np.inf]])),
        PersistenceDiagram(1, np.array([[0.5, 0.75]])),
    ]
    path = tmp_path / "d.jsonl"
    save_diagrams_jsonl(dgs, path, metas=[{"cloud": 0}, {"cloud": 0}])
    back, metas = load_diagrams_jsonl(path)
    assert [d.dim for d in back] == [0, 1]
    np.testing.assert_array_equal(back[0].pairs, dgs[0].pairs)
    assert metas[0] == {"cloud": 0}


def test_persistent_betti_counts_open_interval():
    dg = PersistenceDiagram(0, np.array([[0.0, 1.0], [0.0, np.inf]]))
    assert persistent_betti(dg, 0.5) == 2
    assert persistent_betti(dg, 1.0) == 1  # death at exactly r is dead
    assert persistent_betti(dg, 5.0) == 1
