"""Constraint polygons and the logarithmic support search.

The reference oracle throughout is exhaustive vertex enumeration: every
feasible intersection of a constraint pair, maximized directly.  The
cached-vertex kernel is also held bit for bit to a plain binary search on
`direction_leq` followed by one `_intersect_rows` solve.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachdec
from conftest import polygon_vertices_bruteforce, random_polygon, spanning_angles
from reachdec import (
    BallP,
    DegeneratePolygonError,
    DimensionError,
    HPolygon,
    InvalidSetError,
    LinearMap,
    overapproximate_eps,
    polygon_support_vector,
)
from reachdec.approx import overapproximate_box
from reachdec.sets import (
    PARALLEL_TOL,
    LazySet,
    _intersect_rows,
    _Polygons,
    _sector,
    _sectors,
    direction_leq,
)

SQUARE = HPolygon([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                  [1.0, 1.0, 1.0, 1.0])


def test_square_supports():
    assert SQUARE.support_function([1.0, 0.0]) == 1.0
    v = polygon_support_vector(SQUARE, [1.0, 0.0])
    assert v[0] == 1.0 and abs(v[1]) <= 1.0
    npt.assert_allclose(polygon_support_vector(SQUARE, [1.0, 1.0]), [1.0, 1.0])
    npt.assert_allclose(SQUARE.support_function([3.0, -2.0]), 5.0)


def test_construction_order_and_scaling_invariance():
    rng = np.random.default_rng(20)
    for _ in range(25):
        P = random_polygon(rng, 4, 12)
        A, b = np.array(P.normals), np.array(P.offsets)
        perm = rng.permutation(len(b))
        scale = rng.uniform(0.5, 5.0, len(b))
        Q = HPolygon(A[perm] * scale[perm, None], b[perm] * scale[perm])
        L = rng.standard_normal((20, 2))
        npt.assert_allclose(P.support_batch(L), Q.support_batch(L),
                            rtol=1e-9, atol=1e-9)


def test_normals_sorted_counter_clockwise():
    rng = np.random.default_rng(21)
    for _ in range(25):
        P = random_polygon(rng, 4, 20)
        A = P.normals
        nxt = np.roll(np.arange(len(A)), -1)
        cross = A[:, 0] * A[nxt, 1] - A[:, 1] * A[nxt, 0]
        # strictly increasing angles, positively spanning
        assert np.all(cross[:-1] > 0.0)
        for i in range(len(A) - 1):
            assert direction_leq(A[i], A[i + 1])


@pytest.mark.parametrize("tight_first", [True, False])
def test_duplicate_normals_keep_the_tighter_offset(tight_first):
    # (0, 1) twice in the middle of the angular order; (-1, -1e-16) and
    # (-1, 0) sort first and last, so they coincide across the wrap
    rng = np.random.default_rng(22)
    dup_mid = [1.0, 2.0] if tight_first else [2.0, 1.0]
    dup_wrap = [2.0, 3.0] if tight_first else [3.0, 2.0]
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-1.0, -1e-16],
                  [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, *dup_mid, *dup_wrap, 1.0])
    for _ in range(5):
        perm = rng.permutation(len(b))
        P = HPolygon(A[perm], b[perm])
        assert len(P.offsets) == 4
        for l, want in (([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0),
                        ([-1.0, 0.0], 2.0), ([0.0, -1.0], 1.0)):
            assert P.support_function(l) == pytest.approx(want, abs=1e-12)
        kept = {tuple(a): off for a, off in zip(P.normals.tolist(), P.offsets)}
        assert kept[(0.0, 1.0)] == 1.0
        assert 2.0 in [kept.get((-1.0, 0.0)), kept.get((-1.0, -1e-16))]


def test_successive_vertices_feasible_after_construction():
    # the support search is exact iff every adjacent constraint pair meets
    # at a feasible point; the constructor must establish that
    rng = np.random.default_rng(22)
    for _ in range(50):
        P = random_polygon(rng)
        A, b = np.array(P.normals), np.array(P.offsets)
        nxt = np.roll(np.arange(len(b)), -1)
        det = A[:, 0] * A[nxt, 1] - A[:, 1] * A[nxt, 0]
        vx = (A[nxt, 1] * b - A[:, 1] * b[nxt]) / det
        vy = (A[:, 0] * b[nxt] - A[nxt, 0] * b) / det
        V = np.column_stack([vx, vy])
        assert np.all(A @ V.T <= b[:, None] + 1e-9)


def test_support_matches_vertex_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(200):
        P = random_polygon(rng)
        verts = polygon_vertices_bruteforce(P.normals, P.offsets)
        assert len(verts) >= 3
        for _ in range(5):
            l = rng.standard_normal(2)
            expect = (verts @ l).max()
            npt.assert_allclose(P.support_function(l), expect,
                                rtol=1e-9, atol=1e-9)
            v = polygon_support_vector(P, l)
            npt.assert_allclose(l @ v, expect, rtol=1e-9, atol=1e-9)


def test_redundant_constraints_are_stripped():
    A = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
         [1.0, 0.0], [0.7, 0.7]]
    b = [1.0, 1.0, 1.0, 1.0, 5.0, 9.0]
    P = HPolygon(A, b)
    assert len(P.offsets) == 4
    L = np.random.default_rng(24).standard_normal((40, 2))
    npt.assert_allclose(P.support_batch(L), SQUARE.support_batch(L),
                        rtol=1e-12, atol=1e-12)


def test_heavily_redundant_random_polygons():
    rng = np.random.default_rng(25)
    for _ in range(30):
        P = random_polygon(rng, 4, 10)
        A, b = np.array(P.normals), np.array(P.offsets)
        # add loose copies of existing constraints and some far-out cuts
        extra_angles = spanning_angles(rng, 6)
        A_extra = np.column_stack([np.cos(extra_angles), np.sin(extra_angles)])
        b_extra = A_extra @ np.zeros(2) + 50.0
        Q = HPolygon(np.vstack([A, A_extra, A]),
                     np.concatenate([b, b_extra, b + 3.0]))
        L = rng.standard_normal((15, 2))
        npt.assert_allclose(P.support_batch(L), Q.support_batch(L),
                            rtol=1e-9, atol=1e-9)


def test_infeasible_constraints_rejected():
    # x <= -2 together with x >= -1
    with pytest.raises(InvalidSetError):
        HPolygon([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 [-2.0, 1.0, 1.0, 1.0])


def test_flat_region_with_redundancy_rejected():
    # a segment on the x-axis plus a loose extra cut: redundancy removal
    # kicks in and finds the feasible region has no interior
    with pytest.raises(DegeneratePolygonError):
        HPolygon([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [0.7, 0.7]],
                 [1.0, 1.0, 0.0, 0.0, 5.0])


def test_consistent_degenerate_descriptions_evaluate_exactly():
    # when every adjacent constraint pair already meets at a feasible
    # vertex the representation is kept as-is, even if the region is flat
    point = HPolygon([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                     [0.0, 0.0, 0.0, 0.0])
    segment = HPolygon([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                       [1.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(28)
    for _ in range(50):
        l = rng.standard_normal(2)
        npt.assert_allclose(point.support_function(l), 0.0, atol=1e-12)
        npt.assert_allclose(segment.support_function(l), abs(l[0]),
                            rtol=1e-12, atol=1e-12)


def test_unbounded_polygon_rejected():
    # all normals in the upper half-plane: open towards -y
    with pytest.raises(InvalidSetError):
        HPolygon([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]], [1.0, 1.0, 1.0])


def test_too_few_constraints_rejected():
    with pytest.raises(InvalidSetError):
        HPolygon([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(InvalidSetError):
        # three rows, but two share a direction: two distinct normals only
        HPolygon([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]], [1.0, 1.5, 1.0])


def test_invalid_inputs_rejected():
    with pytest.raises(DimensionError):
        HPolygon([[1.0, 0.0, 0.0]], [1.0])
    with pytest.raises(DimensionError):
        HPolygon([[1.0, 0.0], [0.0, 1.0]], [1.0])
    with pytest.raises(InvalidSetError):
        HPolygon([[np.nan, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidSetError):
        HPolygon([[0.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0])


def test_zero_direction_gives_zero_support():
    # every point of a nonempty set attains the support 0 of direction 0
    assert SQUARE.support_function([0.0, 0.0]) == 0.0
    v = SQUARE.support_vector([0.0, 0.0])
    assert any(np.allclose(v, w, atol=1e-12) for w in polygon_vertices_bruteforce(
        SQUARE.normals, SQUARE.offsets))
    npt.assert_array_equal(SQUARE.support_batch(np.zeros((2, 2))), [0.0, 0.0])


def test_near_parallel_adjacent_pair_reported():
    # a feasible near-parallel pair is kept: its vertex is solved again,
    # ill-conditioned, at query time
    eps = 1e-13
    A = [[1.0, 0.0], [1.0, eps], [-1.0, 1.0], [-1.0, -1.0]]
    P = HPolygon(A, [1.0, 1.0, 1.0, 1.0])
    assert len(P.offsets) == 4
    with pytest.raises(DegeneratePolygonError):
        # direction angularly between the two near-parallel normals
        P.support_vector([1.0, 1e-14])


def test_direction_order_follows_angles():
    chain = [(-1.0, -1.0), (0.0, -1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
             (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)]
    for i in range(len(chain) - 1):
        assert direction_leq(chain[i], chain[i + 1])
        assert not direction_leq(chain[i + 1], chain[i])
    rng = np.random.default_rng(26)
    for _ in range(300):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        got = direction_leq(a, b)
        expect = np.arctan2(a[1], a[0]) <= np.arctan2(b[1], b[0])
        assert got == expect


def test_batch_matches_scalar_queries():
    rng = np.random.default_rng(27)
    P = random_polygon(rng, 5, 30)
    L = rng.standard_normal((50, 2))
    npt.assert_allclose(P.support_batch(L),
                        [P.support_function(l) for l in L], rtol=1e-12)


# -- the cached-vertex kernel against the reference search -------------

BOUNDARY_DIRECTIONS = [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0),
                       (1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0),
                       (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]


def reference_vertex(P, l):
    """The support vertex by a binary search on `direction_leq` and one
    `_intersect_rows` solve: the kernel must reproduce it bit for bit."""
    A, b = P.normals, P.offsets
    m = len(b)
    if not (l[0] or l[1]):
        i = 0
    elif not direction_leq(A[0], l):
        i = m - 1
    else:
        lo, hi = 0, m - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if direction_leq(A[mid], l):
                lo = mid
            else:
                hi = mid - 1
        i = lo
    j = (i + 1) % m
    return _intersect_rows(A[i], b[i], A[j], b[j])


def eps_polygon(rng):
    """A polygon built as overapproximate_eps builds it: support
    constraints of a set, without the feasibility check."""
    X = LinearMap(rng.standard_normal((2, 2)),
                  BallP(rng.uniform(-2, 2, 2), rng.uniform(0.1, 2.0),
                        float(rng.choice([1.0, 2.0, np.inf]))))
    return overapproximate_eps(X, float(rng.choice([1e-1, 1e-2, 1e-3])))


def kernel_directions(rng, P):
    A = np.array(P.normals)
    return np.vstack([rng.standard_normal((30, 2)), A, -A, A[:, ::-1] * [1.0, -1.0],
                      BOUNDARY_DIRECTIONS])


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    npt.assert_array_equal(got, want)
    npt.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("build", ["random", "eps"])
def test_scalar_and_batched_queries_are_the_reference_vertex(build):
    rng = np.random.default_rng(29)
    for _ in range(25):
        P = random_polygon(rng) if build == "random" else eps_polygon(rng)
        L = kernel_directions(rng, P)
        batch = P.support_batch(L)
        for l, rho in zip(L, batch):
            v = reference_vertex(P, l)
            assert_bitwise(P.support_vector(l), v)
            assert_bitwise(P.support_function(l), l @ v)
            assert_bitwise(rho, l @ v)


def test_search_of_many_polygons_is_the_search_of_each():
    rng = np.random.default_rng(33)
    polygons = ([random_polygon(rng) for _ in range(15)]
                + [eps_polygon(rng) for _ in range(15)] + [SQUARE])
    # the normals of some of the polygons are ties of the search
    L = np.vstack([kernel_directions(rng, P) for P in polygons[::6]])
    S, r = len(polygons), len(L)
    found = _Polygons(polygons).search(np.repeat(np.arange(S), r),
                                       np.tile(L[:, 0], S), np.tile(L[:, 1], S))
    for P, idx in zip(polygons, found.reshape(S, r).tolist()):
        assert idx == [P._search(x, y) for x, y in L.tolist()]


def test_support_vector_is_a_private_copy():
    v = SQUARE.support_vector([1.0, 1.0])
    v[:] = 7.0
    npt.assert_array_equal(SQUARE.support_vector([1.0, 1.0]), [1.0, 1.0])


def test_scalar_and_vectorised_angular_orders_agree():
    """A polygon sorts its normals by `_sectors` and its search compares
    their sectors with `_sector` of the query: the two must agree, on the
    signed zeros too."""
    rng = np.random.default_rng(30)
    special = np.array(BOUNDARY_DIRECTIONS + [(1.0, 1.0), (-1.0, 1.0),
                                              (1.0, -1.0), (-1.0, -1.0)])
    pts = np.vstack([special, rng.standard_normal((40, 2)),
                     rng.integers(-2, 3, (40, 2)).astype(float)])
    vectorised = _sectors(pts[:, 0], pts[:, 1])
    scalar = [_sector(x, y) for x, y in pts.tolist()]
    npt.assert_array_equal(vectorised, scalar)


def test_batch_through_near_parallel_pair_reported():
    eps = 1e-13
    P = HPolygon([[1.0, 0.0], [1.0, eps], [-1.0, 1.0], [-1.0, -1.0]],
                 [1.0, 1.0, 1.0, 1.0])
    # directions that avoid the pair are answered, one that hits it is not
    P.support_batch([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DegeneratePolygonError):
        P.support_batch([[0.0, 1.0], [1.0, 1e-14], [-1.0, 0.0]])
    # a near-parallel pair across the wrap (last, first): direction 0 takes
    # vertex 0, in a batch as in a scalar query
    Q = HPolygon([[-1.0, -eps], [1.0, -1.0], [1.0, 1.0], [-1.0, eps]],
                 [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegeneratePolygonError):
        Q.support_batch([[-1.0, 0.0]])
    assert_bitwise(Q.support_batch([[0.0, 0.0], [1.0, 0.0]]),
                   [Q.support_function([0.0, 0.0]), Q.support_function([1.0, 0.0])])


def test_redundancy_removal_loads_no_solver():
    code = (
        "import sys\n"
        "from reachdec import HPolygon\n"
        "P = HPolygon([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0], [0.7, 0.7]],\n"
        "             [1, 1, 1, 1, 5, 9])\n"
        "assert len(P.offsets) == 4\n"
        "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])\n")
    src = str(Path(reachdec.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_redundancy_removal_with_cuts_through_vertices():
    # halfplanes touching the square at a corner or along an edge, and a
    # loose one that sends construction through redundancy removal
    c = np.sqrt(0.5)
    A = SQUARE.normals.tolist() + [[c, c], [1.0, 0.0], [c, -c], [0.6, 0.8],
                                   [0.8, -0.6]]
    b = SQUARE.offsets.tolist() + [2.0 * c, 1.0, 2.0 * c, 1.4, 3.0]
    P = HPolygon(A, b)
    assert not np.any(np.all(np.isclose(P.normals, [0.8, -0.6]), axis=1))
    L = np.random.default_rng(31).standard_normal((40, 2))
    npt.assert_allclose(P.support_batch(L), SQUARE.support_batch(L),
                        rtol=1e-12, atol=1e-12)
    verts = [reference_vertex(P, a) for a in P.normals]
    assert np.all(P.normals @ np.transpose(verts) <= P.offsets[:, None] + 1e-12)


# ----------------------------------------------------------------------
# the float build of sorted constraints against the same formulas on arrays
# ----------------------------------------------------------------------

def numpy_build(normals, offsets):
    """(normals, offsets, vertices, sectors, near-parallel pairs) of
    constraints in angular order, each formula as one numpy ufunc over all
    pairs (i, i + 1): the reference of `HPolygon._from_sorted`."""
    A, b = np.array(normals, dtype=float), np.array(offsets, dtype=float)
    norms = np.hypot(A[:, 0], A[:, 1])
    A, b = A / norms[:, None], b / norms
    A1, b1 = np.roll(A, -1, axis=0), np.roll(b, -1)
    det = A[:, 0] * A1[:, 1] - A[:, 1] * A1[:, 0]
    V = np.empty_like(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        V[:, 0] = (A1[:, 1] * b - A[:, 1] * b1) / det
        V[:, 1] = (A[:, 0] * b1 - A1[:, 0] * b) / det
    if len(b) < 3:
        raise InvalidSetError("HPolygon: fewer than 3 distinct normal directions")
    if np.any(det <= 0.0):
        raise InvalidSetError("HPolygon: normals do not positively span the "
                              "plane (the feasible set is unbounded)")
    near = frozenset(np.flatnonzero(np.abs(det) < 2.0 * PARALLEL_TOL).tolist())
    return A, b, V, _sectors(A[:, 0], A[:, 1]).tolist(), near


#: the axis normals as the refinement starts from them, by angle
AXIS_NORMALS = {-np.pi / 2: (0.0, -1.0), 0.0: (1.0, 0.0), np.pi / 2: (0.0, 1.0),
                np.pi: (-1.0, 0.0)}


@st.composite
def sorted_constraints(draw):
    """Normals of any length in angular order, with offsets.  Their cyclic
    gaps are drawn as weights of the full turn, so a weight of half the
    total or more leaves the plane unspanned; some normals have a twin
    turned by 1e-15 to 1e-12, and the exact axis normals may join, one of
    them with a negative zero."""
    m = draw(st.integers(2, 16))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    start = draw(st.floats(-np.pi, np.pi))
    angles = start + 2.0 * np.pi * np.cumsum(weights) / weights.sum()
    angles = list(np.mod(angles + np.pi, 2.0 * np.pi) - np.pi)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3, unique=True)):
        angles.append(angles[i] + draw(st.floats(1e-15, 1e-12)))
    units = {a: (np.cos(a), np.sin(a)) for a in angles}
    if draw(st.booleans()):
        units.update(AXIS_NORMALS)
        if draw(st.booleans()):
            units[np.pi / 2] = (-0.0, 1.0)
    order = sorted(units)
    lengths = draw(st.lists(st.floats(0.1, 10.0), min_size=len(order),
                            max_size=len(order)))
    normals = [[r * units[a][0], r * units[a][1]] for a, r in zip(order, lengths)]
    offsets = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(order),
                            max_size=len(order)))
    return normals, offsets


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(sorted_constraints())
@example(([[1.0, 0.0], [1.0, 1e-13], [-1.0, 1.0], [-1.0, -1.0]], [1.0] * 4))
@example(([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [1.0] * 3))
def test_float_build_is_bitwise_the_numpy_build(case):
    normals, offsets = case
    try:
        want = numpy_build(normals, offsets)
    except InvalidSetError as exc:
        with pytest.raises(InvalidSetError) as got:
            HPolygon._from_sorted(normals, offsets)
        assert str(got.value) == str(exc)
        return
    P = HPolygon._from_sorted(normals, offsets)
    A, b, V, sec, near = want
    for got, ref in ((P.normals, A), (P.offsets, b), (P._vertices, V)):
        assert_same_bits(got, ref)
    assert P._sec_list == sec and P._near_parallel == near
    assert (P._ax, P._ay) == (A[:, 0].tolist(), A[:, 1].tolist())


# ----------------------------------------------------------------------
# the closed-form axis supports of a polygon
# ----------------------------------------------------------------------

def polygons_with_a_vertex_on_an_axis():
    """Polygons with vertices on the axes, where the zeros of I and of -I
    meet zero coordinates (signed ones among them): a diamond, a corner at
    the origin, shifted diamonds and ε-close polygons of balls centred on
    an axis."""
    diamond = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    out = [HPolygon(diamond, [1.0] * 4),
           HPolygon([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]),
           HPolygon._from_sorted([[0.0, -1.0], [1.0, 1.0], [-1.0, 0.0]],
                                 [0.0, 1.0, 0.0])]
    for shift in (0.5, 2.0, -3.0):
        out.append(HPolygon(diamond, [1.0 + shift, 1.0 - shift, 1.0 - shift,
                                      1.0 + shift]))
    for p in (1.0, 2.0, np.inf):
        for c in ([0.0, 0.0], [0.0, 1.5], [-2.0, 0.0]):
            out.append(overapproximate_eps(BallP(c, 1.0, p), 1e-3))
    return out


@pytest.mark.parametrize("P", polygons_with_a_vertex_on_an_axis())
def test_axis_supports_are_bitwise_the_generic_walk(P):
    hi, nlo = P._axis_supports(None)
    ref_hi, ref_nlo = LazySet._axis_supports(P, None)
    assert_same_bits(hi, ref_hi)
    assert_same_bits(nlo, ref_nlo)
    box = overapproximate_box(P)
    lo = -ref_nlo
    assert_same_bits(box.center, (lo + ref_hi) / 2.0)
    assert_same_bits(box.radius, (ref_hi - lo) / 2.0)

