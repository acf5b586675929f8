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
from reachdec.sets import _intersect_rows, _sector, _sectors, direction_leq

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
    # bypass canonicalization to force an ill-conditioned vertex solve
    eps = 1e-13
    A = [[1.0, 0.0], [1.0, eps], [-1.0, 1.0], [-1.0, -1.0]]
    P = HPolygon(A, [1.0, 1.0, 1.0, 1.0], check_feasible=False)
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
                 [1.0, 1.0, 1.0, 1.0], check_feasible=False)
    # directions that avoid the pair are answered, one that hits it is not
    P.support_batch([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DegeneratePolygonError):
        P.support_batch([[0.0, 1.0], [1.0, 1e-14], [-1.0, 0.0]])
    # a near-parallel pair across the wrap (last, first): direction 0 takes
    # vertex 0, in a batch as in a scalar query
    Q = HPolygon([[-1.0, -eps], [1.0, -1.0], [1.0, 1.0], [-1.0, eps]],
                 [1.0, 1.0, 1.0, 1.0], check_feasible=False)
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
