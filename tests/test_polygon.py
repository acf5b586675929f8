"""Constraint polygons and the logarithmic support search.

The reference oracle throughout is exhaustive vertex enumeration: every
feasible intersection of a constraint pair, maximized directly.
"""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import polygon_vertices_bruteforce, random_polygon, spanning_angles
from reachdec import (
    DegeneratePolygonError,
    DimensionError,
    HPolygon,
    InvalidSetError,
    polygon_support_vector,
)
from reachdec.sets import direction_leq

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
