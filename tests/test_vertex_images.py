"""The sum of vertex images of decomposed blocks (`VertexImageSum`)
against the lazy map of their product, and the ε-close engine that uses
it: its scaling, and its walk over the steps of a tube against the
refinement of each step alone."""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reachdec.approx
import reachdec.reach
from conftest import generic_tube, random_polygon, random_stable_matrix
from reachdec import (
    BallP,
    BlockStructure,
    CartesianProduct,
    DegeneratePolygonError,
    DiscreteSystem,
    EngineError,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    LinearMap,
    MinkowskiSum,
    Singleton,
    UnboundedSetError,
    overapproximate_eps,
    reach_decomposed,
    reach_decomposed_varying,
)
from reachdec.approx import _overapproximate_eps_all
from reachdec.reach import ReachTube, SetTube
from reachdec.sets import VertexImageSum, _Images, _Matrix, _Polygons, vertex_table


def random_part(rng, dim):
    """A point, an interval, a 2-D box or a polygon: the sets that
    `decompose` and `approximate` return for a block of size ``dim``."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Singleton(rng.uniform(-2, 2, dim))
    if kind == 1 or dim == 1:
        return Hyperrectangle(rng.uniform(-2, 2, dim), rng.uniform(0.0, 1.0, dim))
    P = random_polygon(rng, 3, 12)
    return HPolygon(P.normals, P.offsets + P.normals @ rng.uniform(-2, 2, 2))


def random_case(rng):
    """(M, parts): the blocks of a product of odd or even dimension n and
    a dense d x n map with some zero 2 x 2 blocks."""
    n = int(rng.integers(1, 11))
    bs = BlockStructure(n)
    parts = [random_part(rng, bs.size(j)) for j in range(bs.b)]
    d = int(rng.integers(1, 3))
    M = rng.standard_normal((d, n))
    for j in range(bs.b):
        if rng.random() < 0.3:
            M[:, bs.slice(j)] = 0.0
    return M, parts


def both_forms(M, parts):
    """The sum built from the columns of M and from its blocks."""
    bs = BlockStructure(M.shape[1])
    return [VertexImageSum.of_columns(vertex_table(parts), M),
            VertexImageSum.of_maps((M[:, bs.slice(j)], X)
                                   for j, X in enumerate(parts))]


def scale(M, parts):
    """An upper bound on the magnitude of the terms of a support in a
    direction of norm at most 1."""
    table = vertex_table(parts)
    return 1.0 + np.abs(M).sum() * np.abs(table).max()


def test_vertex_images_are_the_map_of_the_product():
    rng = np.random.default_rng(2027)
    for _ in range(200):
        M, parts = random_case(rng)
        ref = LinearMap(M, CartesianProduct(parts))
        # a support near 0 cancels terms of up to this scale, so it is
        # compared to them, not to itself
        tol = 1e-12 * scale(M, parts)
        L = rng.standard_normal((7, M.shape[0]))
        L /= np.linalg.norm(L, axis=1)[:, None]
        L[0] = 0.0
        for X in both_forms(M, parts):
            assert X.dim == M.shape[0]
            want = ref.support_batch(L)
            npt.assert_allclose(X.support_batch(L), want, rtol=1e-12, atol=tol)
            for l, w in zip(L, want):
                rho, sigma = X.support_pair(l)
                npt.assert_allclose(rho, w, rtol=1e-12, atol=tol)
                # the maximizer attains the value
                npt.assert_allclose(l @ sigma, rho, rtol=1e-12, atol=tol)
            T = rng.standard_normal((3, M.shape[0]))
            for t in (None, -0.5, _Matrix(T), _Matrix(sp.csr_array(T))):
                for got, want in zip(X._axis_supports(t), ref._axis_supports(t)):
                    npt.assert_allclose(got, want, rtol=1e-12, atol=tol * 4)


def test_a_zero_map_reads_plus_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M, parts = random_case(rng)
        M[:] = 0.0
        L = -np.abs(rng.standard_normal((4, M.shape[0])))
        for X in both_forms(M, parts):
            rho, sigma = X.support_pair(L[0])
            values = X.support_batch(L)
            hi, nlo = X._axis_supports(None)
            # a negative multiple turns the image points into -0.0
            shi, snlo = X._axis_supports(-0.5)
            for v in (np.array([rho]), sigma, values, hi, nlo, shi, snlo):
                npt.assert_array_equal(v, 0.0)
                assert not np.signbit(v).any()


def test_a_near_parallel_polygon_pair_is_reported():
    eps = 1e-13
    P = HPolygon([[1.0, 0.0], [1.0, eps], [-1.0, 1.0], [-1.0, -1.0]],
                 [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegeneratePolygonError):
        vertex_table([Singleton(np.zeros(2)), P])
    with pytest.raises(DegeneratePolygonError):
        VertexImageSum.of_maps([(np.eye(2), P)])


def test_eps_step_queries_do_not_grow_with_the_dimension(monkeypatch):
    # one tracked block of a block-diagonal system: the polygon searches of
    # a run, one direction at a time or pairwise for the tube's walk, are
    # the same at every n, since the untracked blocks of X0 are read
    # through their vertex images, not searched
    calls = []
    search, search_pairs = HPolygon._search, _Polygons.search

    def counted(self, x, y):
        calls.append(1)
        return search(self, x, y)

    def counted_pairs(self, which, x, y):
        calls.append(len(x))
        return search_pairs(self, which, x, y)

    monkeypatch.setattr(HPolygon, "_search", counted)
    monkeypatch.setattr(_Polygons, "search", counted_pairs)
    R = np.array([[0.99, -0.05], [0.05, 0.99]])
    counts = []
    for n in (8, 32):
        sys = DiscreteSystem(np.kron(np.eye(n // 2), R),
                             BallP(np.ones(n), 0.3, 2),
                             Hyperrectangle(np.zeros(n), np.full(n, 0.01)), 0.1)
        calls.clear()
        tube = reach_decomposed(sys, 20, tracked=[0], scheme=EpsilonClose(0.01))
        assert isinstance(tube.set_at(19, 0), HPolygon)
        counts.append(sum(calls))
    assert counts[0] == counts[1] > 0


#: a polygon whose normals (1, 0) and (1, 1e-13) meet at a degenerate
#: vertex, which a query in the direction (1, 0) solves again and rejects
DEGENERATE = HPolygon([[1.0, 0.0], [1.0, 1e-13], [-1.0, 1.0], [-1.0, -1.0]],
                      [1.0, 1.0, 1.0, 1.0])


def lazy_step(rng, parts):
    """A set M + W as a tube's lazy step is: the image M of the product
    of ``parts`` under a random 2 x n map, plus a polygon W (a box or a
    point now and then, which the walk leaves to the refinement alone)."""
    n = sum(X.dim for X in parts)
    M = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-1, 1)
    W = random_part(rng, 2) if rng.random() < 0.2 else HPolygon(
        *(lambda P: (P.normals, P.offsets + P.normals @ rng.uniform(-2, 2, 2)))(
            random_polygon(rng, 3, 12)))
    return MinkowskiSum(VertexImageSum.of_columns(vertex_table(parts), M), W)


def outcome(run):
    """What ``run()`` returns, or the type and message of its error."""
    try:
        return run()
    except EngineError as exc:
        return type(exc), str(exc)


def polygon_bytes(polygons):
    """The constraint bytes of each of ``polygons``, formed in turn."""
    return [(P.normals.tobytes(), P.offsets.tobytes()) for P in polygons]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans(),
       st.sampled_from([1e-1, 1e-2, 1e-3]),
       st.sampled_from(["none", "overflow", "budget", "near"]))
def test_eps_walk_is_bitwise_each_refinement(seed, count, shared, eps, fault):
    # products of up to 10 parts, so the sums of the maxima over the parts
    # take numpy's pairwise order; one table for all, as in a tube, or a
    # table per set, so the walk stacks images of several shapes
    rng = np.random.default_rng(seed)

    def parts():
        bs = BlockStructure(int(rng.integers(1, 21)))
        return [random_part(rng, bs.size(j)) for j in range(bs.b)]

    table = parts()
    sets = [lazy_step(rng, table if shared else parts()) for _ in range(count)]
    budget = 10_000
    at = int(rng.integers(count))
    if fault == "overflow":   # image points of 3e308
        with np.errstate(over="ignore"):
            image = VertexImageSum.of_columns(vertex_table([Singleton([3.0, 3.0])]),
                                              1e308 * np.eye(2))
        sets[at] = MinkowskiSum(image, sets[at].right)
    elif fault == "budget":   # just enough for the first set, or one short
        budget = len(overapproximate_eps(sets[0], eps).offsets) - int(rng.integers(2))
    elif fault == "near":
        sets[at] = MinkowskiSum(sets[at].left, DEGENERATE)
    with np.errstate(over="ignore", invalid="ignore"):   # as the tube runs
        want = outcome(lambda: polygon_bytes(overapproximate_eps(X, eps, budget)
                                             for X in sets))
        with mock.patch.object(reachdec.approx, "overapproximate_eps",
                               wraps=overapproximate_eps) as alone:
            got = outcome(lambda: polygon_bytes(
                _overapproximate_eps_all(sets, eps, budget)))
    assert got == want
    if fault == "none":   # the walk refines every set of a polygon W
        assert alone.call_count == sum(not isinstance(X.right, HPolygon) for X in sets)
    elif fault != "budget":
        assert isinstance(want, tuple)


def tube_bytes(tube):
    """The constraint bytes of every polygon of a tube, step by step."""
    return [(k, i, P.normals.tobytes(), P.offsets.tobytes())
            for k, i, P in tube.polygons()]


@pytest.mark.parametrize("N, bad", [(4, None), (8, None), (8, 3), (8, 4), (8, 6)])
def test_eps_tube_chunks_are_the_per_step_loop(monkeypatch, N, bad):
    # Phi = 1e50 I and x0 = 1e110: the tube's step 4 overflows.  The input
    # V(bad - 1), a degenerate polygon, ends the accumulation W_bad, which
    # the per-step loop forms before the tube of step bad: a chunk of one
    # step, of three or of the default size fails as that loop does
    seq = [Hyperrectangle(np.zeros(2), np.full(2, 1e-300))] * N
    if bad is not None:
        seq[bad - 1] = DEGENERATE
    sys = DiscreteSystem(1e50 * np.eye(2), Singleton([1e110, 1.0]), seq, 1.0)
    scheme = EpsilonClose(0.1)
    want = outcome(lambda: tube_bytes(generic_tube(sys, N, scheme=scheme)))
    if N == 4:
        assert len(want) == 3
    else:
        assert want[0] is (DegeneratePolygonError if bad in (3, 4) else UnboundedSetError)
    # a lazy step holds 2 entries of image points: the point of x0's block
    for entries in (1, 3 * 2, reachdec.reach._CHUNK_ENTRIES):
        monkeypatch.setattr(reachdec.reach, "_CHUNK_ENTRIES", entries)
        got = outcome(lambda: tube_bytes(reach_decomposed_varying(sys, N, scheme=scheme)))
        assert got == want


def bisection_depth(a):
    """The level of the refinement at which the normal a is formed: the
    start directions are at level 0, and a bisector at level d is an odd
    multiple of pi / 2^(d+1) from (0, -1)."""
    p = (np.arctan2(a[1], a[0]) / (np.pi / 2) + 1.0) % 4.0
    return next(d for d in range(40) if abs(p * 2 ** d - round(p * 2 ** d)) < 1e-6)


def test_eps_tube_makes_one_query_per_level_of_each_chunk(monkeypatch):
    # a 40-step run of one block in chunks of 10 steps: each chunk is one
    # walk, which asks one stacked query per level of its deepest
    # refinement, and no lazy step is queried one direction at a time
    walks, queries = [], []
    walk, supports = reachdec.approx._eps_walk, _Images.supports

    def counted_walk(sets, eps, max_constraints):
        walks.append(len(sets))
        queries.append(0)
        return walk(sets, eps, max_constraints)

    def counted_supports(self, which, L):
        queries[-1] += 1
        return supports(self, which, L)

    def lone(self, l):
        raise AssertionError("a lazy step was queried one direction at a time")

    monkeypatch.setattr(reachdec.approx, "_eps_walk", counted_walk)
    monkeypatch.setattr(_Images, "supports", counted_supports)
    monkeypatch.setattr(VertexImageSum, "_rho_sigma", lone)
    # a lazy step holds 8 entries of image points: the 4 corners of x0's box
    monkeypatch.setattr(reachdec.reach, "_CHUNK_ENTRIES", 80)
    R = np.array([[0.99, -0.05], [0.05, 0.99]])
    sys = DiscreteSystem(R, Hyperrectangle([1.0, 0.0], [0.1, 0.2]),
                         BallP(np.zeros(2), 0.01, 2), 0.1)
    tube = reach_decomposed(sys, 40, scheme=EpsilonClose(0.01))
    assert walks == [10, 10, 10, 9]
    levels = [1 + max(bisection_depth(a) for a in tube.set_at(k, 0).normals)
              for k in range(1, 40)]
    assert max(levels) > 2
    assert queries == [max(levels[lo:lo + 10]) for lo in range(0, 39, 10)]


def test_set_tube_box_bounds_are_bitwise_each_hull():
    # two tracked blocks of an odd n, one of them the interval of size 1
    rng = np.random.default_rng(35)
    sys = DiscreteSystem(random_stable_matrix(rng, 5), BallP(np.ones(5), 0.3, 2),
                         Hyperrectangle(np.zeros(5), np.full(5, 0.01)), 0.1)
    tube = reach_decomposed(sys, 30, tracked=[1, 2], scheme=EpsilonClose(0.01))
    got, want = tube.box_bounds(), ReachTube.box_bounds(tube)
    assert list(got) == list(want) == [1, 2]
    for i in want:
        for g, w in zip(got[i], want[i]):
            assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
    # a near-parallel vertex, which a query solves again: a valid one
    # gives the same hulls, a degenerate one the same error, in step order
    near = HPolygon([[1.0, 0.0], [1.0, 1.5e-12], [-1.0, 1.0], [-1.0, -1.0]],
                    [1.0, 1.0, 1.0, 1.0])
    P = tube.set_at(1, 1)
    bs = BlockStructure(2)
    for steps in ([P, near, P], [P, DEGENERATE, near]):
        hand = SetTube(0.1, tube.model, bs, [0], [{0: X} for X in steps])
        got = outcome(lambda: [[a.tobytes() for a in b] for b in hand.box_bounds()[0]])
        want = outcome(lambda: [[a.tobytes() for a in b]
                                for b in ReachTube.box_bounds(hand)[0]])
        assert got == want
    assert want[0] is DegeneratePolygonError


def test_set_tube_supports_are_bitwise_each_step_query():
    # a tube's supports query its polygons for all steps at once; a step
    # whose rows meet a near-parallel vertex pair solves it again, so a
    # valid pair gives the same values, a degenerate one the same error,
    # after the same steps
    near = HPolygon([[1.0, 0.0], [1.0, 1.5e-12], [-1.0, 1.0], [-1.0, -1.0]],
                    [1.0, 1.0, 1.0, 1.0])
    P = HPolygon([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [2.0, 1.0, 0.5, 1.5])
    L = np.array([[1.0, 0.0], [1.0, 1e-14], [0.0, -1.0], [-0.6, 0.8]])

    def yielded(supports):
        out = []
        try:
            for v in supports:
                out.append(v.tobytes())
        except EngineError as exc:
            out.append((type(exc), str(exc)))
        return out

    for steps in ([P, near, P], [P, near, DEGENERATE, P]):
        hand = SetTube(0.1, "discrete", BlockStructure(2), [0], [{0: X} for X in steps])
        want = yielded(ReachTube.supports(hand, L))
        assert yielded(hand.supports(L)) == want
    assert len(want) == 3 and want[2][0] is DegeneratePolygonError
