"""The sum of vertex images of decomposed blocks (`VertexImageSum`)
against the lazy map of their product, and the scaling of the ε-close
engine that uses it."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from conftest import random_polygon
from reachdec import (
    BallP,
    BlockStructure,
    CartesianProduct,
    DegeneratePolygonError,
    DiscreteSystem,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    LinearMap,
    Singleton,
    reach_decomposed,
)
from reachdec.sets import VertexImageSum, _Matrix, vertex_table


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
                 [1.0, 1.0, 1.0, 1.0], check_feasible=False)
    with pytest.raises(DegeneratePolygonError):
        vertex_table([Singleton(np.zeros(2)), P])
    with pytest.raises(DegeneratePolygonError):
        VertexImageSum.of_maps([(np.eye(2), P)])


def test_eps_step_queries_do_not_grow_with_the_dimension(monkeypatch):
    # one tracked block of a block-diagonal system: the polygon searches of
    # a run are the same at every n, since the untracked blocks of X0 are
    # read through their vertex images, not searched
    calls = []
    search = HPolygon._search

    def counted(self, x, y):
        calls.append(1)
        return search(self, x, y)

    monkeypatch.setattr(HPolygon, "_search", counted)
    R = np.array([[0.99, -0.05], [0.05, 0.99]])
    counts = []
    for n in (8, 32):
        sys = DiscreteSystem(np.kron(np.eye(n // 2), R),
                             BallP(np.ones(n), 0.3, 2),
                             Hyperrectangle(np.zeros(n), np.full(n, 0.01)), 0.1)
        calls.clear()
        tube = reach_decomposed(sys, 20, tracked=[0], scheme=EpsilonClose(0.01))
        assert isinstance(tube.set_at(19, 0), HPolygon)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
