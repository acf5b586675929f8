"""Support-function arithmetic on concrete sets and lazy combinators.

Expected values are either closed-form (boxes, balls, singletons) or
checked against the combinator's defining formula evaluated directly on
the operands.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from conftest import random_ball, random_box, random_set, random_singleton
from reachdec import (
    BallP,
    CartesianProduct,
    ConvexHullPair,
    DimensionError,
    Hyperrectangle,
    InvalidSetError,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Scaled,
    Singleton,
    UnboundedSetError,
    minkowski_sum_all,
    support_function,
    support_vector,
    symmetric_interval_hull,
    zero_set,
)
from reachdec import sets
from reachdec.approx import overapproximate_box, overapproximate_eps


# ----------------------------------------------------------------------
# concrete sets
# ----------------------------------------------------------------------

def test_box_support_closed_form():
    b = Hyperrectangle([1.0, -2.0], [0.5, 3.0])
    assert b.support_function([1.0, 0.0]) == 1.5
    assert b.support_function([0.0, -1.0]) == 2.0 + 3.0
    assert b.support_function([2.0, 1.0]) == 2 * 1.5 + 1.0
    npt.assert_allclose(b.support_vector([1.0, 1.0]), [1.5, 1.0])
    npt.assert_allclose(b.low, [0.5, -5.0])
    npt.assert_allclose(b.high, [1.5, 1.0])


def test_box_from_bounds_roundtrip():
    b = Hyperrectangle.from_bounds([-1.0, 2.0], [3.0, 2.5])
    npt.assert_allclose(b.center, [1.0, 2.25])
    npt.assert_allclose(b.radius, [2.0, 0.25])
    with pytest.raises(InvalidSetError):
        Hyperrectangle.from_bounds([1.0], [0.0])
    with pytest.raises(InvalidSetError):
        Hyperrectangle([0.0], [-0.1])


def test_ball_supports_match_dual_norms():
    # rho of a p-ball is l . c + r * ||l||_q with 1/p + 1/q = 1
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        c = rng.uniform(-2, 2, dim)
        r = rng.uniform(0.1, 2.0)
        l = rng.standard_normal(dim)
        for p, q in [(2.0, 2.0), (np.inf, 1.0), (1.0, np.inf)]:
            ball = BallP(c, r, p)
            expect = float(l @ c) + r * np.linalg.norm(l, ord=q)
            npt.assert_allclose(ball.support_function(l), expect, rtol=1e-12)


def test_ball_support_vectors_attain_support():
    rng = np.random.default_rng(4)
    for p in (1.0, 2.0, np.inf):
        for _ in range(30):
            ball = random_ball(rng, int(rng.integers(1, 5)), p)
            l = rng.standard_normal(ball.dim)
            s = ball.support_vector(l)
            npt.assert_allclose(l @ s, ball.support_function(l), rtol=1e-10,
                                atol=1e-12)
            # the maximizer must lie in the ball
            assert np.linalg.norm(s - ball.center, ord=p) <= ball.radius + 1e-9


def test_ball_rejects_unsupported_exponent():
    with pytest.raises(InvalidSetError):
        BallP([0.0], 1.0, 3.0)


def test_singleton_and_zero_set():
    s = Singleton([2.0, -1.0])
    assert s.support_function([3.0, 1.0]) == 5.0
    npt.assert_allclose(s.support_vector([0.0, 1.0]), [2.0, -1.0])
    z = zero_set(3)
    assert z.support_function([1.0, -2.0, 5.0]) == 0.0


def test_dimension_mismatch_rejected():
    b = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        b.support_function([1.0, 0.0, 0.0])


def test_batch_matches_row_loop():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        X = random_set(rng, dim)
        L = rng.standard_normal((7, dim))
        batch = X.support_batch(L)
        rows = np.array([X.support_function(l) for l in L])
        npt.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# the five combinator identities
# ----------------------------------------------------------------------

def test_scaling_identity():
    # rho_{a X}(l) = rho_X(a l)
    rng = np.random.default_rng(10)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        X = random_set(rng, dim)
        a = float(rng.uniform(-3, 3))
        l = rng.standard_normal(dim)
        got = Scaled(a, X).support_function(l)
        expect = X.support_function(a * l)
        npt.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)


def test_linear_map_identity():
    # rho_{M X}(l) = rho_X(M^T l), sigma_{M X}(l) = M sigma_X(M^T l)
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        out = int(rng.integers(1, 4))
        X = random_set(rng, dim)
        M = rng.standard_normal((out, dim))
        l = rng.standard_normal(out)
        mapped = LinearMap(M, X)
        npt.assert_allclose(mapped.support_function(l),
                            X.support_function(M.T @ l),
                            rtol=1e-9, atol=1e-12)
        npt.assert_allclose(mapped.support_vector(l),
                            M @ X.support_vector(M.T @ l),
                            rtol=1e-9, atol=1e-12)


def test_sparse_linear_map_batch_is_bitwise_l_times_m():
    # the kept transpose maps a batch as scipy maps L @ M itself
    rng = np.random.default_rng(21)
    for _ in range(50):
        rows, cols = (int(d) for d in rng.integers(1, 12, size=2))
        M = rng.standard_normal((rows, cols))
        M[rng.random((rows, cols)) < 0.6] = 0.0
        M = sp.csr_array(M)
        X = random_box(rng, cols)
        L = rng.standard_normal((int(rng.integers(1, 9)), rows))
        npt.assert_array_equal(LinearMap(M, X).support_batch(L),
                               X.support_batch(np.asarray(L @ M)))


def test_minkowski_sum_identity():
    # rho_{X + Y}(l) = rho_X(l) + rho_Y(l)
    rng = np.random.default_rng(12)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        X, Y = random_set(rng, dim), random_set(rng, dim)
        l = rng.standard_normal(dim)
        got = MinkowskiSum(X, Y).support_function(l)
        npt.assert_allclose(got, X.support_function(l) + Y.support_function(l),
                            rtol=1e-9, atol=1e-12)


def test_cartesian_product_identity():
    # rho_{X x Y}((l1, l2)) = rho_X(l1) + rho_Y(l2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        dims = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        parts = [random_set(rng, d) for d in dims]
        l = rng.standard_normal(sum(dims))
        got = CartesianProduct(parts).support_function(l)
        expect, at = 0.0, 0
        for part in parts:
            expect += part.support_function(l[at:at + part.dim])
            at += part.dim
        npt.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)


def test_convex_hull_identity():
    # rho_{CH(X u Y)}(l) = max(rho_X(l), rho_Y(l))
    rng = np.random.default_rng(14)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        X, Y = random_set(rng, dim), random_set(rng, dim)
        l = rng.standard_normal(dim)
        got = ConvexHullPair(X, Y).support_function(l)
        expect = max(X.support_function(l), Y.support_function(l))
        npt.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)


def test_nested_lazy_trees_stay_consistent():
    """Deep combinations evaluate to the same number as the flattened
    closed-form expression."""
    rng = np.random.default_rng(15)
    for _ in range(30):
        X = random_box(rng, 2)
        Y = random_ball(rng, 2)
        M = rng.standard_normal((2, 2))
        a = float(rng.uniform(0.5, 2.0))
        l = rng.standard_normal(2)
        tree = MinkowskiSum(LinearMap(M, X), Scaled(a, Y))
        expect = X.support_function(M.T @ l) + Y.support_function(a * l)
        npt.assert_allclose(tree.support_function(l), expect, rtol=1e-10)
        s = tree.support_vector(l)
        npt.assert_allclose(l @ s, tree.support_function(l), rtol=1e-10)


@pytest.mark.parametrize("sparse", [False, True])
def test_support_pair_is_bitwise_value_and_vector(sparse):
    """One walk for (rho, sigma) answers as the two separate queries do,
    bitwise, on trees of every combinator over every concrete kind."""
    rng = np.random.default_rng(20)

    def matrix():
        M = rng.standard_normal((2, 2))
        M[rng.random((2, 2)) < 0.3] = 0.0
        return sp.csr_array(M) if sparse else M

    for _ in range(40):
        A, B = random_set(rng, 2), random_set(rng, 2)
        trees = [A, LinearMap(matrix(), A), Scaled(-0.7, B),
                 MinkowskiSum(A, LinearMap(matrix(), B)),
                 ConvexHullPair(LinearMap(matrix(), A), Scaled(1.5, B)),
                 LinearMap(rng.standard_normal((2, 4)), CartesianProduct([A, B]))]
        for X in trees:
            for l in [rng.standard_normal(2), np.zeros(2), np.array([1.0, 0.0])]:
                rho, sigma = X.support_pair(l)
                assert rho == X.support_function(l)
                npt.assert_array_equal(sigma, X.support_vector(l))


class PairWalkDisc(LazySet):
    """The unit disc about (0.5, -2), given by its one-direction walk alone."""

    dim = 2
    center = np.array([0.5, -2.0])

    def _rho_sigma(self, l):
        nrm = np.hypot(l[0], l[1])
        return l @ self.center + nrm, self.center + (l / nrm if nrm else 0.0)


class BatchWalkBox(LazySet):
    """The box about (0.5, -2) of radii (1, 0.25), given by its batch walk
    alone."""

    dim = 2
    center, radius = np.array([0.5, -2.0]), np.array([1.0, 0.25])

    def _rho_batch(self, F):
        L = F.rows
        return L @ self.center + np.abs(L) @ self.radius


def test_a_set_with_only_the_pair_walk_answers_every_query():
    X = PairWalkDisc()
    rng = np.random.default_rng(3)
    for l in [*rng.standard_normal((5, 2)), np.zeros(2), np.array([0.0, -1.0])]:
        rho, sigma = X._rho_sigma(l)
        assert X.support_function(l) == rho
        npt.assert_array_equal(X.support_vector(l), sigma)
        pair = X.support_pair(l)
        assert pair[0] == rho
        npt.assert_array_equal(pair[1], sigma)
    L = rng.standard_normal((6, 2))
    npt.assert_array_equal(X.support_batch(L), [X._rho_sigma(l)[0] for l in L])
    box = overapproximate_box(X)
    npt.assert_allclose(box.center, X.center, atol=1e-15)
    npt.assert_allclose(box.radius, [1.0, 1.0])
    eps = 1e-3
    P = overapproximate_eps(X, eps)
    U = rng.standard_normal((50, 2))
    U /= np.linalg.norm(U, axis=1)[:, None]
    gap = P.support_batch(U) - X.support_batch(U)
    assert gap.min() >= -1e-12 and gap.max() <= eps


def test_a_set_with_only_the_batch_walk_answers_batches_and_hulls():
    X = BatchWalkBox()
    L = np.array([[1.0, 0.0], [-1.0, 2.0], [0.0, 0.0]])
    npt.assert_array_equal(X.support_batch(L), [1.5, -3.0, 0.0])
    hull = symmetric_interval_hull(X)
    npt.assert_array_equal(hull.center, [0.0, 0.0])
    npt.assert_array_equal(hull.radius, [1.5, 2.25])


def test_sets_answer_through_three_walks_and_no_others():
    # every set answers through `_rho_sigma`, `_rho_batch` and
    # `_axis_supports`, and the public queries read only these
    exported = [getattr(sets, name) for name in sets.__all__]
    classes = [c for c in exported if isinstance(c, type) and issubclass(c, LazySet)]
    assert len(classes) >= 11
    for cls in classes:
        walks = {name for name in dir(cls) if name.startswith("_rho_")}
        assert walks == {"_rho_sigma", "_rho_batch"}, cls.__name__
    queries = {name for name in dir(LazySet) if name.startswith("support_")}
    assert queries == {"support_function", "support_vector", "support_pair",
                       "support_batch"}


def reference_sigma(X, l):
    """A support vector of a combinator tree from each combinator's
    definition, down to the support vectors of the leaves."""
    if isinstance(X, LinearMap):       # M sigma(M^T l)
        M = X.matrix
        inner = reference_sigma(X.operand, np.asarray(M.T @ l, dtype=float))
        return np.asarray(M @ inner, dtype=float)
    if isinstance(X, Scaled):          # f sigma(f l)
        return X.factor * reference_sigma(X.operand, X.factor * l)
    if isinstance(X, MinkowskiSum):
        return reference_sigma(X.left, l) + reference_sigma(X.right, l)
    if isinstance(X, CartesianProduct):
        ends = np.cumsum([p.dim for p in X.parts])
        return np.concatenate([reference_sigma(p, l[e - p.dim:e])
                               for p, e in zip(X.parts, ends)])
    if isinstance(X, ConvexHullPair):  # the larger support; the left on ties
        if X.left.support_function(l) >= X.right.support_function(l):
            return reference_sigma(X.left, l)
        return reference_sigma(X.right, l)
    return X.support_vector(l)


@pytest.mark.parametrize("sparse", [False, True])
def test_support_vector_is_bitwise_the_combinator_definitions(sparse):
    """The trees and directions of the support-pair test: the support
    vector of the one walk is, bit for bit, the one each combinator's
    definition gives."""
    rng = np.random.default_rng(20)

    def matrix():
        M = rng.standard_normal((2, 2))
        M[rng.random((2, 2)) < 0.3] = 0.0
        return sp.csr_array(M) if sparse else M

    for _ in range(40):
        A, B = random_set(rng, 2), random_set(rng, 2)
        trees = [A, LinearMap(matrix(), A), Scaled(-0.7, B),
                 MinkowskiSum(A, LinearMap(matrix(), B)),
                 ConvexHullPair(LinearMap(matrix(), A), Scaled(1.5, B)),
                 LinearMap(rng.standard_normal((2, 4)), CartesianProduct([A, B]))]
        for X in trees:
            for l in [rng.standard_normal(2), np.zeros(2), np.array([1.0, 0.0])]:
                got, want = X.support_vector(l), reference_sigma(X, l)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_minkowski_sum_all_matches_pairwise():
    rng = np.random.default_rng(16)
    for count in (1, 2, 3, 7):
        parts = [random_set(rng, 2) for _ in range(count)]
        l = rng.standard_normal(2)
        got = minkowski_sum_all(parts).support_function(l)
        expect = sum(p.support_function(l) for p in parts)
        npt.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)
    with pytest.raises(InvalidSetError):
        minkowski_sum_all([])


def test_support_helpers_dispatch():
    b = Hyperrectangle([0.0], [2.0])
    assert support_function(b, [1.0]) == 2.0
    npt.assert_allclose(support_vector(b, [-1.0]), [-2.0])


def test_unit_box_and_rotated_segment():
    unit = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    assert unit.support_function([1.0, 1.0]) == 2.0
    assert MinkowskiSum(unit, unit).support_function([1.0, 0.0]) == 2.0
    # quarter-turn of the segment [-1, 1] x {0} points along y
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    seg = Hyperrectangle([0.0, 0.0], [1.0, 0.0])
    turned = LinearMap(R, seg)
    npt.assert_allclose(turned.support_function([0.0, 1.0]), 1.0)
    # brute force over the discretized segment agrees
    xs = np.linspace(-1.0, 1.0, 2001)
    pts = R @ np.vstack([xs, np.zeros_like(xs)])
    assert abs(turned.support_function([0.0, 1.0]) - pts[1].max()) < 1e-9


def test_product_support_vector_hits_vertex():
    prod = CartesianProduct([Hyperrectangle([0.0], [1.0]),
                             Hyperrectangle([1.0], [1.0])])
    npt.assert_allclose(prod.support_vector([1.0, 1.0]), [1.0, 2.0])


# ----------------------------------------------------------------------
# symmetric interval hull
# ----------------------------------------------------------------------

def test_symmetric_hull_of_box():
    b = Hyperrectangle([1.0, 0.0], [1.0, 1.0])
    h = symmetric_interval_hull(b)
    npt.assert_allclose(h.center, [0.0, 0.0])
    npt.assert_allclose(h.radius, [2.0, 1.0])


def test_symmetric_hull_of_shifted_sum():
    s = MinkowskiSum(Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                     Singleton([1.0, 1.0]))
    npt.assert_allclose(symmetric_interval_hull(s).radius, [2.0, 2.0])


def test_symmetric_hull_general_set():
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        X = random_set(rng, dim)
        h = symmetric_interval_hull(X)
        npt.assert_allclose(h.center, np.zeros(dim))
        eye = np.eye(dim)
        expect = np.maximum(X.support_batch(eye), X.support_batch(-eye))
        npt.assert_allclose(h.radius, expect, rtol=1e-12)


def test_symmetric_hull_of_singleton():
    h = symmetric_interval_hull(Singleton([-2.0, 3.0]))
    npt.assert_allclose(h.radius, [2.0, 3.0])


def test_symmetric_hull_of_linear_map_of_box_or_point():
    # closed form |M c| + |M| r against the support-function route
    rng = np.random.default_rng(18)
    for sparse in (False, True):
        for _ in range(10):
            rows, cols = (int(d) for d in rng.integers(1, 9, size=2))
            M = rng.standard_normal((rows, cols))
            M[rng.random((rows, cols)) < 0.5] = 0.0
            if sparse:
                M = sp.csr_array(M)
            for Y in (random_box(rng, cols), random_singleton(rng, cols)):
                X = LinearMap(M, Y)
                eye = np.eye(rows)
                expect = np.maximum(X.support_batch(eye), X.support_batch(-eye))
                h = symmetric_interval_hull(X)
                npt.assert_array_equal(h.center, np.zeros(rows))
                npt.assert_allclose(h.radius, expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_symmetric_hull_of_mapped_ball_and_nested_maps(sparse, monkeypatch):
    # closed forms |M c| + r ||M_i||_dual for a ball, and nested maps
    # composed first, against the support-function route
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(12):
        rows, mid, cols = (int(d) for d in rng.integers(1, 9, size=3))
        M, N = rng.standard_normal((rows, mid)), rng.standard_normal((mid, cols))
        M[rng.random((rows, mid)) < 0.5] = 0.0
        N[rng.random((mid, cols)) < 0.5] = 0.0
        if sparse:
            M, N = sp.csr_array(M), sp.csr_array(N)
        for Y in (random_ball(rng, cols, p) for p in (1.0, 2.0, np.inf)):
            cases += [LinearMap(N, Y), LinearMap(M, LinearMap(N, Y))]
        for Y in (random_box(rng, cols), random_singleton(rng, cols)):
            cases.append(LinearMap(M, LinearMap(N, Y)))
    expect = [np.maximum(X.support_batch(np.eye(X.dim)),
                         X.support_batch(-np.eye(X.dim))) for X in cases]

    def no_batches(self, L):
        raise AssertionError("the closed form must not build a direction batch")

    for cls in (BallP, Hyperrectangle, Singleton, LinearMap):
        monkeypatch.setattr(cls, "_rho_batch", no_batches)
    for X, want in zip(cases, expect):
        h = symmetric_interval_hull(X)
        npt.assert_array_equal(h.center, np.zeros(X.dim))
        npt.assert_allclose(h.radius, want, rtol=1e-12, atol=1e-12)


def test_symmetric_hull_rejects_unbounded():
    # no concrete type here is unbounded, so emulate one through the
    # generic support interface
    class Unbounded(LazySet):
        dim = 2

        def _rho_batch(self, F):
            return np.full(len(F.rows), np.inf)

    with pytest.raises(UnboundedSetError):
        symmetric_interval_hull(Unbounded())


def test_scaled_zero_and_negative():
    b = Hyperrectangle([1.0], [2.0])
    assert Scaled(0.0, b).support_function([1.0]) == 0.0
    # -1 * [−1, 3] = [−3, 1]
    s = Scaled(-1.0, b)
    assert s.support_function([1.0]) == 1.0
    assert s.support_function([-1.0]) == 3.0


def test_immutability_of_stored_arrays():
    b = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        b.center[0] = 5.0
