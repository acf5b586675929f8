"""Box / epsilon-close overapproximation and blockwise decomposition."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from conftest import (
    random_ball,
    random_box,
    random_polygon,
    random_set,
    random_singleton,
    spanning_angles,
)
from reachdec import (
    ApproximationError,
    BallP,
    BlockStructure,
    BoxDirections,
    CartesianProduct,
    ConvexHullPair,
    DimensionError,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    InvalidSetError,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Scaled,
    Singleton,
    UnboundedSetError,
    approximate,
    decompose,
    overapproximate_box,
    overapproximate_eps,
)
from reachdec import sets


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def product_support(parts, l):
    out, at = 0.0, 0
    for p in parts:
        out += p.support_function(l[at:at + p.dim])
        at += p.dim
    return out


# ----------------------------------------------------------------------
# block structure
# ----------------------------------------------------------------------

def test_block_structure_partition():
    for n in range(1, 12):
        bs = BlockStructure(n)
        assert bs.b == (n + 1) // 2
        covered = []
        for i in range(bs.b):
            s = bs.slice(i)
            assert s.stop - s.start == bs.size(i)
            assert bs.size(i) in (1, 2)
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(n))
        npt.assert_array_equal(bs.coords(range(bs.b)), np.arange(n))
        if n % 2 == 1:
            assert bs.size(bs.b - 1) == 1
        for coord in range(n):
            i = bs.block_of(coord)
            assert type(i) is int
            assert bs.slice(i).start <= coord < bs.slice(i).stop
        npt.assert_array_equal(bs.block_of(np.arange(n)),
                               [bs.block_of(c) for c in range(n)])


def test_block_structure_coords_keep_the_block_order():
    bs = BlockStructure(7)
    npt.assert_array_equal(bs.coords([3, 0, 2]), [6, 0, 1, 4, 5])
    npt.assert_array_equal(bs.coords([1]), [2, 3])
    assert bs.coords([]).size == 0


def test_block_structure_projections():
    bs = BlockStructure(5)
    x = np.arange(5.0)
    npt.assert_array_equal(bs.projection_matrix(0) @ x, [0.0, 1.0])
    npt.assert_array_equal(bs.projection_matrix(1) @ x, [2.0, 3.0])
    npt.assert_array_equal(bs.projection_matrix(2) @ x, [4.0])


def test_block_structure_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        BlockStructure(0)
    with pytest.raises(DimensionError):
        BlockStructure(4).block_of(4)
    with pytest.raises(DimensionError, match="coordinate -1 out of range"):
        BlockStructure(4).block_of(np.array([0, -1, 5]))


# ----------------------------------------------------------------------
# box overapproximation
# ----------------------------------------------------------------------

def test_box_of_rotated_square():
    square = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    B = overapproximate_box(LinearMap(rotation(np.pi / 4), square))
    # oracle: maximize coordinates over the four rotated corners
    corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)])
    rotated = corners @ rotation(np.pi / 4).T
    npt.assert_allclose(B.center, 0.0, atol=1e-12)
    npt.assert_allclose(B.radius, np.abs(rotated).max(axis=0), rtol=1e-12)
    npt.assert_allclose(B.radius, np.sqrt(2.0), rtol=1e-12)


def test_box_is_fixed_point_on_boxes():
    rng = np.random.default_rng(40)
    for _ in range(20):
        X = random_box(rng, int(rng.integers(1, 6)))
        B = overapproximate_box(X)
        npt.assert_array_equal(B.center, X.center)
        npt.assert_array_equal(B.radius, X.radius)


def test_box_of_minkowski_sum_adds_radii():
    X = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    Y = Hyperrectangle([0.0, 0.0], [2.0, 0.0])
    B = overapproximate_box(MinkowskiSum(X, Y))
    npt.assert_allclose(B.center, [0.0, 0.0], atol=1e-12)
    npt.assert_allclose(B.radius, [3.0, 1.0], rtol=1e-12)


def test_box_contains_and_touches():
    rng = np.random.default_rng(41)
    for _ in range(40):
        X = random_set(rng, 2)
        B = overapproximate_box(X)
        L = rng.standard_normal((50, 2))
        assert np.all(X.support_batch(L) <= B.support_batch(L) + 1e-9)
        # tight in the four axis directions
        E = np.vstack([np.eye(2), -np.eye(2)])
        npt.assert_allclose(B.support_batch(E), X.support_batch(E),
                            rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# epsilon-close overapproximation
# ----------------------------------------------------------------------

def test_eps_close_on_disc():
    P = overapproximate_eps(BallP([0.0, 0.0], 1.0, 2), 0.01)
    rng = np.random.default_rng(42)
    L = rng.standard_normal((1000, 2))
    L /= np.linalg.norm(L, axis=1, keepdims=True)
    vals = P.support_batch(L)
    assert np.all(vals >= 1.0 - 1e-9)
    assert np.all(vals <= 1.01 + 1e-9)


def test_eps_close_keeps_polygon_supports():
    rng = np.random.default_rng(43)
    for _ in range(10):
        X = random_polygon(rng, 4, 12)
        eps = rng.uniform(1e-3, 0.5)
        P = overapproximate_eps(X, eps)
        vals_in = X.support_batch(X.normals)
        vals_out = P.support_batch(X.normals)
        assert np.all(vals_out >= vals_in - 1e-9)
        assert np.all(vals_out <= vals_in + eps + 1e-9)


def test_eps_close_on_rotated_square():
    square = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    X = LinearMap(rotation(0.3), square)
    P = overapproximate_eps(X, 1e-3)
    assert len(P.offsets) >= 4
    corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)])
    verts = corners @ rotation(0.3).T
    ang = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    L = np.column_stack([np.cos(ang), np.sin(ang)])
    oracle = (L @ verts.T).max(axis=1)
    diff = P.support_batch(L) - oracle
    assert diff.min() >= -1e-9          # outer approximation
    assert diff.max() <= 1e-3 + 1e-9    # within the requested accuracy


def test_eps_close_accuracy_on_random_sets():
    rng = np.random.default_rng(44)
    ang = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    L = np.column_stack([np.cos(ang), np.sin(ang)])
    for _ in range(15):
        X = random_set(rng, 2)
        eps = rng.uniform(5e-3, 0.3)
        P = overapproximate_eps(X, eps)
        diff = P.support_batch(L) - X.support_batch(L)
        assert diff.min() >= -1e-9
        assert diff.max() <= eps + 1e-9


def test_eps_close_budget_exhaustion():
    with pytest.raises(ApproximationError):
        overapproximate_eps(BallP([0.0, 0.0], 1.0, 2), 1e-12,
                            max_constraints=8)


def test_eps_close_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        overapproximate_eps(random_box(np.random.default_rng(0), 3), 0.1)
    with pytest.raises(InvalidSetError):
        overapproximate_eps(Hyperrectangle([0.0, 0.0], [1.0, 1.0]), 0.0)
    with pytest.raises(InvalidSetError):
        EpsilonClose(-0.5)


def _reference_local_gap(d1, r1, s1, d2, r2, s2):
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(det) < 1e-12:
        return 0.0
    corner = np.array([(d2[1] * r1 - d1[1] * r2) / det,
                       (d1[0] * r2 - d2[0] * r1) / det])
    chord = s2 - s1
    cc = chord @ chord
    if cc == 0.0:
        return float(np.linalg.norm(corner - s1))
    t = np.clip((corner - s1) @ chord / cc, 0.0, 1.0)
    return float(np.linalg.norm(corner - (s1 + t * chord)))


def reference_eps(X, eps, max_constraints=10_000):
    """The sandwich refinement written on numpy 2-vectors throughout: the
    reference the float kernel of `overapproximate_eps` must reproduce."""
    def entry(d):
        return (d, *X.support_pair(d))

    start = [entry(np.array(d)) for d in
             [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]]
    budget = [max_constraints - 4]

    def refine(e1, e2):
        gap = _reference_local_gap(*e1, *e2)
        if gap <= eps:
            return []
        if budget[0] <= 0:
            raise ApproximationError("reference: constraint budget exhausted")
        d = e1[0] + e2[0]
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            return []
        d = d / nrm
        if d @ e1[0] >= 1.0 - 1e-15 or d @ e2[0] >= 1.0 - 1e-15:
            return []
        budget[0] -= 1
        em = entry(d)
        return refine(e1, em) + [em] + refine(em, e2)

    entries = []
    for i in range(4):
        e1, e2 = start[i], start[(i + 1) % 4]
        entries.append(e1)
        entries.extend(refine(e1, e2))
    normals = np.array([e[0] for e in entries])
    offsets = np.array([e[1] for e in entries])
    if not np.all(np.isfinite(offsets)):
        raise UnboundedSetError("reference: non-finite support value")
    return HPolygon(normals, offsets, check_feasible=False)


def planar_sets(rng):
    """2D sets of every kind that ε-close refinement meets."""
    def leaf():
        kind = int(rng.integers(6))
        if kind == 0:
            return random_box(rng, 2)
        if kind == 1:
            return random_ball(rng, 2, float(rng.choice([1.0, 2.0, np.inf])))
        if kind == 2:
            return random_singleton(rng, 2)
        if kind == 3:   # a zero-width segment, axis-aligned or rotated
            seg = Hyperrectangle(rng.uniform(-2, 2, 2),
                                 rng.permutation([rng.uniform(0.1, 2.0), 0.0]))
            return seg if rng.random() < 0.5 else LinearMap(
                rotation(rng.uniform(0, np.pi)), seg)
        if kind == 4:
            return random_polygon(rng, 3, 12)
        return polygon_product(rng, 2)

    out = []
    for _ in range(6):
        A, B = leaf(), leaf()
        u = rng.standard_normal((2, 1))
        singular = u @ rng.standard_normal((1, 2))
        n = int(rng.integers(3, 9))
        mixed = CartesianProduct([leaf() for _ in range(n // 2)]
                                 + [random_box(rng, 1)] * (n % 2))
        out += [A, LinearMap(singular, A), MinkowskiSum(A, B),
                ConvexHullPair(A, B), Scaled(float(rng.uniform(-3, 3)), A),
                LinearMap(rng.standard_normal((2, n)), polygon_product(rng, n)),
                LinearMap(rng.standard_normal((2, n)), mixed)]
    return out


def counting_rho_sigma(X):
    """Count the `_rho_sigma` queries that reach X itself."""
    calls = [0]
    inner = X._rho_sigma

    def counted(l):
        calls[0] += 1
        return inner(l)

    X._rho_sigma = counted
    return calls


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_eps_close_is_bitwise_the_array_refinement(eps):
    rng = np.random.default_rng(int(-np.log10(eps)) + 70)
    for X in planar_sets(rng):
        calls = counting_rho_sigma(X)
        want = reference_eps(X, eps)
        want_calls, calls[0] = calls[0], 0
        got = overapproximate_eps(X, eps)
        assert calls[0] == want_calls
        assert got.normals.tobytes() == want.normals.tobytes()
        assert got.offsets.tobytes() == want.offsets.tobytes()


def test_eps_close_budget_is_the_array_refinement():
    # the budget counts the four axis constraints: splits + 4 constraints
    # are just enough, one fewer runs out in the reference and the kernel
    rng = np.random.default_rng(75)
    for X in planar_sets(rng):
        calls = counting_rho_sigma(X)
        want = reference_eps(X, 1e-4)
        splits = calls[0] - 4
        got = overapproximate_eps(X, 1e-4, max_constraints=splits + 4)
        assert got.offsets.tobytes() == want.offsets.tobytes()
        for budget in {5, splits + 3} if splits > 1 else ():
            with pytest.raises(ApproximationError):
                reference_eps(X, 1e-4, max_constraints=budget)
            with pytest.raises(ApproximationError, match="budget"):
                overapproximate_eps(X, 1e-4, max_constraints=budget)


def support_route_box(X):
    """The box of X from support queries in +-e_i, as (center, radius)."""
    n = X.dim
    vals = X.support_batch(np.vstack([np.eye(n), -np.eye(n)]))
    hi, lo = vals[:n], -vals[n:]
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def random_matrix(rng, rows, cols, sparse):
    M = rng.standard_normal((rows, cols))
    M[rng.random((rows, cols)) < 0.5] = 0.0
    return sp.csr_array(M) if sparse else M


def closed_form_sets(rng, sparse):
    """Every expression kind that `overapproximate_box` has a closed form
    for, on boxes, points and balls, under dense or CSR maps."""
    out = []
    for n in (1, 2, 3, 5, 6, 8):
        def leaf(dim=n):
            kind = rng.integers(3)
            if kind == 0:
                return random_box(rng, dim)
            if kind == 1:
                return random_singleton(rng, dim)
            return random_ball(rng, dim, float(rng.choice([1.0, 2.0, np.inf])))

        def mapped(X, rows=n):
            return LinearMap(random_matrix(rng, rows, X.dim, sparse), X)

        A, B = leaf(), leaf()
        k = int(rng.integers(1, n + 1))
        split = CartesianProduct([leaf(k), leaf(n - k)] if k < n else [leaf()])
        out += [A, B, Scaled(-1.5, A), Scaled(0.0, B), MinkowskiSum(A, B),
                ConvexHullPair(A, B), split,
                CartesianProduct([A, B, Singleton([1.0])]),
                mapped(A), mapped(mapped(A)), mapped(mapped(mapped(B), 3)),
                mapped(MinkowskiSum(A, Scaled(0.5, B))),
                mapped(Scaled(-2.0, mapped(A))),
                mapped(ConvexHullPair(mapped(A), B)),
                mapped(CartesianProduct([A, B]), 4),
                Scaled(3.0, mapped(split)),
                ConvexHullPair(A, MinkowskiSum(mapped(B), Scaled(0.1, A)))]
    return out


@pytest.mark.parametrize("sparse", [False, True])
def test_box_closed_forms_match_support_route(sparse, monkeypatch):
    rng = np.random.default_rng(60 + sparse)
    cases = closed_form_sets(rng, sparse)
    expect = [support_route_box(X) for X in cases]

    def no_batches(self, L):
        raise AssertionError("the closed form must not query supports")

    def no_dense_rows(T, n):
        raise AssertionError("the closed form must not read dense rows")

    for cls in (LazySet, Hyperrectangle, BallP, Singleton, HPolygon, LinearMap,
                Scaled, MinkowskiSum, CartesianProduct, ConvexHullPair):
        monkeypatch.setattr(cls, "_rho_batch", no_batches)
    monkeypatch.setattr(sets, "_transform_row_chunks", no_dense_rows)
    for X, (c, r) in zip(cases, expect):
        box = overapproximate_box(X)
        scale = 1.0 + np.max(np.abs(c) + r)
        npt.assert_allclose(box.center, c, rtol=1e-12, atol=1e-12 * scale)
        npt.assert_allclose(box.radius, r, rtol=1e-12, atol=1e-12 * scale)


def polygon_product(rng, n):
    """One random polygon per 2D block, an interval for an odd last one."""
    parts = []
    bs = BlockStructure(n)
    for i in range(bs.b):
        center = rng.uniform(-1.0, 1.0, bs.size(i))
        if bs.size(i) == 1:
            parts.append(Hyperrectangle(center, [0.5]))
            continue
        angles = spanning_angles(rng, int(rng.integers(3, 9)))
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        parts.append(HPolygon(normals, normals @ center
                              + rng.uniform(0.1, 1.0, len(angles))))
    return CartesianProduct(parts)


@pytest.mark.parametrize("sparse", [False, True])
def test_box_of_mapped_polygons_matches_support_route(sparse):
    # no closed form below the map: the polygons are asked on the rows of +-M
    rng = np.random.default_rng(62)
    for n in (1, 2, 5, 8):
        P = polygon_product(rng, n)
        Y = MinkowskiSum(P, random_box(rng, n))
        for X in (P, LinearMap(random_matrix(rng, n + 1, n, sparse), P),
                  LinearMap(random_matrix(rng, 3, n, sparse),
                            ConvexHullPair(Y, Scaled(-1.0, P)))):
            c, r = support_route_box(X)
            box = overapproximate_box(X)
            npt.assert_allclose(box.center, c, rtol=1e-12, atol=1e-12)
            npt.assert_allclose(box.radius, r, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("X", [
    Scaled(1e300, Hyperrectangle([1e300, 0.0], [1.0, 1.0])),
    LinearMap([[1e308, 1e308]], Singleton([1e308, 1e308])),
    MinkowskiSum(BallP([1.7e308], 1.7e308, 2), Singleton([1.0])),
])
def test_box_closed_form_rejects_non_finite(X):
    with pytest.raises(UnboundedSetError) as info:
        overapproximate_box(X)
    assert info.value.tag() == "error:approx:unbounded-set"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("center, radius", [
    ([1e308, 1e308], [1e308, 1e308]),
    ([1e308, 0.0], [1e308, 1.0]),   # the first entry: rho = 1, sigma = (inf, -1)
])
def test_eps_close_of_an_overflowing_set_stops_at_once(center, radius):
    X = Hyperrectangle(center, radius)
    calls = counting_rho_sigma(X)
    with pytest.raises(UnboundedSetError) as info:
        overapproximate_eps(X, 1e-2)
    assert info.value.tag() == "error:approx:unbounded-set"
    assert calls[0] <= 4


def test_box_fallback_of_large_mapped_polygons_is_chunked():
    # a dense 2n x n direction matrix at n = 2000 takes 64 MB
    rng = np.random.default_rng(64)
    n = 2000
    M = sp.random_array((n, n), density=2e-3, random_state=rng, format="csr")
    X = LinearMap(M, polygon_product(rng, n))
    tracemalloc.start()
    try:
        box = overapproximate_box(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    rows = rng.choice(n, 5, replace=False)
    E = np.zeros((5, n))
    E[np.arange(5), rows] = 1.0
    npt.assert_allclose(box.high[rows], X.support_batch(E), rtol=1e-12)
    npt.assert_allclose(box.low[rows], -X.support_batch(-E), rtol=1e-12)


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------

def test_decompose_box_is_exact():
    X = Hyperrectangle([1.0, -2.0, 0.5, 3.0], [1.0, 2.0, 0.25, 0.5])
    parts = decompose(X, BlockStructure(4))
    assert len(parts) == 2
    npt.assert_array_equal(parts[0].center, [1.0, -2.0])
    npt.assert_array_equal(parts[0].radius, [1.0, 2.0])
    npt.assert_array_equal(parts[1].center, [0.5, 3.0])
    npt.assert_array_equal(parts[1].radius, [0.25, 0.5])
    rng = np.random.default_rng(45)
    L = rng.standard_normal((200, 4))
    npt.assert_allclose([product_support(parts, l) for l in L],
                        X.support_batch(L), rtol=1e-12, atol=1e-12)


def test_decompose_singleton():
    X = Singleton([1.0, 2.0, 3.0, 4.0, 5.0])
    parts = decompose(X, BlockStructure(5))
    assert [p.dim for p in parts] == [2, 2, 1]
    assert all(isinstance(p, Singleton) for p in parts)
    npt.assert_array_equal(parts[2].point, [5.0])


def test_decompose_ball_gives_unit_squares():
    X = BallP([0.0, 0.0, 0.0, 0.0], 1.0, 2)
    parts = decompose(X, BlockStructure(4), BoxDirections())
    for p in parts:
        npt.assert_allclose(p.center, [0.0, 0.0], atol=1e-12)
        npt.assert_allclose(p.radius, [1.0, 1.0], rtol=1e-12)
    rng = np.random.default_rng(46)
    L = rng.standard_normal((1000, 4))
    prod_vals = np.array([product_support(parts, l) for l in L])
    ball_vals = X.support_batch(L)
    assert np.all(ball_vals <= prod_vals + 1e-9)
    # strictly larger in a diagonal direction
    l = np.ones(4)
    assert product_support(parts, l) > X.support_function(l) + 1.0


def test_decompose_soundness_random_sets():
    rng = np.random.default_rng(47)
    for n in (3, 4, 5):
        bs = BlockStructure(n)
        for scheme in (BoxDirections(), EpsilonClose(0.05)):
            for maker in (random_box, random_ball, random_singleton_nd):
                X = maker(rng, n)
                parts = decompose(X, bs, scheme)
                assert [p.dim for p in parts] == [bs.size(i) for i in range(bs.b)]
                L = rng.standard_normal((1000, n))
                prod_vals = np.array([product_support(parts, l) for l in L])
                assert np.all(X.support_batch(L) <= prod_vals + 1e-9)


def random_singleton_nd(rng, n):
    return Singleton(rng.uniform(-2, 2, n))


def test_decompose_distributes_over_sum_of_boxes():
    rng = np.random.default_rng(48)
    bs = BlockStructure(6)
    for _ in range(10):
        X = random_box(rng, 6)
        Y = random_box(rng, 6)
        parts_sum = decompose(MinkowskiSum(X, Y), bs)
        px, py = decompose(X, bs), decompose(Y, bs)
        for i in range(bs.b):
            npt.assert_allclose(parts_sum[i].center, px[i].center + py[i].center,
                                rtol=1e-12, atol=1e-12)
            npt.assert_allclose(parts_sum[i].radius, px[i].radius + py[i].radius,
                                rtol=1e-12, atol=1e-12)


def test_decompose_of_product_recovers_factors():
    A = Hyperrectangle([0.0, 1.0], [1.0, 0.5])
    B = BallP([2.0, -1.0], 1.0, 2)
    X = CartesianProduct([A, B])
    parts = decompose(X, BlockStructure(4))
    npt.assert_allclose(parts[0].center, A.center, atol=1e-12)
    npt.assert_allclose(parts[0].radius, A.radius, rtol=1e-12)
    npt.assert_allclose(parts[1].center, B.center, atol=1e-12)
    npt.assert_allclose(parts[1].radius, [1.0, 1.0], rtol=1e-12)


def test_decompose_box_scheme_slices_one_box():
    # one box of X, sliced, equals the box of every block's projection
    rng = np.random.default_rng(49)
    for n in (1, 2, 5, 8):
        bs = BlockStructure(n)
        M = random_matrix(rng, n, n, sparse=False)
        for X in (random_ball(rng, n), polygon_product(rng, n),
                  LinearMap(M, polygon_product(rng, n)),
                  MinkowskiSum(LinearMap(M, random_box(rng, n)),
                               random_ball(rng, n, 1.0))):
            parts = decompose(X, bs, BoxDirections())
            for i, part in enumerate(parts):
                proj = overapproximate_box(LinearMap(bs.projection_matrix(i), X))
                npt.assert_allclose(part.center, proj.center, rtol=1e-12, atol=1e-12)
                npt.assert_allclose(part.radius, proj.radius, rtol=1e-12, atol=1e-12)


def test_decompose_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        decompose(Hyperrectangle([0.0] * 3, [1.0] * 3), BlockStructure(4))


def test_approximate_dispatch():
    disc = BallP([0.0, 0.0], 1.0, 2)
    assert isinstance(approximate(disc, BoxDirections()), Hyperrectangle)
    P = approximate(disc, EpsilonClose(0.01))
    assert len(P.offsets) > 4
    with pytest.raises(InvalidSetError):
        approximate(disc, "boxes")
