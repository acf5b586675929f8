"""End-to-end acceptance checks, one test per criterion.

Each test exercises a full slice of the engine against an independent
reference -- closed-form solutions, brute-force enumeration, dense linear
algebra, or sampled trajectories -- and enforces both a numerical
tolerance and a wall-clock budget.  ``pytest -v`` yields one pass/fail
line per criterion; add ``-s`` to also see the measured worst-case
deviations and timings.
"""

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from conftest import (
    polygon_vertices_bruteforce,
    random_box,
    random_polygon,
    random_set,
    random_stable_matrix,
)
from reachdec import (
    DENSE,
    BlockMatrix,
    BlockStructure,
    CartesianProduct,
    ContinuousSystem,
    ConvexHullPair,
    DiscreteSystem,
    Hyperrectangle,
    LinearMap,
    MinkowskiSum,
    Scaled,
    decompose,
    decomposed_image,
    decomposed_map_error_bound,
    discretization_matrices,
    discretize,
    exp_action,
    hausdorff_estimate,
    make_error_report,
    polygon_support_vector,
    reach_decomposed,
    reach_nondecomposed,
    recurrence_error_bound,
    sample_directions,
)
from reachdec.reach import _lazy_supports


def rel(a, b):
    """Largest elementwise deviation of ``a`` from ``b``, relative with a
    unit floor so near-zero references do not blow the ratio up."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def finish(name, worst, tol, elapsed, budget):
    ok = worst <= tol and elapsed < budget
    print(f"[{name}] {'PASS' if ok else 'FAIL'} "
          f"worst={worst:.3e} tol={tol:g} time={elapsed:.2f}s budget={budget:g}s")
    assert worst <= tol, f"{name}: worst deviation {worst:.3e} exceeds {tol:g}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget is {budget:g}s"


def test_01_support_function_identities():
    # Scaling, linear maps, Minkowski sums, Cartesian products, and convex
    # hulls of pairs must satisfy the support-function calculus exactly:
    # evaluate each lazy combination against the hand-computed counterpart
    # and require that returned support vectors attain the support value.
    rng = np.random.default_rng(401)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        X = random_set(rng, dim)
        Y = random_set(rng, dim)
        L = rng.standard_normal((8, dim))

        lam = float(rng.uniform(-3.0, 3.0))
        scaled = Scaled(lam, X)
        worst = max(worst, rel(scaled.support_batch(L),
                               X.support_batch(lam * L)))
        for l in L[:3]:
            worst = max(worst, rel(float(l @ scaled.support_vector(l)),
                                   scaled.support_function(l)))

        m = int(rng.integers(1, 5))
        M = rng.standard_normal((m, dim))
        Lm = rng.standard_normal((8, m))
        mapped = LinearMap(M, X)
        worst = max(worst, rel(mapped.support_batch(Lm),
                               X.support_batch(Lm @ M)))
        for l in Lm[:3]:
            worst = max(worst, rel(float(l @ mapped.support_vector(l)),
                                   mapped.support_function(l)))

        total = MinkowskiSum(X, Y)
        worst = max(worst, rel(total.support_batch(L),
                               X.support_batch(L) + Y.support_batch(L)))
        for l in L[:3]:
            worst = max(worst, rel(float(l @ total.support_vector(l)),
                                   total.support_function(l)))

        dim2 = int(rng.integers(1, 4))
        Z = random_set(rng, dim2)
        Lp = rng.standard_normal((8, dim + dim2))
        product = CartesianProduct([X, Z])
        worst = max(worst, rel(product.support_batch(Lp),
                               X.support_batch(Lp[:, :dim])
                               + Z.support_batch(Lp[:, dim:])))
        for l in Lp[:3]:
            worst = max(worst, rel(float(l @ product.support_vector(l)),
                                   product.support_function(l)))

        hull = ConvexHullPair(X, Y)
        worst = max(worst, rel(hull.support_batch(L),
                               np.maximum(X.support_batch(L),
                                          Y.support_batch(L))))
        for l in L[:3]:
            worst = max(worst, rel(float(l @ hull.support_vector(l)),
                                   hull.support_function(l)))
    finish("1 support-function identities", worst, 1e-9,
           time.perf_counter() - t0, 5.0)


def test_02_polygon_support_matches_vertex_enumeration():
    # The binary-search support vector of a constraint polygon must reach
    # the same objective as an exhaustive argmax over all feasible
    # constraint-pair intersection points.
    rng = np.random.default_rng(402)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        poly = random_polygon(rng)
        verts = polygon_vertices_bruteforce(poly.normals, poly.offsets)
        assert len(verts) >= 3
        for theta in rng.uniform(0.0, 2.0 * np.pi, size=4):
            l = np.array([np.cos(theta), np.sin(theta)])
            vstar = polygon_support_vector(poly, l)
            worst = max(worst, rel(float(l @ vstar), float(np.max(verts @ l))))
    finish("2 polygon support vs vertex enumeration", worst, 1e-9,
           time.perf_counter() - t0, 5.0)


def test_03_decomposed_tube_is_sound():
    # The decomposed tube can only ever overapproximate: across randomly
    # coupled stable systems the full-dimensional support recurrence must
    # stay at or below the decomposed supports in every sampled direction
    # at every step.
    rng = np.random.default_rng(403)
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(50):
        n = (4, 6, 8)[i % 3]
        phi = random_stable_matrix(rng, n, cap=0.98)
        sys = DiscreteSystem(phi, random_box(rng, n),
                             random_box(rng, n, scale=0.2), 0.1)
        directions = sample_directions(n, 1000, seed=i)
        oracle = reach_nondecomposed(sys, 50, directions)
        tube = reach_decomposed(sys, 50)
        for k in range(50):
            violation = float(np.max(oracle[k] - tube.support_batch(k, directions)))
            worst = max(worst, violation)
    finish("3 soundness vs support recurrence", worst, 1e-9,
           time.perf_counter() - t0, 60.0)


def test_04_block_diagonal_dynamics_are_exact():
    # When the dynamics never couple distinct blocks the decomposition
    # loses nothing: with lazily combined block states the sampled
    # two-sided support gap to the full recurrence is zero.  Directions
    # are renormalized to unit 1-norm so the gap bounds the sup-norm
    # Hausdorff distance from below.
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n_blocks = int(rng.integers(2, 4))
        diag = []
        for _ in range(n_blocks):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                blk = rng.uniform(0.7, 1.0) * rotation(rng.uniform(0, 2 * np.pi))
            elif kind == 1:
                blk = np.diag(rng.uniform(-1.0, 1.0, 2))
            else:
                shear = np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]])
                blk = rng.uniform(0.6, 0.95) * rotation(rng.uniform(0, 2 * np.pi)) @ shear
            diag.append(blk)
        phi = BlockMatrix(scipy.linalg.block_diag(*diag))
        n = 2 * n_blocks
        sys = DiscreteSystem(phi, random_box(rng, n), None, 0.1)
        directions = sample_directions(n, 1000, seed=100 + i)
        directions /= np.abs(directions).sum(axis=1, keepdims=True)
        supports = list(_lazy_supports(sys, 20, directions))
        oracle = reach_nondecomposed(sys, 20, directions)
        for k in range(20):
            gap = float(np.max(np.abs(supports[k] - oracle[k])))
            worst = max(worst, gap)
    finish("4 block-diagonal exactness", worst, 1e-9,
           time.perf_counter() - t0, 10.0)


def test_05_single_map_error_bound_holds():
    # One application of a dense map to a product of 2D blocks: the
    # sampled sup-norm Hausdorff distance between the exact image and the
    # blockwise image must sit below the analytic error bound, which in
    # turn must be finite and nonnegative.
    rng = np.random.default_rng(405)
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(200):
        n_blocks = int(rng.integers(1, 4))
        n = 2 * n_blocks
        phi = BlockMatrix(rng.standard_normal((n, n)))
        blocks = [random_set(rng, 2) for _ in range(n_blocks)]
        bound = decomposed_map_error_bound(phi, blocks)
        assert np.isfinite(bound) and bound >= 0.0, f"bad bound {bound!r}"
        exact = LinearMap(phi.to_dense(), CartesianProduct(blocks))
        product = CartesianProduct(decomposed_image(phi, blocks))
        estimate = hausdorff_estimate(exact, product, p=np.inf, count=512, seed=i)
        worst = max(worst, estimate - bound)
    finish("5 single-map error bound", worst, 1e-9,
           time.perf_counter() - t0, 30.0)


def test_06_recurrence_error_bound_holds():
    # Per-step decomposition error against the a-priori bound with K=1 and
    # the row-sum norm of the dynamics as contraction factor.  Half the
    # systems run without inputs in lazy mode, probed in random unit
    # 1-norm directions; the other half carry a box input and are probed
    # in coordinate directions, where box collapsing is support-exact.
    rng = np.random.default_rng(406)
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(50):
        n = (4, 6, 8)[i % 3]
        phi = random_stable_matrix(rng, n, cap=0.95)
        bs = BlockStructure(n)
        X0 = random_box(rng, n)
        if i % 2 == 0:
            sys = DiscreteSystem(phi, X0, None, 0.1)
            report = make_error_report(phi, decompose(X0, bs))
            directions = sample_directions(n, 500, seed=1000 + i)
            directions /= np.abs(directions).sum(axis=1, keepdims=True)
            supports = list(_lazy_supports(sys, 50, directions))
        else:
            V = random_box(rng, n, scale=0.1)
            sys = DiscreteSystem(phi, X0, V, 0.1)
            report = make_error_report(phi, decompose(X0, bs), decompose(V, bs))
            eye = np.eye(n)
            directions = np.vstack([eye, -eye])
            supports = list(reach_decomposed(sys, 50).supports(directions))
        assert report.K == 1.0
        assert report.alpha_phi == phi.norm(np.inf)
        oracle = reach_nondecomposed(sys, 50, directions)
        for k in range(50):
            gap = float(np.max(supports[k] - oracle[k]))
            worst = max(worst, gap - recurrence_error_bound(report, k))
    finish("6 recurrence error bound", worst, 1e-9,
           time.perf_counter() - t0, 60.0)


def test_07_dense_time_tube_contains_trajectories():
    # Dense-time conversion must cover continuous trajectories between
    # grid points.  Closed-form solutions for a harmonic oscillator and a
    # four-state decoupled decay with a constant box input are sampled at
    # the ends and midpoint of every step interval.
    delta, N, slack = 1e-3, 200, 1e-7
    rng = np.random.default_rng(407)
    t0 = time.perf_counter()
    worst = -np.inf

    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    X0 = Hyperrectangle(np.array([1.0, 0.0]), np.array([0.1, 0.1]))
    tube = reach_decomposed(discretize(ContinuousSystem(A, X0), delta,
                                       model=DENSE), N)
    starts = X0.center + X0.radius * rng.uniform(-1.0, 1.0, size=(1000, 2))
    for k in range(N):
        hull = tube.box_hull(k, 0)
        for t in (k * delta, (k + 0.5) * delta, (k + 1.0) * delta):
            xt = starts @ rotation(t).T
            worst = max(worst, float(np.max(hull.low - xt)),
                        float(np.max(xt - hull.high)))

    decay_rates = np.array([0.5, 1.0, 1.5, 2.0])
    X0 = Hyperrectangle(np.array([1.0, -0.5, 0.25, 0.75]), np.full(4, 0.2))
    U = Hyperrectangle(np.full(4, 0.2), np.full(4, 0.1))
    tube = reach_decomposed(
        discretize(ContinuousSystem(np.diag(-decay_rates), X0, U=U), delta,
                   model=DENSE), N)
    starts = X0.center + X0.radius * rng.uniform(-1.0, 1.0, size=(1000, 4))
    inputs = U.center + U.radius * rng.uniform(-1.0, 1.0, size=(1000, 4))
    for k in range(N):
        lows = np.concatenate([tube.box_hull(k, b).low for b in (0, 1)])
        highs = np.concatenate([tube.box_hull(k, b).high for b in (0, 1)])
        for t in (k * delta, (k + 0.5) * delta, (k + 1.0) * delta):
            fade = np.exp(-decay_rates * t)
            xt = starts * fade + inputs * (1.0 - fade) / decay_rates
            worst = max(worst, float(np.max(lows - xt)),
                        float(np.max(xt - highs)))
    finish("7 dense-time trajectory containment", worst, slack,
           time.perf_counter() - t0, 120.0)


def test_08_discrete_simulations_stay_inside():
    # Step simulations of the recurrence itself, with inputs redrawn from
    # the input box at every step, must land in the corresponding tube
    # step for every random system.
    rng = np.random.default_rng(408)
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(50):
        n = (4, 6)[i % 2]
        phi = random_stable_matrix(rng, n, cap=0.97)
        X0 = random_box(rng, n)
        V = random_box(rng, n, scale=0.15)
        sys = DiscreteSystem(phi, X0, V, 0.1)
        tube = reach_decomposed(sys, 100)
        dense = phi.to_dense()
        states = X0.center + X0.radius * rng.uniform(-1.0, 1.0, size=(20, n))
        for k in range(100):
            lows = np.concatenate([tube.box_hull(k, b).low
                                   for b in range(n // 2)])
            highs = np.concatenate([tube.box_hull(k, b).high
                                    for b in range(n // 2)])
            worst = max(worst, float(np.max(lows - states)),
                        float(np.max(states - highs)))
            inputs = V.center + V.radius * rng.uniform(-1.0, 1.0, size=(20, n))
            states = states @ dense.T + inputs
    finish("8 discrete simulation containment", worst, 1e-7,
           time.perf_counter() - t0, 60.0)


def test_09_input_matrices_match_series_and_inverse_formula():
    # The first- and second-order input discretization matrices must agree
    # with a 50-term Taylor summation, and -- on well-conditioned
    # instances -- with the closed form inv(A) (exp(A d) - I).
    rng = np.random.default_rng(409)
    t0 = time.perf_counter()
    worst_series = 0.0
    worst_inverse = 0.0
    n_invertible = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        delta = float(rng.uniform(0.05, 0.5))
        norm = float(np.abs(A * delta).sum(axis=1).max())
        if norm > 1.0:
            A = A / norm
        _, phi1, phi2 = discretization_matrices(A, delta)
        scaled = A * delta
        term = delta * np.eye(n)
        first = term.copy()
        for j in range(1, 50):
            term = term @ scaled / (j + 1)
            first += term
        term = 0.5 * delta**2 * np.eye(n)
        second = term.copy()
        for j in range(1, 50):
            term = term @ scaled / (j + 2)
            second += term
        worst_series = max(worst_series, rel(phi1.to_dense(), first),
                           rel(phi2.to_dense(), second))
        if np.linalg.svd(A, compute_uv=False)[-1] > 0.1:
            n_invertible += 1
            closed = np.linalg.solve(A, scipy.linalg.expm(scaled) - np.eye(n))
            worst_inverse = max(worst_inverse, rel(phi1.to_dense(), closed))
    elapsed = time.perf_counter() - t0
    assert n_invertible >= 40, f"only {n_invertible} invertible instances"
    print(f"[9 input matrices] series={worst_series:.3e} "
          f"inverse={worst_inverse:.3e} ({n_invertible} invertible) "
          f"time={elapsed:.2f}s budget=10s")
    assert worst_series <= 1e-10, f"series deviation {worst_series:.3e}"
    assert worst_inverse <= 1e-9, f"inverse-formula deviation {worst_inverse:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"


def test_10_sparse_high_dimensional_run_is_cheap():
    # A 2000-dimensional sparse system (independent rotations plus a few
    # hundred weak couplings) over 1000 steps: tracking one block must
    # finish quickly, tracking two must cost at most 2.5x as much, and the
    # shared block must come out bit-identical either way.
    rng = np.random.default_rng(410)
    n, n_blocks = 2000, 1000
    rows, cols, vals = [], [], []
    for i in range(n_blocks):
        angle = rng.uniform(0, 2 * np.pi)
        c, s = 0.99 * np.cos(angle), 0.99 * np.sin(angle)
        rows += [2 * i, 2 * i, 2 * i + 1, 2 * i + 1]
        cols += [2 * i, 2 * i + 1, 2 * i, 2 * i + 1]
        vals += [c, -s, s, c]
    extra = 300
    rows += list(rng.integers(0, n, size=extra))
    cols += list(rng.integers(0, n, size=extra))
    vals += list(rng.uniform(-1e-3, 1e-3, size=extra))
    phi = BlockMatrix(sp.csr_array((vals, (rows, cols)), shape=(n, n)))
    X0 = Hyperrectangle(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 0.5, n))
    V = Hyperrectangle(np.zeros(n), np.full(n, 1e-4))
    sys = DiscreteSystem(phi, X0, V, 1.0)

    t0 = time.perf_counter()
    tube_one = reach_decomposed(sys, 1000, tracked={0})
    t_one = time.perf_counter() - t0
    t0 = time.perf_counter()
    tube_two = reach_decomposed(sys, 1000, tracked={0, 1})
    t_two = time.perf_counter() - t0

    one = tube_one.box_hull(999, 0)
    two = tube_two.box_hull(999, 0)
    same = (np.array_equal(one.low, two.low)
            and np.array_equal(one.high, two.high))
    print(f"[10 sparse scalability] one-block={t_one:.2f}s "
          f"two-block={t_two:.2f}s ratio={t_two / t_one:.2f} budget=30s")
    assert same, "tracked block must not depend on what else is tracked"
    assert np.all(np.isfinite(one.low)) and np.all(np.isfinite(one.high))
    assert t_one < 30.0, f"one-block run took {t_one:.2f}s, budget is 30s"
    assert t_two <= 2.5 * t_one, \
        f"two blocks took {t_two:.2f}s vs {t_one:.2f}s for one (> 2.5x)"


def test_11_exp_action_matches_dense_exponential():
    # Taylor matrix-exponential action on sparse 200x200 matrices against
    # the dense exponential applied to the same vector.
    rng = np.random.default_rng(411)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n, nnz = 200, 800
        A = sp.csr_array((rng.standard_normal(nnz) * 0.5,
                          (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                         shape=(n, n))
        delta = float(rng.uniform(0.2, 1.0))
        v = rng.standard_normal(n)
        got = exp_action(BlockMatrix(A), v, delta)
        ref = scipy.linalg.expm(delta * A.toarray()) @ v
        worst = max(worst, float(np.linalg.norm(got - ref))
                    / max(1.0, float(np.linalg.norm(ref))))
    finish("11 exponential action", worst, 1e-8,
           time.perf_counter() - t0, 30.0)


def test_12_ten_thousand_states_one_block_is_fast():
    # Dense-time discretization and a 250-step box tube of one tracked
    # block for 5 000 damped rotations with 2 500 weak couplings (n =
    # 10 000): the exponential is a sparse Taylor series and each step
    # advances two rows of Phi^k, so the run must take well under a
    # second per thousand states.  The tube must contain the exact
    # recurrence in the block's axis directions.
    rng = np.random.default_rng(412)
    n, N, delta = 10_000, 250, 0.01
    nb = n // 2
    damp = rng.uniform(0.05, 0.2, nb)
    freq = rng.uniform(0.5, 2.0, nb)
    rows = np.repeat(2 * np.arange(nb), 4) + np.tile([0, 0, 1, 1], nb)
    cols = np.repeat(2 * np.arange(nb), 4) + np.tile([0, 1, 0, 1], nb)
    vals = np.column_stack([-damp, -freq, freq, -damp]).ravel()
    extra = n // 4
    A = sp.csr_array((np.concatenate([vals, rng.uniform(-1e-2, 1e-2, extra)]),
                      (np.concatenate([rows, rng.integers(0, n, extra)]),
                       np.concatenate([cols, rng.integers(0, n, extra)]))),
                     shape=(n, n))
    X0 = Hyperrectangle(rng.uniform(-1.0, 1.0, n), np.full(n, 0.15))
    U = Hyperrectangle(np.zeros(n), np.full(n, 1e-3))

    t0 = time.perf_counter()
    sys = discretize(ContinuousSystem(BlockMatrix(A), X0, U=U), delta, DENSE)
    tube = reach_decomposed(sys, N, tracked={0})
    elapsed = time.perf_counter() - t0

    D = np.zeros((4, n))
    D[[0, 1], [0, 1]] = 1.0
    D[[2, 3], [0, 1]] = -1.0
    oracle = reach_nondecomposed(sys, N, D)
    worst = max(float(np.max(oracle[k] - tube.support_batch(k, D)))
                for k in range(N))
    finish("12 one block of 10 000 states", max(worst, 0.0), 1e-9, elapsed, 4.0)
