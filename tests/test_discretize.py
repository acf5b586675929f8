"""Dense- and discrete-time conversion of continuous systems."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from conftest import random_box
from reachdec import (
    BlockMatrix,
    ContinuousSystem,
    ConvexHullPair,
    DimensionError,
    DiscreteSystem,
    Hyperrectangle,
    InputError,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Singleton,
    UnboundedSetError,
    discretize,
    discretize_dense,
    discretize_discrete,
)


def unit_box(n):
    return Hyperrectangle(np.zeros(n), np.ones(n))


def support_on(X, L):
    return X.support_batch(np.asarray(L, dtype=float))


# ----------------------------------------------------------------------
# dense-time model
# ----------------------------------------------------------------------

def test_dense_zero_matrix_changes_nothing():
    rng = np.random.default_rng(80)
    X0 = random_box(rng, 2)
    sys = ContinuousSystem(np.zeros((2, 2)), X0, U=Singleton([0.0, 0.0]))
    d = discretize(sys, 0.5, model="dense")
    npt.assert_array_equal(d.phi.to_dense(), np.eye(2))
    L = rng.standard_normal((100, 2))
    npt.assert_allclose(support_on(d.x_init, L), support_on(X0, L),
                        rtol=1e-12, atol=1e-12)
    npt.assert_allclose(support_on(d.v, L), 0.0, atol=1e-15)


def test_dense_curvature_bloating_scalar_value():
    # contractive A = -I: the hull branch of X(0) carries the flow image
    # plus the curvature box, whose radius has a closed scalar form
    sys = ContinuousSystem(-np.eye(2), unit_box(2), U=Singleton([0.0, 0.0]))
    d = discretize_dense(sys, 0.1)
    assert isinstance(d.x_init, ConvexHullPair)
    assert d.x_init.left is sys.X0
    second = np.exp(0.1) - 1.1          # second exponential integral of 1
    expect = np.exp(-0.1) + second
    E = np.vstack([np.eye(2), -np.eye(2)])
    npt.assert_allclose(support_on(d.x_init.right, E), expect, rtol=1e-12)
    # the hull itself is dominated by the larger initial box
    npt.assert_allclose(support_on(d.x_init, E), 1.0, rtol=1e-12)


def test_dense_input_box_and_bloating():
    # A = 0 removes all curvature terms: V is exactly delta * U
    U = Hyperrectangle([1.0, -1.0], [0.5, 0.25])
    sys = ContinuousSystem(np.zeros((2, 2)), unit_box(2), U=U)
    d = discretize_dense(sys, 0.25)
    rng = np.random.default_rng(81)
    L = rng.standard_normal((100, 2))
    npt.assert_allclose(support_on(d.v, L), 0.25 * support_on(U, L),
                        rtol=1e-12, atol=1e-12)


def test_dense_first_set_covers_sampled_trajectories():
    rng = np.random.default_rng(82)
    A = np.array([[-0.4, -1.1], [0.9, -0.2]])
    X0 = Hyperrectangle([1.0, 0.5], [0.2, 0.3])
    U = Hyperrectangle([0.0, 0.0], [0.1, 0.1])
    delta = 0.2
    d = discretize_dense(ContinuousSystem(A, X0, U=U), delta)

    L = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((60, 2))])
    bounds = support_on(d.x_init, L)
    worst = -np.inf
    for _ in range(1000):
        x0 = X0.center + rng.uniform(-1, 1, 2) * X0.radius
        u = U.center + rng.uniform(-1, 1, 2) * U.radius
        ts = np.sort(rng.uniform(0.0, delta, 4))
        sol = solve_ivp(lambda t, x: A @ x + u, (0.0, delta), x0,
                        t_eval=ts, rtol=1e-10, atol=1e-12)
        gap = (L @ sol.y - bounds[:, None]).max()
        worst = max(worst, gap)
    assert worst <= 1e-7


def test_dense_recurrence_covers_rotation_tube():
    # pure rotation: analytic flow, no inputs; the propagated step sets
    # must cover the trajectories over their whole time interval
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    X0 = Hyperrectangle([2.0, 0.0], [0.1, 0.1])
    delta = 0.3
    d = discretize_dense(ContinuousSystem(A, X0), delta)
    rng = np.random.default_rng(83)
    L = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((40, 2))])

    X = d.x_init
    for k in range(6):
        bounds = support_on(X, L)
        for _ in range(60):
            x0 = X0.center + rng.uniform(-1, 1, 2) * X0.radius
            t = rng.uniform(k * delta, (k + 1) * delta)
            R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            assert (L @ (R @ x0) - bounds).max() <= 1e-7
        X = LinearMap(d.phi.data, X)


def test_dense_decoupled_scalars_with_input():
    # x1' = -x1 + u1, x2' = 0.5 x2 + u2 with u constant per trajectory
    A = np.diag([-1.0, 0.5])
    X0 = Hyperrectangle([1.0, -1.0], [0.1, 0.1])
    U = Hyperrectangle([0.0, 0.0], [0.2, 0.2])
    delta = 0.25
    d = discretize_dense(ContinuousSystem(A, X0, U=U), delta)
    rng = np.random.default_rng(84)
    L = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((40, 2))])

    X = d.x_init
    for k in range(5):
        bounds = support_on(X, L)
        a = np.diag(A)
        for _ in range(60):
            x0 = X0.center + rng.uniform(-1, 1, 2) * X0.radius
            u = U.center + rng.uniform(-1, 1, 2) * U.radius
            t = rng.uniform(k * delta, (k + 1) * delta)
            x = np.exp(a * t) * x0 + (np.exp(a * t) - 1.0) / a * u
            assert (L @ x - bounds).max() <= 1e-7
        X = MinkowskiSum(LinearMap(d.phi.data, X), d.v)
    assert X.dim == 2


# ----------------------------------------------------------------------
# discrete-time model
# ----------------------------------------------------------------------

def test_discrete_zero_matrix_scales_input():
    U = Hyperrectangle([0.5], [0.5])
    sys = ContinuousSystem(np.zeros((1, 1)), unit_box(1), U=U)
    d = discretize_discrete(sys, 0.1)
    npt.assert_allclose(d.v.support_function([1.0]), 0.1, rtol=1e-12)
    npt.assert_allclose(d.v.support_function([-1.0]), 0.0, atol=1e-15)


def test_discrete_initial_set_untouched():
    rng = np.random.default_rng(85)
    X0 = random_box(rng, 3)
    sys = ContinuousSystem(rng.standard_normal((3, 3)), X0,
                           U=Hyperrectangle([0.0] * 3, [1.0] * 3))
    assert discretize_discrete(sys, 0.2).x_init is X0
    sysn = ContinuousSystem(rng.standard_normal((3, 3)), X0)
    assert discretize_discrete(sysn, 0.2).x_init is X0


def test_discrete_scalar_input_integral():
    # x' = -x + u, u in [0, 1]: V = (1 - e^{-delta}) * [0, 1]
    U = Hyperrectangle([0.5], [0.5])
    sys = ContinuousSystem([[-1.0]], unit_box(1), U=U)
    d = discretize_discrete(sys, 0.1)
    expect = -np.expm1(-0.1)
    npt.assert_allclose(d.v.support_function([1.0]), expect, atol=1e-9)
    npt.assert_allclose(d.v.support_function([1.0]), 0.0951626, atol=1e-7)
    npt.assert_allclose(d.v.support_function([-1.0]), 0.0, atol=1e-9)


def test_discrete_step_points_stay_inside():
    # fixed-step simulations x(k+1) = Phi x(k) + Phi1 u must lie in the
    # propagated step sets; Phi/Phi1 recomputed here from closed forms
    rng = np.random.default_rng(86)
    A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    X0 = Hyperrectangle([1.0, 1.0], [0.25, 0.25])
    U = Hyperrectangle([0.1, -0.1], [0.1, 0.1])
    delta = 0.2
    d = discretize_discrete(ContinuousSystem(A, X0, U=U), delta)

    from scipy.linalg import expm
    phi = expm(A * delta)
    phi1 = np.linalg.solve(A, phi - np.eye(2))
    L = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((40, 2))])

    X = d.x_init
    for k in range(6):
        bounds = support_on(X, L)
        for _ in range(50):
            x = X0.center + rng.uniform(-1, 1, 2) * X0.radius
            for _ in range(k):
                u = U.center + rng.uniform(-1, 1, 2) * U.radius
                x = phi @ x + phi1 @ u
            assert (L @ x - bounds).max() <= 1e-7
        X = MinkowskiSum(LinearMap(d.phi.data, X), d.v)


def test_input_matrix_is_applied():
    # scalar input driving only the first coordinate through B
    B = np.array([[1.0], [0.0]])
    U = Hyperrectangle([0.0], [1.0])
    sys = ContinuousSystem(np.zeros((2, 2)), unit_box(2), B=B, U=U)
    d = discretize_discrete(sys, 0.5)
    rng = np.random.default_rng(87)
    for _ in range(30):
        l = rng.standard_normal(2)
        npt.assert_allclose(d.v.support_function(l), 0.5 * abs(l[0]),
                            rtol=1e-12, atol=1e-12)


def test_sequence_inputs_discretized_per_step():
    steps = [Hyperrectangle([float(k)], [0.5]) for k in range(4)]
    sys = ContinuousSystem(np.zeros((1, 1)), unit_box(1), U=steps)
    d = discretize_discrete(sys, 0.5)
    assert not d.constant_input
    for k in range(4):
        npt.assert_allclose(d.v_at(k).support_function([1.0]),
                            0.5 * (k + 0.5), rtol=1e-12)
    with pytest.raises(InputError):
        d.v_at(4)


def test_dense_sequence_inputs():
    steps = [Hyperrectangle([1.0, 0.0], [0.5, 0.5]),
             Hyperrectangle([0.0, 1.0], [0.25, 0.25])]
    sys = ContinuousSystem(np.zeros((2, 2)), unit_box(2), U=steps)
    d = discretize_dense(sys, 0.1)
    rng = np.random.default_rng(88)
    L = rng.standard_normal((50, 2))
    for k in range(2):
        npt.assert_allclose(support_on(d.v_at(k), L),
                            0.1 * support_on(steps[k], L),
                            rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

class _UnboundedStub(LazySet):
    dim = 2

    def _rho(self, l):
        return np.inf


def test_dense_rejects_unbounded_initial_set():
    sys = ContinuousSystem(np.eye(2), _UnboundedStub())
    with pytest.raises(UnboundedSetError):
        discretize_dense(sys, 0.1)


def test_dense_rejects_unbounded_inputs():
    sys = ContinuousSystem(np.eye(2), unit_box(2), U=_UnboundedStub())
    with pytest.raises(UnboundedSetError):
        discretize_dense(sys, 0.1)


def test_discretize_rejects_bad_arguments():
    sys = ContinuousSystem(np.eye(2), unit_box(2))
    with pytest.raises(InputError):
        discretize(sys, 0.0)
    with pytest.raises(InputError):
        discretize(sys, -1.0)
    with pytest.raises(InputError):
        discretize(sys, 0.1, model="hybrid")


def test_continuous_system_validation():
    with pytest.raises(DimensionError):
        ContinuousSystem(np.eye(2), unit_box(3))
    with pytest.raises(DimensionError):
        ContinuousSystem(np.eye(2), unit_box(2), B=np.ones((3, 1)))
    with pytest.raises(DimensionError):
        ContinuousSystem(np.eye(2), unit_box(2), U=unit_box(1))
    with pytest.raises(DimensionError):
        ContinuousSystem(np.eye(2), unit_box(2), B=np.ones((2, 1)),
                         U=[unit_box(1), unit_box(2)])
    with pytest.raises(InputError):
        ContinuousSystem(np.eye(2), unit_box(2), U=[])


def test_discrete_system_validation():
    with pytest.raises(DimensionError):
        DiscreteSystem(np.eye(2), unit_box(3), None, 0.1)
    with pytest.raises(DimensionError):
        DiscreteSystem(np.eye(2), unit_box(2), unit_box(3), 0.1)
    with pytest.raises(DimensionError):
        DiscreteSystem(np.eye(2), unit_box(2), [unit_box(2), unit_box(1)], 0.1)
    with pytest.raises(InputError):
        DiscreteSystem(np.eye(2), unit_box(2), None, 0.1, model="exotic")
    d = DiscreteSystem(np.eye(2), unit_box(2), None, 0.1)
    assert d.constant_input
    npt.assert_allclose(d.v_at(0).support_function([1.0, 1.0]), 0.0,
                        atol=1e-15)


def test_discrete_system_stores_crowded_phi_dense():
    # the storage of Phi is chosen once, by its share of occupied blocks
    rng = np.random.default_rng(70)
    crowded = rng.standard_normal((4, 4)) * 0.5
    d = DiscreteSystem(BlockMatrix(sp.csr_array(crowded)), unit_box(4), None, 0.1)
    assert not d.phi.is_sparse      # every block occupied
    npt.assert_array_equal(d.phi.to_dense(), crowded)
    # a block-diagonal pattern (5 of 25 blocks) stays sparse
    R = np.array([[0.8, -0.6], [0.6, 0.8]])
    d = DiscreteSystem(BlockMatrix(sp.block_diag([R] * 5, format="csr")),
                       unit_box(10), None, 0.1)
    assert d.phi.is_sparse
    # dense storage is never converted to sparse
    d = DiscreteSystem(np.eye(10), unit_box(10), None, 0.1)
    assert not d.phi.is_sparse
    # exp(A delta) of a sparse tridiagonal A fills in, so it ends up dense
    n = 20
    A = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    d = discretize(ContinuousSystem(BlockMatrix(A), unit_box(n)), 0.5)
    assert not d.phi.is_sparse
