"""Dense- and discrete-time conversion of continuous systems."""

import importlib

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

import reachdec.linalg
import reachdec.sets
from conftest import augmented_exponential, random_box
from reachdec import (
    BallP,
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
    overapproximate_box,
    symmetric_interval_hull,
)


def unit_box(n):
    return Hyperrectangle(np.zeros(n), np.ones(n))


def support_on(X, L):
    return X.support_batch(np.asarray(L, dtype=float))


# the module (``reachdec.discretize`` is the function of that name)
DISCRETIZE = importlib.import_module("reachdec.discretize")


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


def test_input_maps_form_their_transpose_on_first_use(monkeypatch):
    # 60 input maps over one CSR Phi1 form no transpose until one of them
    # is queried, and that map's support values are bitwise L Phi1's
    n = 20
    A = sp.csr_array(np.diag(np.linspace(-1.0, -0.1, n)))
    steps = [Hyperrectangle(np.full(n, 0.1 * k), np.full(n, 0.5)) for k in range(60)]
    transposes = []
    transpose = sp.csr_array.transpose

    def counted(self, *args, **kwargs):
        transposes.append(self)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_array, "transpose", counted)
    d = discretize_discrete(ContinuousSystem(A, unit_box(n), U=steps), 0.1)
    phi1 = d.v_at(0).matrix
    assert sp.issparse(phi1) and all(v.matrix is phi1 for v in d.v)
    assert not any(M is phi1 for M in transposes)
    L = np.random.default_rng(3).standard_normal((4, n))
    got = d.v_at(7).support_batch(L)
    assert sum(M is phi1 for M in transposes) == 1
    npt.assert_array_equal(got, steps[7].support_batch(np.asarray(L @ phi1)))


@pytest.mark.parametrize("model", ["dense", "discrete"])
@pytest.mark.parametrize("with_B", [False, True])
def test_sequence_maps_check_their_matrix_once(monkeypatch, model, with_B):
    # a count, not a clock: the input maps of a sequence are built over one
    # checked matrix (Phi1, A in the dense-time bloat, and B), whatever the
    # sequence's length, and share its transpose and |M|
    rng = np.random.default_rng(95)
    n = 6
    m = 3 if with_B else n
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    B = rng.standard_normal((n, m)) if with_B else None
    wraps = []
    wrap = reachdec.sets._wrap_matrix

    def counted(M):
        wraps.append(M)
        return wrap(M)

    monkeypatch.setattr(reachdec.sets, "_wrap_matrix", counted)

    def checks(N):
        wraps.clear()
        U = [random_box(rng, m) for _ in range(N)]
        d = discretize(ContinuousSystem(A, unit_box(n), B=B, U=U), 0.1, model)
        return len(wraps), d

    (short, _), (long, d) = checks(3), checks(40)
    assert short == long
    if model == "discrete":
        assert long == (2 if with_B else 1)
        assert all(V._m is d.v[0]._m for V in d.v)
        assert d.v[3]._m.T is d.v[0]._m.T and d.v[5]._m.abs is d.v[1]._m.abs
        if with_B:
            assert all(V.operand._m is d.v[0].operand._m for V in d.v)


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


def old_bloat(A, S, delta):
    """The radius of a bloat box as the 3n x 3n exponential gave it:
    Phi2(|A|), read off the exponential of the augmented matrix, applied to
    the interval-hull radius of S."""
    A = A if isinstance(A, BlockMatrix) else BlockMatrix(A)
    _, _, phi2 = augmented_exponential(A.abs(), delta)
    return phi2 @ symmetric_interval_hull(S).radius


def assert_bloat_above(new, old):
    # the exponential action is widened, so it must not fall below the
    # full exponential, and it must stay close to it
    assert np.all(new >= old)
    assert np.all(new - old <= 1e-10 * max(np.max(old), 1e-300))


def test_dense_bloat_matches_augmented_exponential():
    rng = np.random.default_rng(89)
    cases = [(rng.standard_normal((7, 7)), 0.1),
             (sp.random_array((9, 9), density=0.3, random_state=rng,
                              format="csr") * 3.0, 0.2),
             (rng.standard_normal((5, 5)) * 4.0, 0.05),
             (np.zeros((5, 5)), 0.3)]
    for A, delta in cases:
        n = A.shape[0]
        A = BlockMatrix(A)
        sets = [random_box(rng, n), BallP(rng.standard_normal(n), 0.5, 2),
                LinearMap((A @ A).data, random_box(rng, n)),
                Singleton(np.zeros(n))]
        boxes = DISCRETIZE._bloat_from(A, sets, delta)
        assert len(boxes) == len(sets)
        for S, box in zip(sets, boxes):
            npt.assert_array_equal(box.center, np.zeros(n))
            assert_bloat_above(box.radius, old_bloat(A, S, delta))
        # a zero radius stays zero
        npt.assert_array_equal(boxes[-1].radius, np.zeros(n))


def test_dense_bloat_of_input_sequence():
    rng = np.random.default_rng(90)
    n = 5
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, 2))
    U = [random_box(rng, 2) for _ in range(3)] + [Singleton(np.zeros(2))]
    X0 = random_box(rng, n)
    d = discretize_dense(ContinuousSystem(A, X0, B=B, U=U), 0.1)
    for k in range(3):
        epsi = d.v_at(k).right
        assert_bloat_above(epsi.radius, old_bloat(A, LinearMap(A @ B, U[k]), 0.1))
    # a zero input has a zero bloat box
    npt.assert_array_equal(d.v_at(3).right.radius, np.zeros(n))
    # no input: X(0)'s hull branch is Phi X0 plus the curvature box
    d = discretize_dense(ContinuousSystem(A, X0), 0.1)
    eplus = d.x_init.right.right
    assert_bloat_above(eplus.radius, old_bloat(A, LinearMap(A @ A, X0), 0.1))


@pytest.mark.parametrize("model", ["dense", "discrete"])
@pytest.mark.parametrize("with_B", [False, True])
def test_sequence_input_is_bitwise_the_constant_input(model, with_B):
    # V(k) of an input sequence is, bit for bit, the V of the constant
    # input U(k); with a CSR A the bloat columns are computed independently
    rng = np.random.default_rng(93)
    n = 6
    m = 3 if with_B else n
    A = BlockMatrix(sp.random_array((n, n), density=0.4, random_state=rng,
                                    format="csr"))
    B = rng.standard_normal((n, m)) if with_B else None
    X0 = random_box(rng, n)
    U = [random_box(rng, m), Singleton(np.zeros(m)), random_box(rng, m)]
    seq = discretize(ContinuousSystem(A, X0, B=B, U=U), 0.1, model)

    def same_box(X, Y):
        X, Y = overapproximate_box(X), overapproximate_box(Y)
        assert X.center.tobytes() == Y.center.tobytes()
        assert X.radius.tobytes() == Y.radius.tobytes()

    for k, Uk in enumerate(U):
        const = discretize(ContinuousSystem(A, X0, B=B, U=Uk), 0.1, model)
        same_box(seq.v_at(k), const.v)
        if k == 0:
            same_box(seq.x_init, const.x_init)


@pytest.mark.parametrize("U", [None, "constant", "sequence"])
def test_dense_discretization_is_one_exponential_action(monkeypatch, U):
    # all bloat boxes come from one phi_2 action on an n x k block of radii
    calls = []
    phi_action = reachdec.linalg._phi_action

    def counted(B, X, s):
        calls.append((X.shape, s))
        return phi_action(B, X, s)

    def forbidden(*_args):
        raise AssertionError("discretization_matrices called")

    monkeypatch.setattr(reachdec.linalg, "_phi_action", counted)
    monkeypatch.setattr(DISCRETIZE, "discretization_matrices", forbidden)
    rng = np.random.default_rng(91)
    inputs = {None: None, "constant": random_box(rng, 6),
              "sequence": [random_box(rng, 6) for _ in range(4)]}[U]
    A = sp.random_array((6, 6), density=0.4, random_state=rng, format="csr")
    discretize(ContinuousSystem(BlockMatrix(A), random_box(rng, 6), U=inputs),
               0.1)
    columns = {None: 1, "constant": 2, "sequence": 5}[U]
    assert calls == [((6, columns), 2)]


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

class _UnboundedStub(LazySet):
    dim = 2

    def _rho_batch(self, F):
        return np.full(len(F.rows), np.inf)


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
    for V in (unit_box(3), [unit_box(2), unit_box(1)]):
        with pytest.raises(DimensionError) as exc:
            DiscreteSystem(np.eye(2), unit_box(2), V, 0.1)
        assert exc.value.tag() == "error:discretize:dimension"
    with pytest.raises(InputError, match="empty input sequence"):
        DiscreteSystem(np.eye(2), unit_box(2), [], 0.1)
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
