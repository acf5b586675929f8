"""Decomposed reach tubes, safety checking, and output projection."""

import contextlib
import itertools

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reachdec.approx
import reachdec.reach
from conftest import generic_tube, random_box, random_stable_matrix, unsorted_csr
from reachdec import (
    And,
    Atom,
    BallP,
    BlockMatrix,
    BlockStructure,
    BoxDirections,
    ContinuousSystem,
    DimensionError,
    DiscreteSystem,
    EpsilonClose,
    Hyperrectangle,
    InputError,
    LinearMap,
    MinkowskiSum,
    Or,
    SafetyProperty,
    Singleton,
    check_property,
    decompose,
    discretize_discrete,
    make_error_report,
    project_output,
    reach_decomposed,
    reach_decomposed_varying,
    reach_nondecomposed,
    recurrence_error_bound,
    sample_directions,
)
from reachdec.approx import _box_bounds, _box_bounds_rows
from reachdec.errors import EngineError
from reachdec.linalg import MatrixPowerState, row_products
from reachdec.reach import _box_steps, _lazy_supports
from reachdec.sets import _Matrix, _transform_compose


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    at = 0
    for m in mats:
        out[at:at + m.shape[0], at:at + m.shape[1]] = m
        at += m.shape[0]
    return out


def box_system(phi, X0, V=None, delta=0.1, model="discrete"):
    return DiscreteSystem(phi, X0, V, delta, model=model)


def tube_boxes(tube, k):
    return {i: (np.array(tube.set_at(k, i).center),
                np.array(tube.set_at(k, i).radius)) for i in tube.tracked}


# ----------------------------------------------------------------------
# constant-input recurrence
# ----------------------------------------------------------------------

def test_identity_system_is_stationary():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    for tube in (reach_decomposed(sys, 10), generic_tube(sys, 10)):
        assert tube.n_steps == 10
        for k in range(10):
            for i in (0, 1):
                npt.assert_allclose(tube.set_at(k, i).center, 0.0, atol=1e-15)
                npt.assert_allclose(tube.set_at(k, i).radius, 1.0, rtol=1e-15)


def test_block_diagonal_equals_powered_blocks():
    # with block-diagonal dynamics the decomposition is lossless: each
    # stored block is exactly the box hull of its powered sub-box
    A1 = 0.9 * rotation(0.5)
    A2 = np.array([[0.8, 0.1], [0.0, 0.7]])
    phi = block_diag(A1, A2)
    X0 = Hyperrectangle([1.0, -1.0, 0.5, 2.0], [0.2, 0.3, 0.1, 0.4])
    tube = reach_decomposed(box_system(phi, X0), 8)
    for k in range(8):
        for i, M in enumerate((A1, A2)):
            Mk = np.linalg.matrix_power(M, k)
            lo, hi = 2 * i, 2 * i + 2
            npt.assert_allclose(tube.set_at(k, i).center,
                                Mk @ X0.center[lo:hi], atol=1e-12)
            npt.assert_allclose(tube.set_at(k, i).radius,
                                np.abs(Mk) @ X0.radius[lo:hi], atol=1e-12)


def test_random_system_sound_and_within_error_bound():
    rng = np.random.default_rng(100)
    phi = random_stable_matrix(rng, 4)
    X0 = Hyperrectangle([1.0, 0.0, -0.5, 0.5], [0.3, 0.2, 0.25, 0.1])
    V = Hyperrectangle(np.zeros(4), [0.05, 0.05, 0.05, 0.05])
    sys = box_system(phi, X0, V)
    N = 50
    tube = reach_decomposed(sys, N)

    D = sample_directions(4, 1000, seed=3)
    D = D / np.abs(D).sum(axis=1, keepdims=True)   # unit 1-norm: sup-norm gaps
    oracle = reach_nondecomposed(sys, N, D)

    bs = BlockStructure(4)
    report = make_error_report(phi, decompose(X0, bs), decompose(V, bs))
    for k in range(N):
        gaps = tube.support_batch(k, D) - oracle[k]
        assert gaps.min() >= -1e-9                      # soundness
        assert gaps.max() <= recurrence_error_bound(report, k) + 1e-9


def test_no_wrapping_step_isolation():
    rng = np.random.default_rng(101)
    phi = random_stable_matrix(rng, 4)
    X0 = random_box(rng, 4)
    V = Hyperrectangle(np.zeros(4), 0.02 * np.ones(4))
    sys = box_system(phi, X0, V)

    full = reach_decomposed(sys, 12)
    # a shorter run reproduces its prefix bitwise
    prefix = reach_decomposed(sys, 5)
    for k in range(5):
        for i in (0, 1):
            npt.assert_array_equal(prefix.set_at(k, i).center,
                                   full.set_at(k, i).center)
            npt.assert_array_equal(prefix.set_at(k, i).radius,
                                   full.set_at(k, i).radius)
    # tracking a single block reproduces that block bitwise: no step ever
    # consumes another block's collapsed result
    solo = reach_decomposed(sys, 12, tracked={1})
    assert solo.tracked == (1,)
    for k in range(12):
        npt.assert_array_equal(solo.set_at(k, 1).center,
                               full.set_at(k, 1).center)
        npt.assert_array_equal(solo.set_at(k, 1).radius,
                               full.set_at(k, 1).radius)
    # step k rebuilt in isolation from Phi^k and the input accumulation
    P = phi.to_dense()
    for k in (3, 7, 11):
        Qk = np.linalg.matrix_power(P, k)
        acc_c, acc_r = np.zeros(4), np.zeros(4)
        for s in range(k):
            Ps = np.linalg.matrix_power(P, s)
            acc_c += Ps @ V.center
            acc_r += np.abs(Ps) @ V.radius
        for i in (0, 1):
            lo, hi = 2 * i, 2 * i + 2
            npt.assert_allclose(full.set_at(k, i).center,
                                (Qk @ X0.center + acc_c)[lo:hi], atol=1e-12)
            npt.assert_allclose(full.set_at(k, i).radius,
                                (np.abs(Qk) @ X0.radius + acc_r)[lo:hi],
                                atol=1e-12)


def test_fast_and_generic_paths_agree():
    rng = np.random.default_rng(102)
    for n in (4, 5, 6):
        phi = random_stable_matrix(rng, n)
        sys = box_system(phi, random_box(rng, n),
                         Hyperrectangle(np.zeros(n), 0.1 * np.ones(n)))
        fast = reach_decomposed(sys, 20)
        slow = generic_tube(sys, 20)
        for k in range(20):
            for i in fast.tracked:
                npt.assert_allclose(fast.set_at(k, i).center,
                                    slow.set_at(k, i).center, atol=1e-12)
                npt.assert_allclose(fast.set_at(k, i).radius,
                                    slow.set_at(k, i).radius, atol=1e-12)


def test_sparse_and_dense_runs_agree():
    rng = np.random.default_rng(103)
    phi = np.zeros((6, 6))
    phi[:2, :2] = 0.9 * rotation(0.4)
    phi[2:4, 2:4] = np.diag([0.8, 0.85])
    phi[4:, 4:] = 0.7 * rotation(-0.3)
    phi[:2, 4:] = rng.standard_normal((2, 2)) * 0.05
    X0 = random_box(rng, 6)
    V = Hyperrectangle(np.zeros(6), 0.03 * np.ones(6))

    dense = reach_decomposed(box_system(phi, X0, V), 25)
    sparse = reach_decomposed(
        box_system(BlockMatrix(sp.csr_array(phi)), X0, V), 25)
    for k in range(25):
        for i in dense.tracked:
            npt.assert_allclose(sparse.set_at(k, i).center,
                                dense.set_at(k, i).center, atol=1e-12)
            npt.assert_allclose(sparse.set_at(k, i).radius,
                                dense.set_at(k, i).radius, atol=1e-12)


def test_lazy_flag_keeps_state_symbolic():
    # the lazy steps, streamed as supports, against the box hulls of the
    # collapsed tube
    phi = block_diag(rotation(0.7), np.eye(2))
    X0 = Hyperrectangle([1.0, 0.0, 0.0, 0.0], [0.5, 0.1, 0.2, 0.2])
    sys = box_system(phi, X0)
    boxed = reach_decomposed(sys, 6)

    rng = np.random.default_rng(104)
    L = rng.standard_normal((200, 4))
    E = np.vstack([np.eye(4), -np.eye(4)])
    lazy_L = list(_lazy_supports(sys, 6, L))
    lazy_E = list(_lazy_supports(sys, 6, E))
    spread = 0.0
    for k in range(6):
        diff = boxed.support_batch(k, L) - lazy_L[k]
        assert diff.min() >= -1e-12          # collapsing only ever loses
        spread = max(spread, diff.max())
        npt.assert_allclose(boxed.support_batch(k, E), lazy_E[k], atol=1e-12)
    assert spread > 1e-3    # the rotated block really is tighter when lazy


def test_reach_rejects_bad_arguments():
    sys = box_system(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(InputError):
        reach_decomposed(sys, 0)
    with pytest.raises(InputError):
        reach_decomposed(sys, 5, tracked={3})
    with pytest.raises(InputError):
        reach_decomposed(sys, 5, tracked=set())
    seq_sys = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                             [Singleton([0.0, 0.0])] * 5, 0.1)
    with pytest.raises(InputError):
        reach_decomposed(seq_sys, 5)
    with pytest.raises(InputError):
        reach_decomposed_varying(sys, 5)


# ----------------------------------------------------------------------
# time-varying inputs
# ----------------------------------------------------------------------

def test_varying_zero_inputs_match_constant_run():
    rng = np.random.default_rng(105)
    phi = random_stable_matrix(rng, 4)
    X0 = random_box(rng, 4)
    N = 15
    const = reach_decomposed(box_system(phi, X0), N)
    zeros = [Singleton(np.zeros(4)) for _ in range(N)]
    varying = reach_decomposed_varying(box_system(phi, X0, zeros), N)
    for k in range(N):
        for i in const.tracked:
            npt.assert_array_equal(varying.set_at(k, i).center,
                                   const.set_at(k, i).center)
            npt.assert_array_equal(varying.set_at(k, i).radius,
                                   const.set_at(k, i).radius)


def test_varying_constant_sequence_contains_constant_run():
    rng = np.random.default_rng(106)
    phi = random_stable_matrix(rng, 4)
    X0 = random_box(rng, 4)
    V0 = Hyperrectangle([0.01, -0.02, 0.0, 0.03], [0.1, 0.05, 0.08, 0.02])
    N = 20
    const = reach_decomposed(box_system(phi, X0, V0), N)
    varying = reach_decomposed_varying(box_system(phi, X0, [V0] * N), N)
    L = np.vstack([np.eye(4), -np.eye(4), rng.standard_normal((100, 4))])
    for k in range(N):
        lhs = const.support_batch(k, L)
        rhs = varying.support_batch(k, L)
        assert (rhs - lhs).min() >= -1e-9    # wrapping never tightens


def test_varying_scalar_ladder():
    # phi = 0.5, V(k) = [0, 2^-k]: the accumulation endpoints have a short
    # hand recursion, frozen here for k = 1..5
    seq = [Hyperrectangle([2.0 ** -(k + 1)], [2.0 ** -(k + 1)])
           for k in range(6)]
    sys = DiscreteSystem(np.array([[0.5]]), Singleton([0.0]), seq, 0.1)
    for tube in (reach_decomposed_varying(sys, 6), generic_tube(sys, 6)):
        uppers = [tube.support(k, np.array([1.0])) for k in range(1, 6)]
        npt.assert_allclose(uppers, [1.0, 1.0, 0.75, 0.5, 0.3125], atol=1e-15)
        lowers = [tube.support(k, np.array([-1.0])) for k in range(1, 6)]
        npt.assert_allclose(lowers, 0.0, atol=1e-15)


def test_varying_fast_and_generic_paths_agree():
    rng = np.random.default_rng(107)
    phi = random_stable_matrix(rng, 5)
    X0 = random_box(rng, 5)
    seq = [random_box(rng, 5, scale=0.1) for _ in range(12)]
    sys = DiscreteSystem(phi, X0, seq, 0.1)
    fast = reach_decomposed_varying(sys, 12)
    slow = generic_tube(sys, 12)
    for k in range(12):
        for i in fast.tracked:
            npt.assert_allclose(fast.set_at(k, i).center,
                                slow.set_at(k, i).center, atol=1e-12)
            npt.assert_allclose(fast.set_at(k, i).radius,
                                slow.set_at(k, i).radius, atol=1e-12)


def test_varying_untracked_accumulation_still_flows():
    # inputs enter block 0 only; block 1 sees them through the coupling,
    # so a block-1-only run must equal the full run there
    phi = np.zeros((4, 4))
    phi[:2, :2] = 0.9 * np.eye(2)
    phi[2:, :2] = 0.5 * np.eye(2)
    phi[2:, 2:] = 0.8 * np.eye(2)
    X0 = Hyperrectangle(np.zeros(4), np.ones(4))
    seq = [Hyperrectangle([0.1, 0.1, 0.0, 0.0], [0.05, 0.05, 0.0, 0.0])
           for _ in range(10)]
    sys = DiscreteSystem(phi, X0, seq, 0.1)
    full = reach_decomposed_varying(sys, 10)
    solo = reach_decomposed_varying(sys, 10, tracked={1})
    for k in range(10):
        npt.assert_array_equal(solo.set_at(k, 1).center,
                               full.set_at(k, 1).center)
        npt.assert_array_equal(solo.set_at(k, 1).radius,
                               full.set_at(k, 1).radius)
    # and the coupled block is genuinely input-driven
    assert full.set_at(9, 1).radius[0] > X0.radius[2] * 0.8 ** 9 + 0.01


def test_varying_rejects_short_sequence():
    seq = [Singleton([0.0, 0.0])] * 3
    sys = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                         seq, 0.1)
    with pytest.raises(InputError):
        reach_decomposed_varying(sys, 5)
    assert reach_decomposed_varying(sys, 3).n_steps == 3


# ----------------------------------------------------------------------
# tube queries
# ----------------------------------------------------------------------

def test_tube_time_intervals():
    X0 = Hyperrectangle(np.zeros(2), np.ones(2))
    dense = reach_decomposed(box_system(np.eye(2), X0, delta=0.25,
                                        model="dense"), 3)
    assert dense.time_interval(2) == (0.5, 0.75)
    disc = reach_decomposed(box_system(np.eye(2), X0, delta=0.25), 3)
    assert disc.time_interval(2) == (0.5, 0.5)


def test_tube_direction_validation():
    X0 = Hyperrectangle(np.zeros(4), np.ones(4))
    tube = reach_decomposed(box_system(np.eye(4), X0), 3, tracked={0})
    with pytest.raises(DimensionError):
        tube.support(0, np.ones(3))
    with pytest.raises(DimensionError):
        tube.support(0, np.array([1.0, 0.0, 1.0, 0.0]))  # block 1 untracked
    assert tube.support(0, np.array([1.0, 1.0, 0.0, 0.0])) == 2.0
    # the batch checks its rows as the single query does
    with pytest.raises(DimensionError):
        tube.support_batch(0, np.ones((1, 3)))
    with pytest.raises(DimensionError):
        tube.support_batch(0, np.ones(4))
    with pytest.raises(DimensionError):
        tube.support_batch(0, [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            tube.support(0, np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            tube.support_batch(0, [[1.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]])
    npt.assert_array_equal(tube.support_batch(0, [[1.0, 1.0, 0.0, 0.0],
                                                  [0.0, 0.0, 0.0, 0.0]]),
                           [2.0, 0.0])


def test_untracked_trailing_block_of_size_one():
    # n = 5: block 2 is coordinate 4 alone, and it is not tracked
    rng = np.random.default_rng(115)
    sys = box_system(random_stable_matrix(rng, 5), random_box(rng, 5))
    tube = reach_decomposed(sys, 4, tracked={0, 1})
    full = reach_decomposed(sys, 4)
    for d in (np.eye(5)[4], np.array([0.0, 1.0, 0.0, 0.0, -1.0])):
        with pytest.raises(DimensionError):
            tube.support(2, d)
        with pytest.raises(DimensionError):
            tube.support_batch(2, [np.eye(5)[0], d])
    d = np.array([0.5, 0.0, -1.0, 2.0, 0.0])
    assert tube.support(2, d) == full.support(2, d)
    with pytest.raises(InputError) as exc:
        project_output(tube, np.eye(5)[4])
    assert "[2]" in str(exc.value)
    # coordinates 3 and 0 sit in the tracked blocks 1 and 0
    M = np.zeros((2, 5))
    M[0, 3] = 1.0
    M[1, 0] = 2.0
    for k, (S, T) in enumerate(zip(project_output(tube, M),
                                   project_output(full, M))):
        c = np.concatenate([tube.set_at(k, i).center for i in (0, 1)])
        r = np.concatenate([tube.set_at(k, i).radius for i in (0, 1)])
        npt.assert_allclose(S.center, [c[3], 2.0 * c[0]], rtol=1e-14, atol=1e-15)
        npt.assert_allclose(S.radius, [r[3], 2.0 * r[0]], rtol=1e-14, atol=1e-15)
        npt.assert_array_equal(S.center, T.center)
        npt.assert_array_equal(S.radius, T.radius)


@pytest.mark.parametrize("fast", [None, False])   # False: generic_tube
@pytest.mark.parametrize("kind", ["point", "box", "ball"])
def test_step_zero_sets_are_the_decomposed_blocks(kind, fast):
    rng = np.random.default_rng(116)
    n = 5
    X0 = {"point": Singleton(rng.standard_normal(n)),
          "box": random_box(rng, n),
          "ball": BallP(rng.standard_normal(n), 0.5, 2)}[kind]
    bs = BlockStructure(n)
    want = decompose(X0, bs)
    for tracked in ({2}, {0, 2}, {1}):
        build = reach_decomposed if fast is None else generic_tube
        tube = build(box_system(np.eye(n), X0), 2, tracked=tracked)
        for i in tracked:
            got = tube.set_at(0, i)
            assert type(got) is type(want[i])
            if kind == "point":
                npt.assert_array_equal(got.point, want[i].point)
            else:
                npt.assert_array_equal(got.center, want[i].center)
                npt.assert_array_equal(got.radius, want[i].radius)


def test_one_block_box_run_builds_no_set_per_untracked_block(monkeypatch):
    # the sets a one-block run builds do not depend on how many blocks
    # are left untracked
    def boxes_built(n):
        phi = sp.diags([np.full(n - 1, 0.05), np.full(n, 0.9),
                        np.full(n - 1, -0.05)], [-1, 0, 1], format="csr")
        sys = DiscreteSystem(phi, Hyperrectangle(np.ones(n), np.full(n, 0.1)),
                             Hyperrectangle(np.zeros(n), np.full(n, 0.01)), 0.1)
        assert sys.phi.is_sparse
        built = []
        init = Hyperrectangle.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Hyperrectangle, "__init__", counted)
            reach_decomposed(sys, 5, tracked={0})
        return len(built)

    assert boxes_built(2000) == boxes_built(200)


@pytest.mark.parametrize("inputs", ["constant", "sequence"])
def test_box_recurrence_builds_no_set_per_step(monkeypatch, inputs):
    # a collapsed box run holds its steps as arrays: the boxes it builds do
    # not depend on the step count, whether the input image is walked
    # (a constant input that is not a box) or boxed (a sequence)
    n = 6
    rng = np.random.default_rng(117)
    phi = 0.9 * rotation(0.3)
    phi = block_diag(phi, 0.8 * phi, 0.7 * np.eye(2))
    phi[0, 4] = 0.05
    X0 = random_box(rng, n)
    B = rng.standard_normal((n, 2))
    U = [Hyperrectangle(rng.standard_normal(2), [0.1, 0.2]) for _ in range(50)]

    def boxes_built(N):
        if inputs == "constant":
            sys = DiscreteSystem(phi, X0, MinkowskiSum(LinearMap(B, U[0]),
                                                       BallP(np.zeros(n), 0.1, 2)), 0.1)
            run = reach_decomposed
        else:
            sys = DiscreteSystem(phi, X0, [LinearMap(B, Uk) for Uk in U[:N]], 0.1)
            run = reach_decomposed_varying
        built = []
        init = Hyperrectangle.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Hyperrectangle, "__init__", counted)
            run(sys, N, tracked={0, 2})
        return len(built)

    assert boxes_built(50) == boxes_built(5)


def test_one_step_runs_form_no_matrix_power(monkeypatch):
    # step 0 is the initial set: a one-step run needs no rows of Phi^k,
    # which for all blocks would be an n x n array
    def no_power(*args):
        raise AssertionError("a one-step run formed a matrix power")

    monkeypatch.setattr("reachdec.reach.MatrixPowerState", no_power)
    X0 = Hyperrectangle(np.ones(3), np.full(3, 0.1))
    seq = [Hyperrectangle(np.zeros(3), np.full(3, 0.01))]
    prop = SafetyProperty(Atom([1.0, 0.0, 1.0], 5.0))
    for V in (seq[0], seq):
        sys = box_system(0.9 * np.eye(3), X0, V)
        run = reach_decomposed if sys.constant_input else reach_decomposed_varying
        for scheme in (BoxDirections(), EpsilonClose(0.1)):
            assert run(sys, 1, scheme=scheme).n_steps == 1
            assert check_property(sys, prop, 1, scheme=scheme).verified


def per_step_box_engine(sys, N, blocks):
    """(R, w_c, w_r) for the steps k = 1..N-1 of the box scheme over
    ``blocks``, one step at a time: R the rows of Phi^k, and (w_c, w_r)
    the input box, w <- w + box(Phi^(k-1) V) for a constant box V and
    w <- Phi w + box(V(k-1)) for a sequence of boxes."""
    cols = BlockStructure(sys.n).coords(blocks)
    power = MatrixPowerState(sys.phi, blocks)
    w_c = w_r = np.zeros(cols.size if sys.constant_input else sys.n)
    out = []
    for k in range(1, N):
        if sys.constant_input:
            P = power.P.data
            w_c = w_c + row_products(P, sys.v.center)
            w_r = w_r + row_products(np.abs(P), sys.v.radius)
            out.append((power.Q.data, w_c, w_r))
        else:
            V = sys.v_at(k - 1)
            w_c = sys.phi @ w_c + V.center
            w_r = sys.phi.abs() @ w_r + V.radius
            out.append((power.Q.data, w_c[cols], w_r[cols]))
        power.advance()
    return out


def box_start(sys):
    x = sys.x_init
    if isinstance(x, Singleton):
        return Hyperrectangle(x.point, np.zeros(x.dim))
    return x


def per_step_tube(sys, N, blocks):
    """(centers, radii) of the box tube over ``blocks``, step by step."""
    x0 = box_start(sys)
    cols = BlockStructure(sys.n).coords(blocks)
    centers, radii = [x0.center[cols]], [x0.radius[cols]]
    for R, w_c, w_r in per_step_box_engine(sys, N, blocks):
        centers.append(row_products(R, x0.center) + w_c)
        radii.append(row_products(np.abs(R), x0.radius) + w_r)
    return np.array(centers), np.array(radii)


def per_step_supports(sys, N, L):
    """The lazy supports of the box scheme in the rows of L, step by
    step and block by block."""
    bs = BlockStructure(sys.n)
    blocks = sorted({int(i) for i in bs.block_of(np.flatnonzero(L.any(axis=0)))})
    x0 = box_start(sys)
    cols = bs.coords(blocks)
    local = BlockStructure(cols.size)
    steps = [(None, x0.center[cols], x0.radius[cols])]
    out = []
    for R, c, r in steps + per_step_box_engine(sys, N, blocks):
        total = np.zeros(len(L))
        for p, i in enumerate(blocks):
            sub = L[:, bs.slice(i)]
            rows = np.any(sub != 0.0, axis=1)
            L_b, s = sub[rows], local.slice(p)
            value = L_b @ c[s] + np.abs(L_b) @ r[s]
            total[rows] += value if R is None else x0.support_batch(L_b @ R[s]) + value
        out.append(total)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 9, 33])
def test_box_engine_chunks_are_bitwise_the_per_step_loop(monkeypatch, N):
    # the chunked engine against the per-step loop, at every chunk
    # boundary under a budget of three steps (chunks 1, 2, 3, 3, ...) and
    # under the default one; tobytes tells -0.0 from 0.0, as the CSV does
    rng = np.random.default_rng(77)
    n = 7
    phi = 0.9 * rng.uniform(-1.0, 1.0, (n, n)) / np.sqrt(n)
    phi[rng.uniform(size=(n, n)) < 0.3] = 0.0
    phi[0, 3] = -0.0
    inputs = {"constant": random_box(rng, n, 0.1),
              "sequence": [random_box(rng, n, 0.1) for _ in range(N)]}
    starts = {"point": Singleton(rng.uniform(-1.0, 1.0, n)),
              "box": random_box(rng, n)}
    L = rng.normal(size=(3, n))
    cases = itertools.product(("constant", "sequence"), ("dense", "csr"),
                              ("point", "box"), ((1,), None), (True, False))
    for inp, storage, start, tracked, small in cases:
        M = BlockMatrix(sp.csr_array(phi) if storage == "csr" else phi)
        sys = box_system(M, starts[start], inputs[inp])
        blocks = tuple(range(4)) if tracked is None else tracked
        cols = BlockStructure(n).coords(blocks)
        budget = 3 * cols.size * n if small else reachdec.reach._CHUNK_ENTRIES
        monkeypatch.setattr(reachdec.reach, "_CHUNK_ENTRIES", budget)
        run = reach_decomposed if inp == "constant" else reach_decomposed_varying
        tube = run(sys, N, tracked=tracked)
        centers, radii = per_step_tube(sys, N, blocks)
        assert tube.centers.tobytes() == centers.tobytes()
        assert tube.radii.tobytes() == radii.tobytes()
        L_read = L * np.isin(np.arange(n), cols)
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(_lazy_supports(sys, N, L_read))
        want = per_step_supports(sys, N, L_read)
        assert len(got) == len(want) == N
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        monkeypatch.undo()


def each_hull(sets):
    """(C, R, error): ``_box_bounds`` of each set in turn, up to the first
    that raises, and what it raised."""
    C, R = [], []
    for V in sets:
        try:
            c, r = _box_bounds(V)
        except EngineError as exc:
            return C, R, exc
        C.append(c)
        R.append(r)
    return C, R, None


def assert_same_rows(got, want):
    (C, R, error), (C0, R0, error0) = got, want
    assert len(C) == len(R) == len(C0) == len(R0)
    for c, r, c0, r0 in zip(C, R, C0, R0):
        assert c.tobytes() == c0.tobytes() and r.tobytes() == r0.tobytes()
    assert type(error) is type(error0) and str(error) == str(error0)


@st.composite
def mapped_operands(draw):
    """(matrices, operands): one or two dense matrices, whose product maps
    the boxes and points ``operands``, with signed zeros, magnitudes over
    16 decades, and a scale at which some products overflow."""
    dims = draw(st.lists(st.integers(1, 40), min_size=2, max_size=3))
    scale = draw(st.sampled_from([1.0, 1e150, 1e299]))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def entries(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        return np.where(rng.uniform(size=shape) < zeros,
                        np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0), x)

    matrices = [entries(a, b) for a, b in zip(dims, dims[1:])]
    matrices[0] *= scale
    p = dims[-1]
    operands = [Hyperrectangle(entries(p), np.abs(entries(p))) if rng.uniform() < 0.5
                else Singleton(entries(p)) for _ in range(draw(st.integers(1, 8)))]
    return matrices, operands


@contextlib.contextmanager
def hull_walks():
    """The sets that ``approx._box_bounds`` walks while the block runs."""
    walks = []
    walk = reachdec.approx._box_bounds
    reachdec.approx._box_bounds = lambda X: walks.append(X) or walk(X)
    try:
        yield walks
    finally:
        reachdec.approx._box_bounds = walk


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mapped_operands(), st.booleans())
def test_batched_input_hulls_are_bitwise_each_hull(case, csr):
    # the stacked products of the box engine against the axis walk of each
    # map, of a box or point or of a map of one (Phi1 B U): every row, its
    # signed zeros, and the first error, where the scale overflows
    matrices, operands = case
    shared = [_Matrix.checked(sp.csr_array(M) if csr else M) for M in matrices]
    sets = list(operands)
    for m in reversed(shared):
        sets = [LinearMap(m, X) for X in sets]
    with np.errstate(over="ignore", invalid="ignore"):
        want = each_hull(sets)
        with hull_walks() as walks:
            assert_same_rows(_box_bounds_rows(sets), want)
    # the rows came from the stacked products (a product of two CSR
    # matrices need not have sorted indices, and is walked set by set)
    if want[2] is None and not (csr and len(matrices) == 2):
        assert walks == []


def test_batched_input_hulls_walk_each_other_set():
    # maps over different matrices, or of sets other than boxes and
    # points, are bounded one set at a time
    rng = np.random.default_rng(133)
    M = rng.standard_normal((4, 3))
    box = random_box(rng, 3)
    cases = [[LinearMap(M, box), LinearMap(M.copy(), box)],
             [LinearMap(M, box), LinearMap(M, BallP(np.zeros(3), 0.5, 2))],
             [LinearMap(M, box), Singleton(np.zeros(4))],
             [random_box(rng, 4), random_box(rng, 4)]]
    for sets in cases:
        assert_same_rows(_box_bounds_rows(sets), each_hull(sets))


def csr_arrays(S):
    return [a.tobytes() for a in (S.indptr, S.indices, S.data)]


def test_checked_and_composed_csr_matrices_are_canonical_copies():
    # a checked CSR matrix and the product of two are canonical, sorted
    # indices and each position once; the caller's arrays stay as given,
    # also once |M| is formed, which scipy forms by sorting in place
    rng = np.random.default_rng(137)
    given = [unsorted_csr(rng.standard_normal((6, 6))),
             unsorted_csr(rng.standard_normal((6, 8)))]
    before = [csr_arrays(S) for S in given]
    outer, inner = (_Matrix.checked(S) for S in given)
    product = _transform_compose(outer, inner)
    for m in (outer, inner, product):
        m.abs
        assert m.M.has_canonical_format
    assert [csr_arrays(S) for S in given] == before
    npt.assert_allclose(product.M.toarray(), given[0].toarray() @ given[1].toarray(),
                        rtol=1e-13)


def test_batched_input_hulls_keep_the_order_of_an_unsorted_csr_matrix():
    # the hulls of a sequence mapped by a CSR M, or by Phi1 B with both
    # given with unsorted rows, are bitwise each set's own hull, and these
    # are the same whether |M| has been formed first or not
    rng = np.random.default_rng(136)
    phi1 = rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-8, 8, (6, 6))
    B = rng.standard_normal((6, 8)) * 10.0 ** rng.uniform(-8, 8, (6, 8))
    operands = [random_box(rng, 8) for _ in range(12)]
    outcomes = []
    for absolute_first in (False, True):
        outer, inner = _Matrix.checked(unsorted_csr(phi1)), _Matrix.checked(unsorted_csr(B))
        if absolute_first:
            outer.abs, inner.abs
        for sets in ([LinearMap(inner, U) for U in operands],
                     [LinearMap(outer, LinearMap(inner, U)) for U in operands]):
            want = each_hull(sets)
            assert_same_rows(_box_bounds_rows(sets), want)
            assert_same_rows(each_hull(sets), want)
            outcomes.append(want)
    for got, want in zip(outcomes[2:], outcomes[:2]):
        assert_same_rows(got, want)


def per_step_input_boxes(sys, N, cols):
    """([(k, w_c, w_r)], error): the input box w <- Phi w + box(V(k - 1))
    of a sequence at the steps k = 1, 2, ..., one step at a time, up to
    the first step whose input raises, and what it raised."""
    w_c = w_r = np.zeros(sys.n)
    out = []
    for k in range(1, N):
        try:
            v_c, v_r = _box_bounds(sys.v_at(k - 1))
        except EngineError as exc:
            return out, exc
        w_c, w_r = sys.phi @ w_c + v_c, sys.phi.abs() @ w_r + v_r
        out.append((k, w_c[cols], w_r[cols]))
    return out, None


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("fault", ["overflow", "short"])
def test_box_steps_end_a_sequence_at_its_first_bad_input(monkeypatch, storage, fault):
    # V(6) overflows, or the sequence ends before it: whatever the chunks,
    # steps 1..6 are yielded bitwise as the per-step loop forms them, and
    # step 7 raises what the per-step loop raises
    rng = np.random.default_rng(134)
    n, N = 6, 12
    phi = random_stable_matrix(rng, n, sparse=storage == "csr")
    M = rng.standard_normal((n, 3))
    M[:, 0] = 2.0
    shared = _Matrix.checked(sp.csr_array(M) if storage == "csr" else M)
    U = [random_box(rng, 3, 0.1) for _ in range(N - 1)]
    if fault == "overflow":
        U[6] = Hyperrectangle([1e308, 0.0, 0.0], [1e308, 0.0, 0.0])
    else:
        U = U[:6]
    sys = DiscreteSystem(phi, random_box(rng, n), [LinearMap(shared, Uk) for Uk in U],
                         0.1)
    bs = BlockStructure(n)
    for blocks in ((1,), (0, 1, 2)):
        cols = bs.coords(blocks)
        for budget in (1, 3 * cols.size * n, reachdec.reach._CHUNK_ENTRIES):
            monkeypatch.setattr(reachdec.reach, "_CHUNK_ENTRIES", budget)
            steps, error = [], None
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    for k, R, W_c, W_r in _box_steps(sys, N, bs, blocks):
                        steps += zip(range(k, k + len(R)), W_c, W_r)
                except EngineError as exc:
                    error = exc
                want, want_error = per_step_input_boxes(sys, N, cols)
            assert [k for k, _, _ in steps] == [k for k, _, _ in want] == list(range(1, 7))
            for (_, c, r), (_, c0, r0) in zip(steps, want):
                assert c.tobytes() == c0.tobytes() and r.tobytes() == r0.tobytes()
            assert type(error) is type(want_error) and str(error) == str(want_error)
            assert ("non-finite support value" if fault == "overflow" else
                    "input sequence has 6 entries, step 6 requested") in str(error)
            monkeypatch.undo()


@pytest.mark.parametrize("with_B", [False, True])
def test_box_steps_bound_a_chunk_of_inputs_in_one_call(monkeypatch, with_B):
    # a count, not a clock: the input hulls of a discretized sequence, with
    # or without B, take one batched call per chunk of steps, and no hull
    # walk per step
    rng = np.random.default_rng(135)
    n, N = 6, 40
    A = random_stable_matrix(rng, n).data - 0.5 * np.eye(n)
    B = rng.standard_normal((n, 3)) if with_B else None
    U = [random_box(rng, 3 if with_B else n, 0.1) for _ in range(N)]
    sys = discretize_discrete(ContinuousSystem(A, random_box(rng, n), B, U), 0.1)
    calls = []
    rows = reachdec.reach._box_bounds_rows

    def counted(sets):
        calls.append(len(sets))
        return rows(sets)

    def no_walk(_X):
        raise AssertionError("an input hull was walked on its own")

    monkeypatch.setattr(reachdec.reach, "_box_bounds_rows", counted)
    monkeypatch.setattr(reachdec.approx, "_box_bounds", no_walk)
    chunks = [len(R) for _, R, _, _ in _box_steps(sys, N, BlockStructure(n), (0, 1, 2))]
    assert calls == chunks and sum(chunks) == N - 1 and len(chunks) < 8
    calls.clear()
    tube = reach_decomposed_varying(sys, N, tracked={1})
    assert tube.n_steps == N and sum(calls) == N - 1 and len(calls) < 8


def test_box_tube_sets_and_arrays_are_read_only():
    sys = box_system(0.9 * np.eye(3), Hyperrectangle(np.ones(3), np.full(3, 0.1)),
                     Hyperrectangle(np.zeros(3), np.full(3, 0.01)))
    tube = reach_decomposed(sys, 4)
    for k in range(4):
        for i in tube.tracked:
            box = tube.set_at(k, i)
            assert box is tube.set_at(k, i)
            for a in (box.center, box.radius, *tube.box_bounds()[i]):
                with pytest.raises(ValueError):
                    a[0] = 0.0


@pytest.mark.parametrize("scheme", [BoxDirections(), EpsilonClose(0.05)])
def test_relabeled_tube_numbers_the_blocks_of_the_larger_system(scheme):
    # a tube of a cut system (blocks 0, 1, 2) read as blocks 1, 4, 6 of a
    # system of 7 blocks: the same sets under the new numbers
    phi = block_diag(0.9 * rotation(0.4), 0.8 * rotation(-0.3), np.array([[0.7]]))
    sys = box_system(phi, Hyperrectangle(np.linspace(-1.0, 1.0, 5), np.full(5, 0.2)),
                     Hyperrectangle(np.zeros(5), np.full(5, 0.01)))
    tube = reach_decomposed(sys, 4, tracked={0, 2}, scheme=scheme)
    kept = (1, 4, 6)
    big = BlockStructure(13)
    moved = tube.relabeled(big, kept)
    assert moved.bs is big and moved.tracked == (1, 6) and moved.n_steps == 4
    for k in range(4):
        for p in tube.tracked:
            got, want = moved.box_hull(k, kept[p]), tube.box_hull(k, p)
            npt.assert_array_equal(got.center, want.center)
            npt.assert_array_equal(got.radius, want.radius)
    assert ([(k, kept[p], P) for k, p, P in tube.polygons()]
            == list(moved.polygons()))
    assert any(True for _ in tube.polygons()) == isinstance(scheme, EpsilonClose)


def test_tube_box_hull():
    phi = block_diag(rotation(0.5), np.eye(2))
    X0 = Hyperrectangle(np.zeros(4), np.ones(4))
    tube = generic_tube(box_system(phi, X0), 4, lazy=True)
    H = tube.box_hull(2, 0)
    assert isinstance(H, Hyperrectangle)
    E = np.vstack([np.eye(2), -np.eye(2)])
    npt.assert_allclose(H.support_batch(E),
                        tube.set_at(2, 0).support_batch(E), atol=1e-12)


@pytest.mark.parametrize("scheme", [BoxDirections(), EpsilonClose(0.1)])
def test_a_power_that_no_step_reads_may_overflow(scheme):
    # Phi^2 = 1e400 overflows, but the steps of a two-step run read Phi^0
    # and Phi^1 alone: the run gives the oracle's boxes
    sys = DiscreteSystem([[1e200]], Hyperrectangle([1.0], [0.5]), None, 1.0)
    tube = reach_decomposed(sys, 2, scheme=scheme)
    oracle = reach_nondecomposed(sys, 2, np.array([[1.0], [-1.0]]))
    hulls = [(0.5, 1.5), (5e199, 1.5e200)]
    for k, (low, high) in enumerate(hulls):
        box = tube.box_hull(k, 0)
        assert (box.low.tolist(), box.high.tolist()) == ([low], [high])
        assert oracle[k].tolist() == [high, -low]


# ----------------------------------------------------------------------
# safety checking
# ----------------------------------------------------------------------

def atom_x(coord, n, bound, strict=True):
    c = np.zeros(n)
    c[coord] = 1.0
    return Atom(c, bound, strict=strict)


def test_atom_refuses_non_finite_coefficients_and_bounds():
    for coeffs, bound in (([1.0, np.inf], 1.0), ([np.nan, 0.0], 1.0),
                          ([1.0, 0.0], np.inf), ([1.0, 0.0], -np.inf),
                          ([1.0, 0.0], np.nan)):
        with pytest.raises(InputError) as exc:
            Atom(coeffs, bound)
        assert (exc.value.tag(), str(exc.value)) == (
            "error:reach:schema", "Atom: coefficients and bound must be finite")
    assert Atom([1.0, -1e308], 1e308).bound == 1e308


def test_check_stationary_system():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    ok = check_property(sys, SafetyProperty(atom_x(0, 4, 2.0)), 25)
    assert ok and ok.verified and ok.step is None

    bad = check_property(sys, SafetyProperty(atom_x(0, 4, 0.5)), 25)
    assert not bad
    assert bad.step == 0
    npt.assert_allclose(bad.value, 1.0, atol=1e-15)
    assert "y1" in bad.atom


def test_check_strictness_at_the_boundary():
    sys = box_system(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]))
    strict = SafetyProperty(atom_x(0, 2, 1.0, strict=True))
    assert not check_property(sys, strict, 5)
    loose = SafetyProperty(atom_x(0, 2, 1.0, strict=False))
    assert check_property(sys, loose, 5)


def test_check_unstable_scalar_crossing():
    # x' = x, X0 = [1, 1.1], step 0.1: the bound 2 falls at step 6 since
    # 1.1 e^{0.5} < 2 <= 1.1 e^{0.6}
    sysc = ContinuousSystem([[1.0]], Hyperrectangle([1.05], [0.05]))
    sysd = discretize_discrete(sysc, 0.1)
    res = check_property(sysd, SafetyProperty(Atom([1.0], 2.0)), 20)
    assert not res.verified
    assert res.step == 6
    npt.assert_allclose(res.value, 1.1 * np.exp(0.6), rtol=1e-9)
    npt.assert_allclose(res.value, 2.0044, atol=2e-4)
    assert 1.1 * np.exp(0.5) < 2.0     # step 5 still certified


def test_check_output_matrix():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    C = np.array([[2.0, 0.0, 0.0, -3.0]])
    ok = check_property(sys, SafetyProperty(Atom([1.0], 6.0), C=C), 10)
    assert ok.verified      # sup 2 x1 - 3 x4 = 5
    bad = check_property(sys, SafetyProperty(Atom([1.0], 4.0), C=C), 10)
    assert bad.step == 0
    npt.assert_allclose(bad.value, 5.0, atol=1e-12)


def test_check_feedthrough():
    U = Hyperrectangle([0.25], [0.25])
    sysc = ContinuousSystem(np.zeros((2, 2)),
                            Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                            B=np.array([[0.0], [0.0]]), U=U)
    sysd = discretize_discrete(sysc, 0.1)
    C = np.eye(2)
    D = np.array([[1.0], [0.0]])
    prop = SafetyProperty(Atom([1.0, 0.0], 1.6), C=C, D=D)
    assert check_property(sysd, prop, 5).verified       # 1 + 0.5 < 1.6
    tight = SafetyProperty(Atom([1.0, 0.0], 1.5), C=C, D=D)
    res = check_property(sysd, tight, 5)
    assert res.step == 0
    npt.assert_allclose(res.value, 1.5, atol=1e-12)

    plain = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                           None, 0.1)
    with pytest.raises(InputError):
        check_property(plain, tight, 5)


def test_check_boolean_structure():
    sys = box_system(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]))
    n = 2
    good_or = SafetyProperty(Or([atom_x(0, n, 0.5), atom_x(0, n, 3.0)]))
    assert check_property(sys, good_or, 5).verified
    good_and = SafetyProperty(And([atom_x(0, n, 3.0), atom_x(1, n, 2.0)]))
    assert check_property(sys, good_and, 5).verified
    bad_or = SafetyProperty(Or([atom_x(0, n, 0.5), atom_x(1, n, 0.25)]))
    res = check_property(sys, bad_or, 5)
    assert not res.verified and res.step == 0
    bad_and = SafetyProperty(And([atom_x(0, n, 3.0), atom_x(1, n, 0.5)]))
    res = check_property(sys, bad_and, 5)
    assert not res.verified
    npt.assert_allclose(res.value, 1.0, atol=1e-15)


def test_check_agrees_with_oracle_crossing():
    # growing spiral: the coordinate supports oscillate upward, and the
    # checker's first uncertified step must match the exact recurrence
    phi = 1.03 * rotation(0.3)
    X0 = Hyperrectangle([1.0, 0.0], [0.1, 0.1])
    sys = box_system(phi, X0)
    N = 40
    oracle = reach_nondecomposed(sys, N, np.array([[1.0, 0.0]]))[:, 0]
    bound = 0.5 * (oracle.max() + oracle.min())
    res = check_property(sys, SafetyProperty(atom_x(0, 2, bound)), N)
    expect_step = int(np.nonzero(oracle >= bound)[0][0])
    assert not res.verified
    assert res.step == expect_step
    npt.assert_allclose(res.value, oracle[expect_step], atol=1e-12)
    # a bound above the oracle maximum is certified, and the oracle agrees
    safe = check_property(sys, SafetyProperty(atom_x(0, 2, oracle.max() + 0.1)),
                          N)
    assert safe.verified
    assert np.all(oracle < oracle.max() + 0.1)


def test_check_rejects_bad_properties():
    sys = box_system(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(DimensionError):
        check_property(sys, SafetyProperty(Atom([1.0, 0.0, 0.0], 1.0)), 5)
    with pytest.raises(DimensionError):
        check_property(sys, SafetyProperty(Atom([1.0, 0.0], 1.0),
                                           C=np.eye(2)[:1]), 5)
    with pytest.raises(InputError):
        check_property(sys, SafetyProperty(And([])), 5)
    with pytest.raises(InputError):
        check_property(sys, SafetyProperty("x1 < 2"), 5)


def test_check_rejects_the_runs_reach_rejects():
    # the checker takes the same step count, block structure and input
    # sequence length as the reach tube, and rejects them before any step,
    # whatever the property's verdict would be
    seq = [Singleton([0.0, 0.0])] * 4
    sys = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                         seq, 0.1)
    holds = SafetyProperty(atom_x(0, 2, 5.0))
    fails_at_0 = SafetyProperty(atom_x(0, 2, 0.5))
    for N, prop in ((5, holds), (6, holds), (50, fails_at_0)):
        with pytest.raises(InputError):
            reach_decomposed_varying(sys, N)
        with pytest.raises(InputError) as exc:
            check_property(sys, prop, N)
        assert exc.value.tag() == "error:reach:schema"
    assert check_property(sys, holds, 4).verified
    assert not check_property(sys, fails_at_0, 4)
    with pytest.raises(InputError):
        check_property(sys, holds, 0)


def test_check_box_inputs_collapse_nothing(monkeypatch):
    # the box scheme accumulates a sequence of mapped and rounded input
    # sets in closed form: no step is collapsed through `approximate`
    rng = np.random.default_rng(112)
    n, N = 6, 15
    phi = random_stable_matrix(rng, n)
    M = rng.standard_normal((n, n))
    seq = [LinearMap(0.05 * M, random_box(rng, n, scale=0.1)) if k % 2 else
           MinkowskiSum(BallP(rng.uniform(-0.1, 0.1, n), 0.05, 2),
                        Singleton(rng.uniform(-0.1, 0.1, n)))
           for k in range(N)]
    sys = DiscreteSystem(phi, random_box(rng, n), seq, 0.1)
    coeffs = np.array([1.0, -0.5, 0.0, 0.0, 2.0, 0.0])
    values = np.array([s[0] for s in _lazy_supports(sys, N, coeffs[None])])
    bound = float(np.quantile(values, 0.6))

    def no_collapse(X, scheme):
        raise AssertionError("box-scheme inputs must not be collapsed")

    monkeypatch.setattr("reachdec.approx.approximate", no_collapse)
    monkeypatch.setattr("reachdec.reach.approximate", no_collapse)
    res = check_property(sys, SafetyProperty(Atom(coeffs, bound)), N)
    k = int(np.nonzero(values >= bound)[0][0])
    assert (res.verified, res.step, res.value) == (False, k, values[k])
    assert check_property(sys, SafetyProperty(Atom(coeffs, values.max() + 1.0)),
                          N).verified


@pytest.mark.parametrize("inputs", ["constant", "sequence"])
def test_box_check_builds_no_set_after_step_zero(monkeypatch, inputs):
    # under the box scheme the checker reads each step's rows of Phi^k and
    # input box as arrays: the sets it builds (those of step 0) do not
    # depend on the step count
    n = 6
    rng = np.random.default_rng(119)
    phi = block_diag(0.9 * rotation(0.3), 0.8 * rotation(-0.2), 0.7 * np.eye(2))
    phi[0, 4] = 0.05
    B = rng.standard_normal((n, 2))
    U = [Hyperrectangle(rng.standard_normal(2), [0.1, 0.2]) for _ in range(8)]
    V = (MinkowskiSum(LinearMap(B, U[0]), BallP(np.zeros(n), 0.1, 2))
         if inputs == "constant" else [LinearMap(B, Uk) for Uk in U])
    sys = DiscreteSystem(phi, random_box(rng, n), V, 0.1)
    prop = SafetyProperty(And([Atom([1.0, 0.0, 0.0, 0.0, -2.0, 0.5], 1e6),
                               Atom([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1e6)]))

    def sets_built(N):
        built = []
        with monkeypatch.context() as m:
            for cls in (Hyperrectangle, LinearMap, MinkowskiSum):
                def counted(self, *args, _init=cls.__init__, **kwargs):
                    built.append(self)
                    _init(self, *args, **kwargs)
                m.setattr(cls, "__init__", counted)
            assert check_property(sys, prop, N).verified
        return len(built)

    assert sets_built(8) == sets_built(1)


def test_check_of_atoms_that_read_no_state():
    # an atom that is zero on the state reads no block: its support is 0
    # at every step, under either scheme
    sys = box_system(0.5 * np.eye(3), Hyperrectangle(np.ones(3), np.full(3, 0.1)),
                     Hyperrectangle(np.zeros(3), np.full(3, 0.01)))
    for scheme in (BoxDirections(), EpsilonClose(0.1)):
        assert check_property(sys, SafetyProperty(Atom(np.zeros(3), 1.0)), 4,
                              scheme=scheme).verified
        res = check_property(sys, SafetyProperty(Atom(np.zeros(3), -1.0)), 4,
                             scheme=scheme)
        assert (res.verified, res.step, res.value) == (False, 0, 0.0)


def test_eps_close_with_a_block_that_maps_a_direction_to_zero():
    # block (1, 0) of Phi = [[0.1, 0], [0, 0]] maps the direction e2 of
    # block 1 to zero, so the polygon of block 0 is asked for its support
    # in direction 0, which is 0
    phi = np.diag([0.5] * 4)
    phi[2, 0] = 0.1
    X0 = BallP(np.zeros(4), 1.0, 2)
    V = Hyperrectangle(np.zeros(4), np.full(4, 0.01))
    N, scheme = 5, EpsilonClose(0.01)
    L = np.vstack([np.eye(4), -np.eye(4), sample_directions(4, 16, seed=3)])
    sys = DiscreteSystem(phi, X0, V, 0.1)
    exact = reach_nondecomposed(sys, N, L)
    lazy = list(_lazy_supports(sys, N, L, scheme))
    tubes = [reach_decomposed(sys, N, scheme=scheme),
             reach_decomposed_varying(DiscreteSystem(phi, X0, [V] * N, 0.1),
                                      N, scheme=scheme)]
    for k in range(N):
        collapsed, varying = (t.support_batch(k, L) for t in tubes)
        assert np.all(np.isfinite(collapsed))
        assert np.all(exact[k] <= lazy[k] + 1e-9)
        assert np.all(lazy[k] <= collapsed + 1e-12)
        npt.assert_allclose(varying, collapsed, rtol=1e-12)


# ----------------------------------------------------------------------
# output projection
# ----------------------------------------------------------------------

def test_project_block_projection_is_passthrough():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    tube = reach_decomposed(sys, 5)
    M = np.zeros((2, 4))
    M[0, 2] = 1.0
    M[1, 3] = 1.0
    out = project_output(tube, M)
    assert len(out) == 5
    for k in range(5):
        assert out[k] is tube.set_at(k, 1)


def test_project_sum_of_coordinates():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    tube = reach_decomposed(sys, 4)
    out = project_output(tube, np.array([1.0, 0.0, 1.0, 0.0]))
    for S in out:
        assert S.dim == 1
        npt.assert_allclose(S.support_function([1.0]), 2.0, atol=1e-12)
        npt.assert_allclose(S.support_function([-1.0]), 2.0, atol=1e-12)


def test_project_random_map_against_vertex_oracle():
    rng = np.random.default_rng(108)
    phi = random_stable_matrix(rng, 4)
    X0 = random_box(rng, 4)
    tube = reach_decomposed(box_system(phi, X0), 6)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    for rows in (1, 2):
        M = rng.standard_normal((rows, 4))
        out = project_output(tube, M)
        E = np.vstack([np.eye(rows), -np.eye(rows)])
        for k in range(6):
            c = np.concatenate([tube.set_at(k, i).center for i in (0, 1)])
            r = np.concatenate([tube.set_at(k, i).radius for i in (0, 1)])
            verts = (c + corners * r) @ M.T
            expect = (E @ verts.T).max(axis=1)
            npt.assert_allclose(out[k].support_batch(E), expect, atol=1e-9)
            L = rng.standard_normal((50, rows))
            assert np.all((verts @ L.T).max(axis=0)
                          <= out[k].support_batch(L) + 1e-9)


def test_project_eps_scheme_tightens_random_directions():
    phi = block_diag(rotation(0.6), rotation(-0.2))
    X0 = Hyperrectangle(np.zeros(4), np.ones(4))
    tube = generic_tube(box_system(phi, X0), 3, lazy=True)
    M = np.array([[1.0, 0.5, 0.3, 0.0], [0.2, 0.0, 1.0, -0.5]])
    boxed = project_output(tube, M)
    sharp = project_output(tube, M, scheme=EpsilonClose(1e-4))
    rng = np.random.default_rng(109)
    L = rng.standard_normal((100, 2))
    for k in range(3):
        slack = boxed[k].support_batch(L) - sharp[k].support_batch(L)
        assert slack.min() >= -1e-9
    assert (boxed[1].support_batch(L) - sharp[1].support_batch(L)).max() > 1e-4


def test_project_rejects_untracked_and_malformed():
    sys = box_system(np.eye(4), Hyperrectangle(np.zeros(4), np.ones(4)))
    tube = reach_decomposed(sys, 3, tracked={0})
    with pytest.raises(InputError) as exc:
        project_output(tube, np.array([1.0, 0.0, 1.0, 0.0]))
    assert "[1]" in str(exc.value)
    with pytest.raises(DimensionError):
        project_output(tube, np.ones((3, 4)))
    with pytest.raises(DimensionError):
        project_output(tube, np.ones((1, 3)))
