"""Reference supports, sampled distances, error bounds, and simulation."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_box, random_polygon, random_stable_matrix
from reachdec import (
    BallP,
    BlockMatrix,
    BlockStructure,
    CartesianProduct,
    ContainmentError,
    ContinuousSystem,
    DENSE,
    DISCRETE,
    DecompositionErrorReport,
    DimensionError,
    DiscreteSystem,
    Hyperrectangle,
    InputError,
    LazySet,
    LinearMap,
    MinkowskiSum,
    NonFiniteError,
    Singleton,
    decomposed_image,
    decomposed_map_error_bound,
    discretize,
    dual_exponent,
    hausdorff_estimate,
    make_error_report,
    reach_nondecomposed,
    recurrence_error_bound,
    recurrence_error_bound_uniform,
    sample_directions,
    set_diameter,
    simulate,
    support_membership,
)
from reachdec.oracle import _geometric_tail, support_gaps
from reachdec.reach import _lazy_supports


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ----------------------------------------------------------------------
# directions and exponents
# ----------------------------------------------------------------------

def test_sample_directions_one_dimensional():
    npt.assert_array_equal(sample_directions(1, 1), [[1.0]])
    npt.assert_array_equal(sample_directions(1, 2), [[1.0], [-1.0]])


def test_sample_directions_planar_even_angles():
    D = sample_directions(2, 8)
    angles = 2.0 * np.pi * np.arange(8) / 8
    npt.assert_allclose(D, np.column_stack([np.cos(angles), np.sin(angles)]),
                        atol=1e-15)


def test_sample_directions_high_dim():
    D = sample_directions(5, 200, seed=42)
    assert D.shape == (200, 5)
    npt.assert_allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-12)
    npt.assert_array_equal(D, sample_directions(5, 200, seed=42))
    assert not np.allclose(D, sample_directions(5, 200, seed=43))
    assert np.abs(D.mean(axis=0)).max() < 0.2   # roughly balanced coverage


def test_sample_directions_validation():
    with pytest.raises(InputError):
        sample_directions(0, 5)
    with pytest.raises(InputError):
        sample_directions(3, 0)


def test_dual_exponent():
    assert dual_exponent(1.0) == np.inf
    assert dual_exponent(np.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    npt.assert_allclose(dual_exponent(4.0), 4.0 / 3.0)
    for p in (1.5, 3.0, 7.0):
        assert abs(1.0 / p + 1.0 / dual_exponent(p) - 1.0) < 1e-15
    with pytest.raises(InputError):
        dual_exponent(0.5)


# ----------------------------------------------------------------------
# sampled Hausdorff distance
# ----------------------------------------------------------------------

def test_hausdorff_scaled_disc_is_exact():
    # the support gap is the 2-norm of the dual-normalized direction, so
    # the extremal direction is axis-aligned for p in {2, inf} (distance 1)
    # and diagonal for p = 1 (distance sqrt 2); all are sampled exactly
    X = BallP([0.0, 0.0], 1.0, 2)
    Y = BallP([0.0, 0.0], 2.0, 2)
    npt.assert_allclose(hausdorff_estimate(X, Y, p=2.0), 1.0, atol=1e-12)
    npt.assert_allclose(hausdorff_estimate(X, Y, p=np.inf), 1.0, atol=1e-12)
    npt.assert_allclose(hausdorff_estimate(X, Y, p=1.0), np.sqrt(2.0),
                        atol=1e-12)
    npt.assert_allclose(hausdorff_estimate(X, X), 0.0, atol=1e-15)


def test_hausdorff_disc_in_square_closed_forms():
    # square = [-1,1]^2, disc = unit 2-ball; the extreme gap sits on the
    # diagonal: sqrt(2)-1 in the 2-norm, 1 - 1/sqrt(2) in the sup norm
    disc = BallP([0.0, 0.0], 1.0, 2)
    square = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    d2 = hausdorff_estimate(disc, square, p=2.0)
    npt.assert_allclose(d2, np.sqrt(2.0) - 1.0, atol=1e-6)
    assert d2 <= np.sqrt(2.0) - 1.0 + 1e-12        # converges from below
    dinf = hausdorff_estimate(disc, square, p=np.inf)
    npt.assert_allclose(dinf, 1.0 - 1.0 / np.sqrt(2.0), atol=1e-6)
    assert dinf <= 1.0 - 1.0 / np.sqrt(2.0) + 1e-12


def test_hausdorff_explicit_directions():
    X = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    Y = Hyperrectangle([0.0, 0.0], [1.5, 1.0])
    # only the x axis sees the growth
    assert hausdorff_estimate(X, Y, directions=np.array([[1.0, 0.0]])) == 0.5
    assert hausdorff_estimate(X, Y, directions=np.array([[0.0, 1.0]])) == 0.0


def test_support_gaps_allow_rounding_relative_to_the_values():
    # the allowance is 1e-9 times max(1, |outer|, |inner|)
    big = np.array([1e306, -1e306])
    npt.assert_array_equal(support_gaps(big, big * (1 + 1e-12), "gap", "oracle"),
                           big - big * (1 + 1e-12))
    support_gaps(np.array([0.0]), np.array([0.9e-9]), "gap", "oracle")
    with pytest.raises(ContainmentError) as exc:
        support_gaps(np.array([0.0, 1e300]), np.array([1.1e-9, 1e300]), "gap", "oracle")
    assert str(exc.value) == ("gap is -1.100e-09 in direction 0, "
                              "below the rounding allowance -1.000e-09")
    with pytest.raises(ContainmentError):
        support_gaps(np.array([2.0]), np.array([2.0 + 4.1e-9]), "gap", "oracle")
    with pytest.raises(NonFiniteError) as exc:
        support_gaps(np.array([np.inf]), np.array([np.inf]), "gap", "oracle")
    assert exc.value.tag() == "error:oracle:non-finite"


def test_hausdorff_rejects_bad_inputs():
    big = Hyperrectangle([0.0, 0.0], [2.0, 2.0])
    small = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ContainmentError):
        hausdorff_estimate(big, small)
    with pytest.raises(DimensionError):
        hausdorff_estimate(small, Hyperrectangle([0.0], [1.0]))
    with pytest.raises(InputError):
        hausdorff_estimate(small, big, directions=np.zeros((1, 2)))
    with pytest.raises(InputError):
        hausdorff_estimate(small, big, directions=np.ones(2))


def test_hausdorff_of_an_overflowing_set_raises():
    # the supports of the image overflow to inf, and inf - inf is a NaN
    # gap, which max(0, gap) would read as 0
    X = Hyperrectangle([1e300, 1.0], [1.0, 1.0])
    image = LinearMap(1e10 * np.eye(2), X)
    for Y in (image, Hyperrectangle([0.0, 0.0], [2.0, 2.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                hausdorff_estimate(image, Y, count=64)
        assert exc.value.tag() == "error:oracle:non-finite"


# ----------------------------------------------------------------------
# diameters
# ----------------------------------------------------------------------

def test_set_diameter_box_and_singleton():
    B = Hyperrectangle([3.0, -1.0], [1.0, 2.0])
    assert set_diameter(B, p=np.inf) == 4.0
    assert set_diameter(B, p=1.0) == 6.0
    npt.assert_allclose(set_diameter(B, p=2.0), 2.0 * np.sqrt(5.0))
    assert set_diameter(Singleton([5.0, 5.0, 5.0])) == 0.0


def test_set_diameter_disc():
    disc = BallP([1.0, 2.0], 3.0, 2)
    npt.assert_allclose(set_diameter(disc, p=np.inf), 6.0, atol=1e-12)
    npt.assert_allclose(set_diameter(disc, p=2.0), 6.0, atol=1e-9)
    # in the 1-norm the diagonal pair is extremal: 2 * 3 * sqrt(2)
    npt.assert_allclose(set_diameter(disc, p=1.0), 6.0 * np.sqrt(2.0),
                        atol=1e-12)


def test_set_diameter_segment():
    seg = LinearMap(np.array([[1.0], [1.0]]), Hyperrectangle([0.0], [1.0]))
    assert abs(set_diameter(seg, p=np.inf) - 2.0) < 1e-12
    npt.assert_allclose(set_diameter(seg, p=2.0), 2.0 * np.sqrt(2.0),
                        atol=1e-4)


# ----------------------------------------------------------------------
# exact recurrence supports
# ----------------------------------------------------------------------

def test_nondecomposed_identity_accumulates_inputs():
    rng = np.random.default_rng(200)
    X0 = random_box(rng, 3)
    V = random_box(rng, 3, scale=0.3)
    sys = DiscreteSystem(np.eye(3), X0, V, 0.1)
    L = rng.standard_normal((40, 3))
    out = reach_nondecomposed(sys, 6, L)
    assert out.shape == (6, 40)
    for k in range(6):
        npt.assert_allclose(out[k],
                            X0.support_batch(L) + k * V.support_batch(L),
                            atol=1e-12)


def test_nondecomposed_frozen_scalar_ladder():
    # phi = 0.5, x0 = {1}, V = [0, 0.1]: upper endpoints follow
    # u(k+1) = 0.5 u(k) + 0.1, so 1, 0.6, 0.4, 0.3; lower endpoints
    # decay without input
    sys = DiscreteSystem(np.array([[0.5]]), Singleton([1.0]),
                         Hyperrectangle([0.05], [0.05]), 0.1)
    out = reach_nondecomposed(sys, 4, np.array([[1.0], [-1.0]]))
    npt.assert_allclose(out[:, 0], [1.0, 0.6, 0.4, 0.3], atol=1e-15)
    npt.assert_allclose(out[:, 1], [-1.0, -0.5, -0.25, -0.125], atol=1e-15)


def test_nondecomposed_varying_matches_deterministic_trajectory():
    # singleton initial set and singleton inputs make the recurrence a
    # plain trajectory; supports must be inner products with it
    rng = np.random.default_rng(201)
    phi = 0.9 * rotation(0.3)
    p0 = np.array([1.0, -0.5])
    ws = rng.standard_normal((7, 2)) * 0.2
    sys = DiscreteSystem(phi, Singleton(p0), [Singleton(w) for w in ws], 0.1)
    L = rng.standard_normal((30, 2))
    out = reach_nondecomposed(sys, 8, L)
    x = p0.copy()
    npt.assert_allclose(out[0], L @ x, atol=1e-12)
    for k in range(1, 8):
        x = phi @ x + ws[k - 1]
        npt.assert_allclose(out[k], L @ x, atol=1e-12)


def test_nondecomposed_agrees_with_single_block_run():
    # with one block and no inputs the lazy decomposed steps are exact, so
    # the two routes must coincide in every direction
    rng = np.random.default_rng(202)
    phi = 1.02 * rotation(0.4)
    X0 = Hyperrectangle([1.0, 0.0], [0.3, 0.2])
    sys = DiscreteSystem(phi, X0, None, 0.1)
    L = rng.standard_normal((200, 2))
    lazy = list(_lazy_supports(sys, 15, L))
    oracle = reach_nondecomposed(sys, 15, L)
    assert len(lazy) == 15
    for k in range(15):
        npt.assert_allclose(lazy[k], oracle[k], atol=1e-9)


def test_nondecomposed_validation():
    sys = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                         None, 0.1)
    with pytest.raises(InputError):
        reach_nondecomposed(sys, 0, np.eye(2))
    with pytest.raises(InputError):
        reach_nondecomposed(sys, 3, np.ones(2))
    with pytest.raises(DimensionError):
        reach_nondecomposed(sys, 3, np.ones((1, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        L = np.eye(2)
        L[1, 0] = bad
        with pytest.raises(InputError, match="directions must be finite") as err:
            reach_nondecomposed(sys, 3, L)
        assert err.value.module == "oracle"


def pairwise_nondecomposed(sys, N, L):
    """The input-sequence supports as one query per (step, input) pair:
    rho(L Phi^k, X(0)) + sum over s < k of rho(L Phi^(k-1-s), V(s))."""
    levels = [L]
    for _ in range(N - 1):
        levels.append(sys.phi.left_product(levels[-1]))
    out = np.empty((N, L.shape[0]))
    for k in range(N):
        total = sys.x_init.support_batch(levels[k])
        for s in range(k):
            total = total + sys.v_at(s).support_batch(levels[k - 1 - s])
        out[k] = total
    return out


def varying_continuous(rng, n=6, steps=9, zero_at=()):
    A = random_stable_matrix(rng, n).data - 0.5 * np.eye(n)
    U = [Hyperrectangle(np.zeros(n), np.zeros(n)) if k in zero_at
         else random_box(rng, n, scale=0.3) for k in range(steps)]
    return ContinuousSystem(A, random_box(rng, n), None, U)


def assert_matches_pairwise(sys, N, L):
    npt.assert_allclose(reach_nondecomposed(sys, N, L),
                        pairwise_nondecomposed(sys, N, L), rtol=1e-12, atol=0)


@pytest.mark.parametrize("N", [1, 2, 9])
def test_nondecomposed_varying_shared_dense_map(N):
    rng = np.random.default_rng(203)
    sys = discretize(varying_continuous(rng), 0.1, model=DISCRETE)
    assert isinstance(sys.v[0].matrix, np.ndarray)
    assert all(V.matrix is sys.v[0].matrix for V in sys.v)
    assert_matches_pairwise(sys, N, rng.standard_normal((25, 6)))


@pytest.mark.parametrize("N", [1, 2, 7])
def test_nondecomposed_varying_shared_csr_map(N):
    import scipy.sparse as sp

    rng = np.random.default_rng(204)
    M = sp.csr_array(np.diag(rng.uniform(0.5, 1.5, 5))
                     + np.diag(rng.uniform(-0.3, 0.3, 4), 1))
    vs = [LinearMap(M, random_box(rng, 5, scale=0.3)) for _ in range(8)]
    assert all(V.matrix is M for V in vs)
    sys = DiscreteSystem(random_stable_matrix(rng, 5, sparse=True),
                         random_box(rng, 5), vs, 0.1)
    assert_matches_pairwise(sys, N, rng.standard_normal((20, 5)))


@pytest.mark.parametrize("N", [1, 2, 9])
def test_nondecomposed_varying_dense_time_has_no_shared_map(N):
    rng = np.random.default_rng(205)
    sys = discretize(varying_continuous(rng), 0.1, model=DENSE)
    assert all(isinstance(V, MinkowskiSum) for V in sys.v)
    assert_matches_pairwise(sys, N, rng.standard_normal((25, 6)))


def test_nondecomposed_varying_with_a_zero_input():
    rng = np.random.default_rng(206)
    sys = discretize(varying_continuous(rng, zero_at=(0, 3)), 0.1,
                     model=DISCRETE)
    assert isinstance(sys.v[3], Singleton) and isinstance(sys.v[1], LinearMap)
    for N in (1, 2, 5, 9):
        assert_matches_pairwise(sys, N, rng.standard_normal((25, 6)))


def test_nondecomposed_short_sequence_names_the_step():
    rng = np.random.default_rng(207)
    sys = DiscreteSystem(random_stable_matrix(rng, 3), random_box(rng, 3),
                         [random_box(rng, 3, scale=0.3) for _ in range(3)], 0.1)
    reach_nondecomposed(sys, 4, np.eye(3))      # steps 0..3 read V(0..2)
    with pytest.raises(InputError,
                       match="input sequence has 3 entries, step 3 requested"):
        reach_nondecomposed(sys, 5, np.eye(3))


class CountingSet(LazySet):
    """A set that answers as its operand and counts the batch queries
    that reach it, through ``support_batch`` or through a map over it."""

    def __init__(self, operand, counter):
        self.operand, self.counter = operand, counter

    @property
    def dim(self):
        return self.operand.dim

    def _rho_batch(self, L):
        self.counter[0] += 1
        return self.operand._rho_batch(L)


@pytest.mark.parametrize("shared", [True, False])
def test_nondecomposed_varying_queries_each_set_once(shared):
    # N queries on X(0) and one per input set: 2N - 1, not N(N+1)/2
    rng = np.random.default_rng(208)
    N, n, M = 12, 4, random_stable_matrix(rng, 4).data
    count = [0]
    boxes = [CountingSet(random_box(rng, n, scale=0.3), count)
             for _ in range(N - 1)]
    vs = ([LinearMap(M, U) for U in boxes] if shared
          else [CountingSet(LinearMap(M, U.operand), count) for U in boxes])
    sys = DiscreteSystem(random_stable_matrix(rng, n),
                         CountingSet(random_box(rng, n), count), vs, 0.1)
    L = rng.standard_normal((10, n))
    out = reach_nondecomposed(sys, N, L)
    assert count[0] == 2 * N - 1
    count[0] = 0
    npt.assert_allclose(out, pairwise_nondecomposed(sys, N, L), rtol=1e-12, atol=0)
    assert count[0] == N * (N + 1) // 2


# ----------------------------------------------------------------------
# decomposed images and a-priori bounds
# ----------------------------------------------------------------------

def hand_phi():
    phi = np.zeros((4, 4))
    phi[:2, :2] = 0.5 * np.eye(2)
    phi[:2, 2:] = 0.1 * np.eye(2)
    phi[2:, :2] = 0.2 * np.eye(2)
    phi[2:, 2:] = 0.4 * np.eye(2)
    return phi


def test_decomposed_image_matches_blockwise_formula():
    rng = np.random.default_rng(203)
    phi = rng.standard_normal((4, 4))
    blocks = [random_box(rng, 2), random_box(rng, 2)]
    out = decomposed_image(BlockMatrix(phi), blocks)
    E = np.vstack([np.eye(2), -np.eye(2)])
    for i in range(2):
        c = sum(phi[2 * i:2 * i + 2, 2 * j:2 * j + 2] @ blocks[j].center
                for j in range(2))
        r = sum(np.abs(phi[2 * i:2 * i + 2, 2 * j:2 * j + 2]) @ blocks[j].radius
                for j in range(2))
        npt.assert_allclose(out[i].support_batch(E),
                            np.concatenate([c + r, -(c - r)]), atol=1e-12)
    # the exact image is contained in the blockwise product
    image = LinearMap(phi, CartesianProduct(blocks))
    product = CartesianProduct(out)
    L = rng.standard_normal((300, 4))
    assert (product.support_batch(L) - image.support_batch(L)).min() >= -1e-9


def test_decomposed_image_zero_row_block():
    phi = np.zeros((4, 4))
    phi[:2, :2] = np.eye(2)
    blocks = [random_box(np.random.default_rng(204), 2) for _ in range(2)]
    out = decomposed_image(BlockMatrix(phi), blocks)
    E = np.vstack([np.eye(2), -np.eye(2)])
    npt.assert_array_equal(out[1].support_batch(E), np.zeros(4))
    with pytest.raises(DimensionError):
        decomposed_image(BlockMatrix(phi), blocks[:1])


def test_map_error_bound_hand_computed():
    # column block norms (inf): col 0 -> {0.5, 0.2}, col 1 -> {0.1, 0.4};
    # the second-largest entries give alpha = (0.2, 0.1); unit boxes have
    # diameter 2, so the cross term is (b-1)(0.2*2 + 0.1*2) = 0.6
    phi = BlockMatrix(hand_phi())
    blocks = [Hyperrectangle(np.zeros(2), np.ones(2)) for _ in range(2)]
    npt.assert_allclose(decomposed_map_error_bound(phi, blocks), 0.6,
                        atol=1e-15)
    npt.assert_allclose(decomposed_map_error_bound(phi, blocks, eps_x=0.5),
                        0.6 + 0.6 * 0.5, atol=1e-15)   # norm(phi, inf) = 0.6


def test_map_error_bound_single_block():
    phi = BlockMatrix(rotation(1.0))
    blocks = [Hyperrectangle([0.0, 0.0], [5.0, 5.0])]
    assert decomposed_map_error_bound(phi, blocks) == 0.0
    npt.assert_allclose(decomposed_map_error_bound(phi, blocks, eps_x=2.0),
                        2.0 * np.abs(rotation(1.0)).sum(axis=1).max())


def test_map_error_bound_dominates_measured_distance():
    rng = np.random.default_rng(205)
    for _ in range(5):
        phi = random_stable_matrix(rng, 4)
        blocks = [random_box(rng, 2), random_box(rng, 2)]
        image = LinearMap(phi.to_dense(), CartesianProduct(blocks))
        product = CartesianProduct(decomposed_image(phi, blocks))
        est = hausdorff_estimate(image, product, p=np.inf, count=2000)
        assert est <= decomposed_map_error_bound(phi, blocks) + 1e-9


# ----------------------------------------------------------------------
# recurrence error bounds
# ----------------------------------------------------------------------

def test_make_report_fields():
    phi = BlockMatrix(hand_phi())
    x_blocks = [Hyperrectangle(np.zeros(2), np.ones(2)) for _ in range(2)]
    v_blocks = [Hyperrectangle(np.zeros(2), 0.25 * np.ones(2))
                for _ in range(2)]
    rep = make_error_report(phi, x_blocks, v_blocks, eps_x=0.1, eps_v=0.2)
    npt.assert_allclose(rep.alpha, [0.2, 0.1], atol=1e-15)
    npt.assert_array_equal(rep.largest, [0, 1])
    npt.assert_allclose(rep.delta_x, [2.0, 2.0])
    npt.assert_allclose(rep.delta_v, [0.5, 0.5])
    npt.assert_allclose(rep.alpha_phi, 0.6)
    assert rep.b == 2 and rep.K == 1.0
    no_v = make_error_report(phi, x_blocks)
    npt.assert_array_equal(no_v.delta_v, [0.0, 0.0])



def test_error_bounds_refuse_a_norm_order_other_than_1_2_inf():
    # refused before any block is read, so also for a matrix of zeros
    x = [Hyperrectangle(np.zeros(2), np.ones(2))] * 2
    for phi in (BlockMatrix(np.eye(4)), BlockMatrix(np.zeros((4, 4)))):
        for bound in (make_error_report, decomposed_map_error_bound):
            with pytest.raises(InputError) as err:
                bound(phi, x, p=3)
            assert (err.value.tag(), str(err.value)) == (
                "error:oracle:schema", "matrix norm only for p in {1, 2, inf}, got 3")

def test_recurrence_bound_hand_values():
    rep = DecompositionErrorReport(
        alpha=np.array([0.3, 0.4]), largest=np.array([0, 1]),
        delta_x=np.array([0.1, 0.2]), delta_v=np.array([0.05, 0.05]),
        eps_x=0.01, eps_v=0.02, K=1.0, alpha_phi=0.5, p=np.inf)
    # x_term = 2*0.3 + 0.01 = 0.61, v_term = 2*0.1 + 0.02 = 0.22
    npt.assert_allclose(recurrence_error_bound(rep, 0), 0.61 + 0.02)
    npt.assert_allclose(recurrence_error_bound(rep, 1), 0.5 * 0.61 + 0.02)
    npt.assert_allclose(recurrence_error_bound(rep, 3),
                        0.125 * 0.61 + 0.22 * 0.75 + 0.02)


def tail_only_report(alpha_phi):
    # zero initial diameters isolate the geometric tail of the input term
    return DecompositionErrorReport(
        alpha=np.array([0.0]), largest=np.array([0]),
        delta_x=np.array([0.0]), delta_v=np.array([1.0]),
        eps_x=0.0, eps_v=0.0, K=1.0, alpha_phi=alpha_phi, p=np.inf)


def test_recurrence_bound_geometric_tail():
    assert recurrence_error_bound(tail_only_report(0.5), 0) == 0.0
    assert recurrence_error_bound(tail_only_report(0.5), 1) == 0.0
    npt.assert_allclose(recurrence_error_bound(tail_only_report(0.5), 4),
                        0.875)
    npt.assert_allclose(recurrence_error_bound(tail_only_report(2.0), 4),
                        14.0)
    # the removable singularity at growth factor 1
    npt.assert_allclose(recurrence_error_bound(tail_only_report(1.0), 5), 4.0)
    npt.assert_allclose(recurrence_error_bound(tail_only_report(1.0 - 1e-6), 20),
                        19.0, atol=1e-3)


def test_recurrence_bound_uniform():
    rep = DecompositionErrorReport(
        alpha=np.array([0.1, 0.2]), largest=np.array([0, 1]),
        delta_x=np.array([0.15, 0.15]), delta_v=np.array([0.05, 0.0]),
        eps_x=0.1, eps_v=0.0, K=2.0, alpha_phi=0.8, p=np.inf)
    # 2 * (0.7 + 0.1 * 0.8/0.2) = 2.2
    u = recurrence_error_bound_uniform(rep)
    npt.assert_allclose(u, 2.2)
    for k in range(0, 300, 7):
        assert recurrence_error_bound(rep, k) <= u + 1e-12
    for bad in (1.0, 1.5):
        with pytest.raises(InputError):
            recurrence_error_bound_uniform(tail_only_report(bad))


def test_recurrence_bounds_that_overflow_raise():
    # a term beyond the float range, and a float power beyond it (which
    # Python raises as OverflowError), are numerical failures, not a
    # bound of inf
    huge = DecompositionErrorReport(
        alpha=np.array([0.0]), largest=np.array([0]),
        delta_x=np.array([1e308]), delta_v=np.array([1e308]),
        eps_x=1e308, eps_v=0.0, K=1.0, alpha_phi=0.5, p=np.inf)
    steep = tail_only_report(1e200)
    for bound, want in (
            (lambda: recurrence_error_bound(huge, 0),
             "recurrence_error_bound: the bound at step 0 is not finite"),
            (lambda: recurrence_error_bound(steep, 3),
             "recurrence_error_bound: the bound at step 3 is not finite"),
            (lambda: recurrence_error_bound_uniform(huge),
             "recurrence_error_bound_uniform: the bound is not finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                bound()
        assert (exc.value.tag(), str(exc.value)) == ("error:oracle:non-finite", want)


def test_report_validation():
    good = dict(alpha=np.array([0.1]), largest=np.array([0]),
                delta_x=np.array([1.0]), delta_v=np.array([0.0]),
                eps_x=0.0, eps_v=0.0, K=1.0, alpha_phi=0.5, p=np.inf)
    DecompositionErrorReport(**good)   # sanity
    for field, value in (("alpha", np.array([-0.1])),
                         ("delta_x", np.array([np.nan])),
                         ("delta_v", np.array([-1.0])),
                         ("K", 0.0), ("K", -2.0), ("alpha_phi", -0.1)):
        with pytest.raises(InputError):
            DecompositionErrorReport(**{**good, field: value})
    with pytest.raises(InputError):
        recurrence_error_bound(DecompositionErrorReport(**good), -1)


# ----------------------------------------------------------------------
# membership and simulation
# ----------------------------------------------------------------------

def test_support_membership():
    B = Hyperrectangle([1.0, 1.0], [1.0, 1.0])
    assert support_membership(B, [1.5, 0.5])
    assert support_membership(B, [2.0, 2.0])       # corner
    assert not support_membership(B, [2.5, 1.0])
    P = random_polygon(np.random.default_rng(206))
    midpoint = 0.5 * (P.support_vector([1.0, 0.0])
                      + P.support_vector([-1.0, 0.0]))
    assert support_membership(P, midpoint)
    far = P.support_vector([0.0, 1.0]) + [0.0, 1.0]
    assert not support_membership(P, far)
    with pytest.raises(DimensionError):
        support_membership(B, [1.0, 1.0, 1.0])


def test_simulate_discrete_matches_manual_recurrence():
    rng = np.random.default_rng(207)
    phi = np.array([[0.9, 0.1], [0.0, 0.8]])
    sys = DiscreteSystem(phi, Hyperrectangle([1.0, 0.5], [0.5, 0.5]),
                         Hyperrectangle([0.0, 0.0], [0.2, 0.2]), 0.1)
    x0 = np.array([1.2, 0.3])
    inputs = rng.uniform(-0.2, 0.2, size=(6, 2))
    states = simulate(sys, x0, inputs=inputs, N=6)
    assert states.shape == (7, 2)
    npt.assert_array_equal(states[0], x0)
    x = x0
    for k in range(6):
        x = phi @ x + inputs[k]
        npt.assert_allclose(states[k + 1], x, atol=1e-14)
    # no inputs supplied: the zero input must be admissible and used
    free = simulate(sys, x0, N=3)
    npt.assert_allclose(free[3], np.linalg.matrix_power(phi, 3) @ x0,
                        atol=1e-14)


def test_simulate_discrete_rejections():
    sys = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                         Hyperrectangle([0.0, 0.0], [0.1, 0.1]), 0.1)
    with pytest.raises(InputError):
        simulate(sys, [5.0, 0.0], N=2)             # start outside X(0)
    with pytest.raises(InputError):
        simulate(sys, [0.0, 0.0], N=None)
    with pytest.raises(InputError):
        simulate(sys, [0.0, 0.0], N=0)
    with pytest.raises(DimensionError):
        simulate(sys, [0.0, 0.0], inputs=np.zeros((2, 3)), N=2)
    bad = np.zeros((4, 2))
    bad[2] = [0.5, 0.0]
    with pytest.raises(InputError) as exc:
        simulate(sys, [0.0, 0.0], inputs=bad, N=4)
    assert "step 2" in str(exc.value)
    # an input set that excludes zero forbids the input-free call
    shifted = DiscreteSystem(np.eye(2), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
                             Hyperrectangle([1.0, 1.0], [0.1, 0.1]), 0.1)
    with pytest.raises(InputError):
        simulate(shifted, [0.0, 0.0], N=2)
    with pytest.raises(InputError):
        simulate(object(), [0.0], N=1)


def test_simulate_continuous_closed_forms():
    decay = ContinuousSystem(-np.eye(2), Hyperrectangle([1.0, 1.0], [0.5, 0.5]))
    x0 = [1.0, 1.0]
    states = simulate(decay, x0, N=10, delta=0.1)
    for k in range(11):
        npt.assert_allclose(states[k], np.exp(-0.1 * k) * np.ones(2),
                            rtol=1e-8, atol=1e-10)
    spin = ContinuousSystem(np.array([[0.0, -1.0], [1.0, 0.0]]),
                            Hyperrectangle([1.0, 0.0], [0.1, 0.1]))
    states = simulate(spin, [1.0, 0.0], N=8, delta=np.pi / 8)
    npt.assert_allclose(states[8], [-1.0, 0.0], atol=1e-8)
    npt.assert_allclose(states[4], [0.0, 1.0], atol=1e-8)


def test_simulate_continuous_piecewise_constant_input():
    sys = ContinuousSystem(np.zeros((2, 2)),
                           Hyperrectangle([0.0, 0.0], [0.1, 0.1]),
                           B=np.array([[1.0], [0.0]]),
                           U=Hyperrectangle([0.5], [0.5]))
    inputs = np.array([[0.2], [0.8], [0.4]])
    states = simulate(sys, [0.0, 0.0], inputs=inputs, N=3, delta=0.5)
    npt.assert_allclose(states[:, 0], [0.0, 0.1, 0.5, 0.7], atol=1e-9)
    npt.assert_allclose(states[:, 1], 0.0, atol=1e-12)


def test_simulate_continuous_rejections():
    X0 = Hyperrectangle([0.0, 0.0], [0.1, 0.1])
    plain = ContinuousSystem(np.zeros((2, 2)), X0)
    with pytest.raises(InputError):
        simulate(plain, [0.0, 0.0], N=2)           # no interval length
    with pytest.raises(InputError):
        simulate(plain, [0.0, 0.0], N=2, delta=-0.5)
    with pytest.raises(InputError):
        simulate(plain, [0.0, 0.0], inputs=np.zeros((2, 2)), N=2, delta=0.1)
    withU = ContinuousSystem(np.zeros((2, 2)), X0, B=np.array([[1.0], [0.0]]),
                             U=Hyperrectangle([0.0], [1.0]))
    with pytest.raises(InputError):
        simulate(withU, [0.0, 0.0], inputs=np.array([[1.5], [0.0]]), N=2,
                 delta=0.1)
    with pytest.raises(DimensionError):
        simulate(withU, [0.0, 0.0], inputs=np.zeros((2, 2)), N=2, delta=0.1)
    seqU = ContinuousSystem(np.zeros((2, 2)), X0, B=np.array([[1.0], [0.0]]),
                            U=[Hyperrectangle([0.0], [1.0])] * 2)
    with pytest.raises(InputError) as exc:
        simulate(seqU, [0.0, 0.0], inputs=np.zeros((3, 1)), N=3, delta=0.1)
    assert "2 entries" in str(exc.value)


def test_geometric_tail_forms_no_intermediate_beyond_the_sum():
    # alpha (1 - alpha^(k-1)) overflows for alpha = 1e200 although the
    # tail at k = 2 is alpha itself
    assert _geometric_tail(1e200, 2) == 1e200
    assert recurrence_error_bound(tail_only_report(1e200), 2) == 1e200
    with pytest.raises(NonFiniteError):
        recurrence_error_bound(tail_only_report(1e200), 3)
