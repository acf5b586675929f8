"""Block matrices, exponentials, block rows of powers, MatrixMarket files."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reachdec.linalg
from conftest import augmented_exponential, random_stable_matrix
from reachdec import (
    BlockMatrix,
    BlockStructure,
    DimensionError,
    InputError,
    MatrixPowerState,
    NonFiniteError,
    discretization_matrices,
    exp_action,
    exp_matrix,
    phi2_action,
    read_matrix_market,
    write_matrix_market,
)
from reachdec.linalg import block_closure, row_products


def rotation_generator():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def taylor_series(M, weight, terms=50):
    """sum_i weight(i) * M^i with Kahan-compensated accumulation."""
    n = M.shape[0]
    total = np.zeros((n, n))
    comp = np.zeros((n, n))
    power = np.eye(n)
    for i in range(terms):
        y = weight(i) * power - comp
        t = total + y
        comp = (t - total) - y
        total = t
        power = power @ M
    return total


# ----------------------------------------------------------------------
# block access
# ----------------------------------------------------------------------

def test_blocks_partition_matrix():
    rng = np.random.default_rng(60)
    for m, n in ((2, 2), (4, 4), (5, 5), (7, 7), (3, 6), (6, 3)):
        A = BlockMatrix(rng.standard_normal((m, n)))
        rows, cols = BlockStructure(m), BlockStructure(n)
        rebuilt = np.zeros((m, n))
        for i in range(rows.b):
            for j in range(cols.b):
                blk = A.block(i, j)
                assert blk.shape == (rows.size(i), cols.size(j))
                rebuilt[rows.slice(i), cols.slice(j)] = blk
        npt.assert_array_equal(rebuilt, A.to_dense())


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.integers(1, 41), st.data())
def test_row_slices_tile_the_coordinates_of_the_blocks(n, data):
    # odd and even n: the trailing block of an odd n holds one row
    bs = BlockStructure(n)
    blocks = data.draw(st.lists(st.integers(0, bs.b - 1), unique=True))
    if data.draw(st.booleans()):
        blocks.sort()
    slices = bs.row_slices(blocks)
    assert list(slices) == blocks
    coords = bs.coords(blocks)
    stop = 0
    for i, s in slices.items():
        assert s.start == stop and s.step is None
        npt.assert_array_equal(coords[s], bs.coords([i]))
        stop = s.stop
    assert stop == coords.size


def test_nonzero_block_index_dense_and_sparse():
    rng = np.random.default_rng(61)
    for n in (6, 7):
        M = np.zeros((n, n))
        M[0, 0] = 1.0           # block (0, 0)
        M[1, 3] = 2.0           # block (0, 1)
        M[4, 5] = 3.0           # block (2, 2)
        M[n - 1, n - 1] = 4.0   # block (2, 2) for n = 6, (3, 3) for n = 7
        bs = BlockStructure(n)
        for A in (BlockMatrix(M), BlockMatrix(sp.csr_array(M))):
            assert A.nonzero_col_blocks(0) == [0, 1]
            assert A.nonzero_col_blocks(1) == []
            assert A.nonzero_col_blocks(2) == [2]
            assert A.nonzero_col_blocks(bs.b - 1) == [bs.b - 1]
            assert A.block_density() == (3 if n == 6 else 4) / bs.b ** 2
            # completeness: summing indexed blocks reconstructs the matrix
            rebuilt = np.zeros((n, n))
            for i in range(bs.b):
                for j in A.nonzero_col_blocks(i):
                    rebuilt[bs.slice(i), bs.slice(j)] = A.block(i, j)
            npt.assert_array_equal(rebuilt, M)
        # absent from the index really means a zero block
        A = BlockMatrix(sp.csr_array(M))
        for j in range(bs.b):
            if j not in A.nonzero_col_blocks(1):
                npt.assert_array_equal(A.block(1, j), 0.0)


def test_matrix_norms():
    A = BlockMatrix([[1.0, -2.0], [3.0, 4.0]])
    assert A.norm(1) == 6.0
    assert A.norm(np.inf) == 7.0
    npt.assert_allclose(A.norm(2), np.linalg.norm(A.to_dense(), 2), rtol=1e-12)
    S = BlockMatrix(sp.csr_array(A.to_dense()))
    assert S.norm(1) == 6.0
    assert S.norm(np.inf) == 7.0


def test_block_matrix_rejects_bad_data():
    with pytest.raises(NonFiniteError):
        BlockMatrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        BlockMatrix(sp.csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]])))
    with pytest.raises(DimensionError):
        BlockMatrix(np.ones(3))
    with pytest.raises(DimensionError):
        BlockMatrix(np.ones((2, 3))).n


# ----------------------------------------------------------------------
# exponentials
# ----------------------------------------------------------------------

def test_exp_of_zero_is_identity():
    E = exp_matrix(np.zeros((3, 3)), 1.0)
    npt.assert_array_equal(E.to_dense(), np.eye(3))


def test_exp_of_rotation_generator():
    for theta in (0.3, np.pi / 2, 2.0):
        E = exp_matrix(rotation_generator(), theta)
        expect = np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]])
        npt.assert_allclose(E.to_dense(), expect, atol=1e-12)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(62)
    A = rng.standard_normal((6, 6))
    delta = 0.1
    oracle = taylor_series(A * delta, lambda i: 1.0 / math.factorial(i))
    npt.assert_allclose(exp_matrix(A, delta).to_dense(), oracle, atol=1e-10)


def test_exp_semigroup_property():
    rng = np.random.default_rng(63)
    for _ in range(10):
        A = random_stable_matrix(rng, 4)
        d1, d2 = rng.uniform(0.05, 0.5, 2)
        lhs = exp_matrix(A, d1 + d2).to_dense()
        rhs = exp_matrix(A, d1).to_dense() @ exp_matrix(A, d2).to_dense()
        npt.assert_allclose(lhs, rhs, atol=1e-9)


def test_exp_sparse_matches_dense():
    rng = np.random.default_rng(64)
    A = random_stable_matrix(rng, 6)
    E_dense = exp_matrix(A, 0.2)
    E_sparse = exp_matrix(BlockMatrix(sp.csr_array(A.to_dense())), 0.2)
    assert E_sparse.is_sparse and not E_dense.is_sparse
    npt.assert_allclose(E_sparse.to_dense(), E_dense.to_dense(), atol=1e-12)


def test_exp_rejects_bad_step():
    with pytest.raises(InputError):
        exp_matrix(np.eye(2), 0.0)
    with pytest.raises(InputError):
        exp_matrix(np.eye(2), -0.1)


def test_discretization_matrices_of_zero():
    phi, phi1, phi2 = discretization_matrices(np.zeros((3, 3)), 0.4)
    npt.assert_allclose(phi.to_dense(), np.eye(3), atol=1e-15)
    npt.assert_allclose(phi1.to_dense(), 0.4 * np.eye(3), atol=1e-15)
    npt.assert_allclose(phi2.to_dense(), 0.08 * np.eye(3), atol=1e-15)


def test_discretization_matrices_invertible_closed_form():
    rng = np.random.default_rng(65)
    A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)   # well-conditioned
    delta = 0.1
    phi, phi1, _ = discretization_matrices(A, delta)
    expect = np.linalg.solve(A, phi.to_dense() - np.eye(4))
    npt.assert_allclose(phi1.to_dense(), expect, atol=1e-9)


def test_discretization_matrices_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi, phi1, phi2 = discretization_matrices(A, 1.0)
    npt.assert_allclose(phi.to_dense(), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)
    npt.assert_allclose(phi1.to_dense(), [[1.0, 0.5], [0.0, 1.0]], atol=1e-14)
    npt.assert_allclose(phi2.to_dense(),
                        [[0.5, 1.0 / 6.0], [0.0, 0.5]], atol=1e-14)


def test_discretization_matrices_match_series():
    rng = np.random.default_rng(66)
    A = rng.standard_normal((5, 5))
    delta = 0.1
    phi, phi1, phi2 = discretization_matrices(A, delta)
    s1 = taylor_series(A, lambda i: delta ** (i + 1) / math.factorial(i + 1))
    s2 = taylor_series(A, lambda i: delta ** (i + 2) / math.factorial(i + 2))
    npt.assert_allclose(phi1.to_dense(), s1, atol=1e-10)
    npt.assert_allclose(phi2.to_dense(), s2, atol=1e-10)


def test_discretization_matrices_sparse_matches_dense():
    rng = np.random.default_rng(67)
    A = random_stable_matrix(rng, 5)
    dense = discretization_matrices(A, 0.3)
    sparse = discretization_matrices(BlockMatrix(sp.csr_array(A.to_dense())), 0.3)
    for D, S in zip(dense, sparse):
        npt.assert_allclose(S.to_dense(), D.to_dense(), atol=1e-12)


# ----------------------------------------------------------------------
# the Taylor kernel against independent references
# ----------------------------------------------------------------------

def kernel_results(A, delta, X):
    """Phi, Phi1, Phi2 from discretization_matrices, Phi from exp_matrix,
    and the actions on X, all as ndarrays."""
    mats = [M.to_dense() for M in discretization_matrices(A, delta)]
    return (mats + [exp_matrix(A, delta).to_dense()],
            [exp_action(A, X, delta), phi2_action(A, X, delta)])


def assert_kernel_close(A, delta, X, ref, rtol):
    """Every kernel result within rtol of the largest reference entry."""
    mats, acts = kernel_results(A, delta, X)
    for got, want in zip(mats, list(ref) + [ref[0]]):
        npt.assert_allclose(got, want, rtol=0.0, atol=rtol * np.max(np.abs(want)))
    for got, want in zip(acts, (ref[0] @ X, ref[2] @ X)):
        npt.assert_allclose(got, want, rtol=0.0, atol=rtol * np.max(np.abs(want)))


def kernel_case(name):
    """(A, delta, rtol) for a named case; A is an ndarray."""
    rng = np.random.default_rng(74)
    if name == "random":            # ||A delta||_1 below 1: one series
        return rng.standard_normal((7, 7)), 0.1, 1e-13
    if name == "random-large":      # halvings; actions in 15 substeps
        return rng.standard_normal((60, 60)) / 4.0, 1.0, 1e-13
    if name == "stiff":             # eigenvalues -1/delta .. -1e4/delta
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        return Q @ np.diag(-np.logspace(0, 4, 6) / 0.1) @ Q.T, 0.1, 1e-11
    if name == "nilpotent":
        return np.triu(rng.standard_normal((5, 5)), 1) * 3.0, 1.0, 1e-13
    if name == "zero":
        return np.zeros((3, 3)), 0.3, 0.0
    if name == "one-by-one":
        return np.array([[-2.5]]), 0.4, 1e-15
    if name == "odd":
        return random_stable_matrix(rng, 9).to_dense() * 5.0, 0.3, 1e-13
    raise AssertionError(name)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("name", ["random", "random-large", "stiff", "nilpotent",
                                  "zero", "one-by-one", "odd"])
def test_kernel_matches_augmented_exponential(name, sparse):
    A, delta, rtol = kernel_case(name)
    X = np.random.default_rng(75).standard_normal((A.shape[0], 3))
    op = BlockMatrix(sp.csr_array(A) if sparse else A)
    assert_kernel_close(op, delta, X, augmented_exponential(A, delta), rtol)
    assert exp_matrix(op, delta).is_sparse == sparse
    assert all(M.is_sparse == sparse for M in discretization_matrices(op, delta))


def test_squaring_goes_dense_once_the_block_rule_says_so(monkeypatch):
    # a CSR diffusion chain over a long step is squared 8 times: its
    # powers fill in band by band, and once the block rule would store the
    # iterate dense, it and every later iterate are squared dense
    n, delta = 200, 50.0
    A = sp.diags_array([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                       offsets=[-1, 0, 1], format="csr")
    seen = []
    rule = reachdec.linalg._rule_storage

    def spy(F, eye):
        out = rule(F, eye)
        dense = not sp.issparse(F[0]) or BlockMatrix(F[0])._dense_by_rule()
        seen.append((dense, [sp.issparse(f) for f in (*out[0], out[1])]))
        return out

    monkeypatch.setattr(reachdec.linalg, "_rule_storage", spy)
    for build in (exp_matrix, discretization_matrices):
        seen.clear()
        results = build(A, delta)
        results = results if isinstance(results, tuple) else (results,)
        assert len(seen) == 8
        fired = [dense for dense, _ in seen].index(True)
        assert fired > 0        # the first squarings stay sparse
        for k, (dense, storage) in enumerate(seen):
            assert dense == (k >= fired)
            assert storage == [k < fired] * len(storage)
        assert all(M.is_sparse for M in results)
        want = build(A.toarray(), delta)
        want = want if isinstance(want, tuple) else (want,)
        for M, ref in zip(results, want):
            npt.assert_allclose(M.to_dense(), ref.to_dense(), rtol=1e-10, atol=1e-14)


def phi_scalar(lam, k):
    """phi_k(lam) = sum_i lam^i / (i+k)! of a real scalar, k <= 2."""
    if abs(lam) < 1.0:
        return sum(lam ** i / math.factorial(i + k) for i in range(30))
    return (math.exp(lam), math.expm1(lam) / lam,
            (math.expm1(lam) - lam) / lam ** 2)[k]


def symmetric_reference(A):
    """(phi_0, phi_1, phi_2)(A) of a symmetric A from its eigenvectors."""
    lam, Q = np.linalg.eigh(A)
    return [(Q * [phi_scalar(x, k) for x in lam]) @ Q.T for k in range(3)]


@pytest.mark.parametrize("name", ["spread", "nonnegative", "sparse-nonnegative"])
def test_kernel_at_large_norms_matches_closed_form(name):
    # ||A delta||_1 = 650, the range the dense-time bloat margin is argued
    # for.  scipy's augmented exponential is off by up to 5e-11 relative
    # here (checked against 50-digit arithmetic), so the reference is the
    # eigendecomposition of a symmetric A, good to about ||A|| u.
    rng = np.random.default_rng(76)
    if name == "spread":            # eigenvalues from -650 to 650
        Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        A = Q @ np.diag([-650.0, -300.0, -20.0, -1.0, 1.0, 40.0, 650.0]) @ Q.T
        A = (A + A.T) / 2.0
    else:                           # like Phi2(|A|) of the bloat boxes
        n = 400 if name.startswith("sparse") else 6
        P = sp.random_array((n, n), density=min(1.0, 4.0 / n), random_state=rng)
        P = (P + P.T + sp.eye_array(n)).toarray()
        A = P * (650.0 / np.abs(P).sum(axis=0).max())
    X = np.abs(rng.standard_normal((A.shape[0], 1)))
    op = BlockMatrix(sp.csr_array(A) if name.startswith("sparse") else A)
    ref = symmetric_reference(A)
    if name.startswith("sparse"):   # actions only: q substeps of one column
        want = ref[2] @ X
        npt.assert_allclose(phi2_action(op, X, 1.0), want, rtol=0.0,
                            atol=1e-12 * np.max(np.abs(want)))
        want = ref[0] @ X
        npt.assert_allclose(exp_action(op, X, 1.0), want, rtol=0.0,
                            atol=1e-12 * np.max(np.abs(want)))
    else:
        assert_kernel_close(op, 1.0, X, ref, 1e-12)


def test_action_substeps_never_form_the_matrix(monkeypatch):
    rng = np.random.default_rng(77)
    A = sp.random_array((60, 60), density=0.1, random_state=rng, format="csr")
    A = A * (10.0 / abs(A).sum(axis=0).max())      # ||A||_1 = 10: 10 substeps
    X = rng.standard_normal((60, 2))
    ref = augmented_exponential(A, 1.0)
    expect = [ref[0] @ X, ref[2] @ X]

    def forbidden(*_args):
        raise AssertionError("matrix formed")

    monkeypatch.setattr(reachdec.linalg, "_phi_matrices", forbidden)
    for got, want in zip((exp_action(A, X, 1.0), phi2_action(A, X, 1.0)), expect):
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    # a huge norm with a nilpotent B forms the 2 x 2 matrix instead of
    # taking 10^8 substeps: Phi2 = [[1/2, 10^8/6], [0, 1/2]]
    monkeypatch.undo()
    got = phi2_action(np.array([[0.0, 1e8], [0.0, 0.0]]), np.ones(2), 1.0)
    npt.assert_allclose(got, [0.5 + 1e8 / 6.0, 0.5], rtol=1e-15)


def test_kernel_is_independent_of_global_random_state():
    rng = np.random.default_rng(78)
    A = sp.random_array((40, 40), density=0.1, random_state=rng, format="csr") * 8.0
    X = rng.standard_normal((40, 2))
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        mats, acts = kernel_results(BlockMatrix(A), 0.5, X)
        np.random.rand(7)
        runs.append(mats + acts)
    for first, second in zip(*runs):
        npt.assert_array_equal(first, second)


def test_kernel_overflow_raises_not_inf():
    # exp(800) overflows binary64: every entry point raises, and no
    # overflow warning escapes
    A = np.array([[800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (A, sp.csr_array(A)):
            for call in (lambda: exp_matrix(op, 1.0),
                         lambda: discretization_matrices(op, 1.0),
                         lambda: exp_action(op, np.ones(1), 1.0),
                         lambda: phi2_action(op, np.ones((1, 2)), 1.0)):
                with pytest.raises(NonFiniteError, match="overflowed"):
                    call()
        # exp(700) is finite
        npt.assert_allclose(exp_matrix(np.array([[700.0]]), 1.0).to_dense(),
                            [[math.exp(700.0)]], rtol=1e-13)


# ----------------------------------------------------------------------
# block rows of powers
# ----------------------------------------------------------------------

def power_rows(M, k, blocks):
    """Rows of the requested 2x2 row blocks of M^k, in block order."""
    n = M.shape[0]
    rows = [r for i in blocks for r in range(2 * i, min(2 * i + 2, n))]
    return np.linalg.matrix_power(M, k)[rows]


def test_power_state_identity():
    st = MatrixPowerState(np.eye(3))
    for _ in range(5):
        npt.assert_array_equal(st.P.data, np.eye(3))
        npt.assert_array_equal(st.Q.data, np.eye(3))
        st.advance()


def test_power_state_diagonal():
    st = MatrixPowerState(np.diag([2.0, 3.0]))
    for _ in range(3):
        st.advance()
    npt.assert_array_equal(st.Q.data, np.diag([16.0, 81.0]))
    npt.assert_array_equal(st.P.data, np.diag([8.0, 27.0]))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n, blocks", [(10, None), (10, (1, 3)), (9, (4,)),
                                       (9, (0, 4)), (9, None)])
def test_power_state_rows_match_matrix_power(sparse, n, blocks):
    # odd n: block 4 is the trailing block of size one
    rng = np.random.default_rng(68)
    M = rng.uniform(-1.0, 1.0, (n, n)) / n
    M[rng.uniform(size=(n, n)) < 0.6] = 0.0
    st = MatrixPowerState(BlockMatrix(sp.csr_array(M) if sparse else M), blocks)
    # Phi keeps its storage; the rows of its powers are dense and C-ordered
    assert st.phi.is_sparse == sparse
    assert not st.Q.is_sparse
    held = range((n + 1) // 2) if blocks is None else blocks
    rows = BlockStructure(n).row_slices(held)
    for k in range(7):
        npt.assert_allclose(st.P.data, power_rows(M, k, held),
                            rtol=1e-12, atol=1e-15)
        npt.assert_allclose(st.Q.data, power_rows(M, k + 1, held),
                            rtol=1e-12, atol=1e-15)
        for i, s in rows.items():
            npt.assert_allclose(st.Q.data[s], power_rows(M, k + 1, [i]),
                                rtol=1e-12, atol=1e-15)
        assert st.Q.data.flags.c_contiguous
        previous = st.Q
        st.advance()
        assert st.P is previous


def test_power_state_sparse_matches_dense_oracle():
    rng = np.random.default_rng(68)
    perm = rng.permutation(10)
    vals = rng.uniform(0.5, 1.5, 10)
    M = np.zeros((10, 10))
    M[np.arange(10), perm] = vals
    st = MatrixPowerState(BlockMatrix(sp.csr_array(M)), blocks=(0, 2, 3))
    for _ in range(7):
        st.advance()
    npt.assert_allclose(st.Q.data, power_rows(M, 8, (0, 2, 3)),
                        rtol=1e-12, atol=1e-12)
    npt.assert_allclose(st.P.data, power_rows(M, 7, (0, 2, 3)),
                        rtol=1e-12, atol=1e-12)


def test_power_state_blocks_do_not_depend_on_each_other():
    # a held block's rows are bitwise the same whatever else is held
    rng = np.random.default_rng(72)
    M = rng.uniform(-1.0, 1.0, (40, 40)) / 20.0
    for phi in (M, sp.csr_array(M)):
        alone = MatrixPowerState(BlockMatrix(phi), blocks=(3,))
        many = MatrixPowerState(BlockMatrix(phi))
        for _ in range(20):
            alone.advance()
            many.advance()
        x = rng.standard_normal(40)
        rows = BlockStructure(40).row_slices(range(20))[3]
        npt.assert_array_equal(alone.Q.data, many.Q.data[rows])
        for R in (lambda Q: Q.data, lambda Q: np.abs(Q.data)):
            npt.assert_array_equal(row_products(R(alone.Q), x),
                                   row_products(R(many.Q), x)[rows])


def placed_at(A, byte_offset):
    """A copy of the float array A starting ``byte_offset`` bytes into a
    fresh buffer: unaligned for an offset that is not a multiple of 8."""
    buf = np.zeros(A.nbytes + 128, dtype=np.uint8)
    out = np.frombuffer(buf[byte_offset:byte_offset + A.nbytes].data,
                        dtype=float).reshape(A.shape)
    out[...] = A
    return out


@pytest.mark.parametrize("n", [1, 3, 5, 9, 17, 33, 65, 127, 257, 511, 1023,
                               2047, 4999])
def test_row_products_do_not_depend_on_the_stack(n):
    # numpy does not document it: each row of the stacked product is
    # bitwise its product alone, for any stack size and any placement in
    # memory, with a vector or with a matrix on the right
    rng = np.random.default_rng(n)

    def spread(shape):     # entries over 10 orders of magnitude
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)

    R = spread((33, n))
    for X in (spread(n), spread((n, 5))):
        alone = np.array([row_products(R[i:i + 1], X)[0] for i in range(33)])
        for size in range(1, 34):
            for start in (0, 33 - size):
                npt.assert_array_equal(row_products(R[start:start + size], X),
                                       alone[start:start + size])
        for offset in range(0, 72, 3):
            npt.assert_array_equal(
                row_products(placed_at(R, offset), placed_at(X, (5 * offset) % 64)),
                alone)


def test_power_state_rejects_unknown_block():
    with pytest.raises(DimensionError):
        MatrixPowerState(np.eye(5), blocks=(3,))


def test_power_state_leaves_an_overflowing_power_to_its_readers():
    # an overflowing power is held non-finite, and advance raises nothing:
    # the steps that read it check what they compute from it
    for phi, square in ((np.diag([1e200, 1.0]), np.diag([np.inf, 1.0])),
                        (sp.csr_array(np.diag([1.0, 1e200])),
                         np.diag([1.0, np.inf]))):
        st = MatrixPowerState(BlockMatrix(phi))
        with np.errstate(over="ignore"):
            st.advance()
        npt.assert_array_equal(st.Q.data, square)
    # only the held rows are advanced: block 1 never overflows
    st = MatrixPowerState(np.diag([1.0, 1.0, 1e200, 1.0]), blocks=(0,))
    for _ in range(3):
        st.advance()
    npt.assert_array_equal(st.Q.data, np.eye(4)[:2])
    st = MatrixPowerState(np.diag([1.0, 1.0, 1e120, 1.0]), blocks=(1,))
    st.advance()
    assert np.isfinite(st.Q.data).all()
    with np.errstate(over="ignore"):
        st.advance()
    npt.assert_array_equal(st.Q.data, [[0.0, 0.0, np.inf, 0.0],
                                       [0.0, 0.0, 0.0, 1.0]])


def test_block_density_counts_occupied_blocks():
    rng = np.random.default_rng(70)
    for n in (7, 8):
        M = rng.standard_normal((n, n))
        M[rng.uniform(size=(n, n)) < 0.85] = 0.0
        ranges = [(r, min(r + 2, n)) for r in range(0, n, 2)]
        occupied = sum(np.any(M[r0:r1, c0:c1] != 0.0)
                       for r0, r1 in ranges for c0, c1 in ranges)
        expect = occupied / len(ranges) ** 2
        assert BlockMatrix(M).block_density() == pytest.approx(expect)
        assert BlockMatrix(sp.csr_array(M)).block_density() == pytest.approx(expect)


# ----------------------------------------------------------------------
# exponential action
# ----------------------------------------------------------------------

def test_exp_action_zero_matrix():
    v = np.array([1.0, -2.0, 3.0])
    npt.assert_allclose(exp_action(np.zeros((3, 3)), v, 0.7), v, atol=1e-12)


def test_exp_action_rotation():
    got = exp_action(rotation_generator(), np.array([1.0, 0.0]), np.pi / 2)
    npt.assert_allclose(got, [0.0, 1.0], atol=1e-8)


def test_exp_action_matches_dense_oracle():
    rng = np.random.default_rng(71)
    n = 200
    idx = rng.integers(0, n, size=(2, 800))
    vals = rng.standard_normal(800) * 0.5
    A = sp.coo_array((vals, (idx[0], idx[1])), shape=(n, n)).tocsr()
    v = rng.standard_normal(n)
    oracle = exp_matrix(BlockMatrix(A), 0.8).to_dense() @ v
    got = exp_action(BlockMatrix(A), v, 0.8)
    assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_exp_action_breakdown_is_exact():
    # v is an eigenvector of the diagonal A: the action scales it by exp(-1)
    A = np.diag([-1.0, 2.0, 0.5, 0.0])
    got = exp_action(A, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
    npt.assert_allclose(got, [np.exp(-1.0), 0.0, 0.0, 0.0], atol=1e-10)


def test_exp_action_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        exp_action(np.eye(3), np.ones(2), 0.1)
    with pytest.raises(NonFiniteError):
        exp_action(np.eye(2), np.array([1.0, np.nan]), 0.1)
    with pytest.raises(NonFiniteError, match="overflowed"), \
            np.errstate(over="ignore", invalid="ignore"):
        exp_action(np.array([[1000.0]]), np.ones(1), 1.0)
    npt.assert_array_equal(exp_action(np.eye(2), np.zeros(2), 0.1), np.zeros(2))


def test_exp_action_block_matches_columns():
    rng = np.random.default_rng(72)
    n, m = 60, 5
    A = sp.random_array((n, n), density=0.1, random_state=rng, format="csr")
    for op in (BlockMatrix(A), BlockMatrix(A.toarray())):
        # columns of very different sizes, and a zero column
        V = rng.standard_normal((n, m)) * 10.0 ** np.array([-6, 0, 0, 6, 0])
        V[:, 2] = 0.0
        got = exp_action(op, V, 0.7)
        assert got.shape == (n, m)
        npt.assert_array_equal(got[:, 2], 0.0)
        for j in range(m):
            col = exp_action(op, V[:, j], 0.7)
            assert col.shape == (n,)
            npt.assert_allclose(got[:, j], col, rtol=0.0,
                                atol=1e-14 * np.max(np.abs(col)))
        assert exp_action(op, V[:, :1], 0.7).shape == (n, 1)


def test_exp_action_block_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        exp_action(np.eye(3), np.ones((2, 2)), 0.1)
    with pytest.raises(DimensionError):
        exp_action(np.eye(3), np.ones((3, 2, 1)), 0.1)
    with pytest.raises(NonFiniteError):
        exp_action(np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]]), 0.1)
    with pytest.raises(NonFiniteError, match="overflowed"), \
            np.errstate(over="ignore", invalid="ignore"):
        exp_action(np.array([[1000.0]]), np.ones((1, 3)), 1.0)


def test_phi2_action_matches_augmented_exponential():
    rng = np.random.default_rng(73)
    for n, sparse in ((1, False), (7, False), (9, True), (12, True)):
        A = random_stable_matrix(rng, n).to_dense()
        R = rng.standard_normal((n, 3))
        for M in (A, np.abs(A)):
            op = BlockMatrix(sp.csr_array(M) if sparse else M)
            expect = augmented_exponential(M, 0.3)[2] @ R
            got = phi2_action(op, R, 0.3)
            assert got.shape == (n, 3)
            npt.assert_allclose(got, expect, rtol=0.0,
                                atol=1e-13 * np.max(np.abs(expect)))
            npt.assert_allclose(phi2_action(op, R[:, 0], 0.3), got[:, 0],
                                rtol=0.0, atol=1e-14 * np.max(np.abs(got[:, 0])))
    # A = 0: Phi2 = delta^2 / 2 I
    npt.assert_allclose(phi2_action(np.zeros((3, 3)), np.ones(3), 0.5),
                        np.full(3, 0.125), rtol=1e-15)
    with pytest.raises(DimensionError):
        phi2_action(np.eye(3), np.ones(2), 0.1)
    with pytest.raises(InputError):
        phi2_action(np.eye(3), np.ones(3), 0.0)


# ----------------------------------------------------------------------
# MatrixMarket files
# ----------------------------------------------------------------------

def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    dense = rng.standard_normal((4, 4))
    path = tmp_path / "dense.mtx"
    write_matrix_market(path, BlockMatrix(dense))
    back = read_matrix_market(path)
    assert not back.is_sparse
    npt.assert_allclose(back.to_dense(), dense, rtol=1e-12)

    # 3 of the 16 blocks of an 8 x 8 matrix occupied: block-sparse, so CSR
    blocky = np.zeros((8, 8))
    blocky[0:2, 0:2] = dense[:2, :2]
    blocky[2:4, 6:8] = dense[2:, 2:]
    blocky[7, 3] = dense[0, 3]
    sparse = sp.csr_array(blocky)
    path = tmp_path / "sparse.mtx"
    write_matrix_market(path, BlockMatrix(sparse))
    back = read_matrix_market(path)
    assert back.is_sparse
    npt.assert_allclose(back.to_dense(), sparse.toarray(), rtol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.data())
def test_matrix_market_reader_is_bitwise_mmread(tmp_path_factory, data):
    # every format and symmetry, values in shortest form or cut to 1-19
    # digits (so each must parse with correct rounding), and coordinate
    # entries that repeat (summed in file order).  Beyond 19 digits
    # scipy's writer pads some values with NUL bytes, which mmread does
    # not survive (see the NUL case of test_matrix_market_rejects_bad_files).
    fmt = data.draw(st.sampled_from(["coordinate", "array"]))
    symmetry = data.draw(st.sampled_from(["general", "symmetric"]))
    m = data.draw(st.integers(1, 5))
    n = m if symmetry == "symmetric" else data.draw(st.integers(1, 5))
    value = st.floats(allow_nan=False, allow_infinity=False)
    if fmt == "array":
        M = np.reshape(data.draw(st.lists(value, min_size=m * n,
                                          max_size=m * n)), (m, n))
    else:
        entry = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value)
        table = np.array(data.draw(st.lists(entry, max_size=15)),
                         dtype=[("row", int), ("col", int), ("value", float)])
        M = sp.coo_array((table["value"], (table["row"], table["col"])),
                         shape=(m, n))
    path = tmp_path_factory.mktemp("mm") / "M.mtx"
    scipy.io.mmwrite(path, M, symmetry=symmetry,
                     precision=data.draw(st.none() | st.integers(1, 19)))
    ref = scipy.io.mmread(path)
    ref = ref.toarray() if sp.issparse(ref) else ref
    if not np.isfinite(ref).all():      # a value rounded or summed to inf
        with pytest.raises(NonFiniteError):
            read_matrix_market(path)
        return
    got = read_matrix_market(path).to_dense()
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_matrix_market_storage_follows_the_block_rule(tmp_path):
    # a coordinate file is dense when more than a quarter of its 2x2 blocks
    # hold an entry, an explicit zero included, and CSR otherwise
    def coordinate_file(n, entries, symmetry="general"):
        path = tmp_path / f"{n}-{len(entries)}-{symmetry}.mtx"
        path.write_text("\n".join(
            [f"%%MatrixMarket matrix coordinate real {symmetry}",
             f"{n} {n} {len(entries)}"]
            + [f"{i} {j} {v!r}" for i, j, v in entries]) + "\n")
        return read_matrix_market(path)

    three_of_four = [(1, 1, 1.5), (2, 3, -2.0), (4, 1, 0.25)]
    M = coordinate_file(4, three_of_four)
    assert not M.is_sparse
    npt.assert_array_equal(M.to_dense()[[0, 1, 3], [0, 2, 0]], [1.5, -2.0, 0.25])
    four_of_sixteen = [(1, 1, 1.0), (3, 4, 2.0), (8, 8, 3.0), (5, 2, 0.0)]
    M = coordinate_file(8, four_of_sixteen)
    assert M.is_sparse and M.block_density() == 0.25
    M = coordinate_file(8, four_of_sixteen + [(7, 1, 4.0)])
    assert not M.is_sparse and M.to_dense()[6, 0] == 4.0
    # the mirrored entries of symmetric storage occupy their blocks too
    M = coordinate_file(8, [(1, 1, 1.0), (3, 1, 2.0), (5, 1, 3.0)], "symmetric")
    assert not M.is_sparse and M.to_dense()[0, 4] == 3.0
    # an array file is dense whatever its blocks
    path = tmp_path / "array.mtx"
    write_matrix_market(path, np.eye(8))
    assert not read_matrix_market(path).is_sparse


def closure_by_fixed_point(pattern, blocks):
    """Blocks reached from ``blocks`` through a boolean pattern, as the
    sorted tuple of a fixed-point iteration over block rows."""
    bs = BlockStructure(pattern.shape[0])
    found = set(blocks)
    while True:
        reads = {int(j) // 2 for i in found
                 for j in np.flatnonzero(pattern[bs.slice(i)].any(axis=0))}
        if reads <= found:
            return tuple(sorted(found))
        found |= reads


def test_file_held_entries_agree_with_the_csr_of_the_same_entries(tmp_path):
    # a CSR matrix read from a coordinate file is held as the file's
    # entries; what is read off them is bitwise what the CSR array of the
    # same entries gives (scipy's, built the way the reader builds it),
    # with explicit zeros, repeats, symmetric mirrors and odd n
    rng = np.random.default_rng(81)
    values = np.array([0.0, -0.0, 1.5, -2.25, 1.0 / 3.0, 1e-300, 7e300])
    outcomes = set()
    held = 0
    for case in range(120):
        n = int(rng.integers(1, 14))
        symmetric = case % 3 == 0
        k = int(rng.integers(0, n + 3))
        rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
        if symmetric:
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        again = rng.integers(0, max(k, 1), k // 2 if k else 0)
        rows, cols = np.r_[rows, rows[again]], np.r_[cols, cols[again]]
        vals = rng.choice(values, rows.size) * rng.choice([1.0, 3.0], rows.size)
        path = tmp_path / f"{case}.mtx"
        path.write_text("\n".join(
            [f"%%MatrixMarket matrix coordinate real "
             f"{'symmetric' if symmetric else 'general'}", f"{n} {n} {rows.size}"]
            + [f"{r + 1} {c + 1} {float(v)!r}" for r, c, v in zip(rows, cols, vals)])
            + "\n")
        M = read_matrix_market(path)
        if not M.is_sparse:
            continue
        held += 1
        if symmetric:                       # mirrors follow the listed entries
            off = rows != cols
            rows, cols, vals = (np.r_[rows, cols[off]], np.r_[cols, rows[off]],
                                np.r_[vals, vals[off]])
        ref = sp.csr_array((vals, (rows, cols)), shape=(n, n))
        pattern = ref.toarray() != 0.0
        pattern[np.repeat(np.arange(n), np.diff(ref.indptr)), ref.indices] = True
        assert M.to_dense().tobytes() == ref.toarray().tobytes()
        assert M.block_density() == BlockMatrix(ref).block_density()
        bs = BlockStructure(n)
        occupied = sum(pattern[bs.slice(i), bs.slice(j)].any()
                       for i in range(bs.b) for j in range(bs.b))
        assert M.block_density() == occupied / bs.b ** 2
        for _ in range(3):
            blocks = sorted(set(rng.integers(0, bs.b, rng.integers(1, bs.b + 1))))
            assert block_closure(M, blocks) == closure_by_fixed_point(pattern, blocks)
            coords = bs.coords(blocks)
            got = M.principal(coords)
            want = BlockMatrix(ref[coords][:, coords]).stored()
            assert got.is_sparse == want.is_sparse
            assert got.to_dense().tobytes() == want.to_dense().tobytes()
            if got.is_sparse:
                for attr in ("indptr", "indices", "data"):
                    npt.assert_array_equal(getattr(got.data, attr),
                                           getattr(want.data, attr))
                assert got.data.data.tobytes() == want.data.data.tobytes()
            outcomes.add(got.is_sparse)
    assert held > 40 and outcomes == {False, True}
    # a stored zero counts as read: block 0 reads block 2 through A[1, 5],
    # and the zero occupies a block of the cut (2 of 4: stored dense)
    path = tmp_path / "zero.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n8 8 2\n"
                    "1 1 1.0\n2 6 0.0\n")
    M = read_matrix_market(path)
    assert M.is_sparse and block_closure(M, [0]) == (0, 2)
    assert not M.principal(BlockStructure(8).coords([0, 2])).is_sparse


def test_csr_built_from_held_entries_is_checked_again(tmp_path):
    # the load sums repeats in file order; scipy sorts a row of more than
    # 16 entries without keeping their order, so three repeats can sum to
    # inf there alone: the CSR array is then refused when it is built
    rng = np.random.default_rng(83)
    spread = [(1, j, 0.5) for j in range(2, 42)]
    repeats = [(1, 6, 1e308), (1, 6, -1e308), (1, 6, 1e308)]
    for case in range(20):
        entries = [spread[i] for i in rng.permutation(len(spread))]
        for e, at in zip(repeats, sorted(rng.choice(len(entries) + 3, 3, replace=False))):
            entries.insert(at, e)
        path = tmp_path / f"{case}.mtx"
        path.write_text("\n".join(
            ["%%MatrixMarket matrix coordinate real general", f"41 41 {len(entries)}"]
            + [f"{r} {c} {v!r}" for r, c, v in entries]) + "\n")
        M = read_matrix_market(path)         # 1e308 - 1e308 + 1e308 is finite
        assert M.is_sparse
        try:
            assert np.all(np.isfinite(M.data.data))
        except NonFiniteError:
            pass


def test_matrix_market_writer_is_read_by_mmread(tmp_path):
    # the numpy writer's files read back bitwise with scipy.io.mmread, a
    # dense matrix in the array format and a sparse one in the coordinate
    # format; writing the entries a file's CSR matrix is held as builds no
    # CSR array, and a repeated entry is written as it was read
    rng = np.random.default_rng(82)
    dense = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-300, 300, (3, 5))
    dense[1, 2] = 0.0
    path = tmp_path / "dense.mtx"
    write_matrix_market(path, dense, comment="two\nlines")
    assert path.read_text().startswith("%%MatrixMarket matrix array real general\n"
                                       "%two\n%lines\n3 5\n")
    assert scipy.io.mmread(path).tobytes() == dense.tobytes()
    source = tmp_path / "entries.mtx"
    source.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "9 9 4\n9 1 0.1\n2 3 0.0\n9 1 0.2\n5 5 -3.5e-310\n")
    M = read_matrix_market(source)
    path = tmp_path / "sparse.mtx"
    write_matrix_market(path, M)
    assert M._data is None
    assert path.read_text() == ("%%MatrixMarket matrix coordinate real general\n"
                                "%\n9 9 4\n9 1 0.1\n2 3 0.0\n9 1 0.2\n"
                                "5 5 -3.5e-310\n")
    ref = scipy.io.mmread(source).toarray()
    assert scipy.io.mmread(path).toarray().tobytes() == ref.tobytes()
    assert M.to_dense().tobytes() == ref.tobytes()


def test_matrix_market_round_trip_skew_symmetric_matrix(tmp_path):
    # rotation generators are skew-symmetric; the writer must not emit a
    # storage scheme the reader refuses
    path = tmp_path / "rot.mtx"
    write_matrix_market(path, BlockMatrix(rotation_generator()))
    back = read_matrix_market(path)
    npt.assert_allclose(back.to_dense(), rotation_generator(), atol=1e-15)


def test_matrix_market_symmetric_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 4\n"
                    "1 1 2.0\n"
                    "2 1 -1.0\n"
                    "3 2 0.5\n"
                    "3 3 1.0\n")
    A = read_matrix_market(path).to_dense()
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.5, 1.0]])
    npt.assert_array_equal(A, expect)


def test_matrix_market_one_based_indices(tmp_path):
    path = tmp_path / "one.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n"
                    "1 2 5.0\n")
    A = read_matrix_market(path).to_dense()
    npt.assert_array_equal(A, [[0.0, 5.0], [0.0, 0.0]])


def test_matrix_market_rejects_bad_files(tmp_path):
    cases = {
        "noheader.mtx": "1 1 1\n1 1 2.0\n",
        "complex.mtx": "%%MatrixMarket matrix coordinate complex general\n"
                       "1 1 1\n1 1 2.0 0.0\n",
        "skew.mtx": "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                    "2 2 1\n2 1 1.0\n",
        "badfmt.mtx": "%%MatrixMarket matrix tensor real general\n1 1 1\n",
        "malformed.mtx": "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 oops\n",
        "count.mtx": "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n2 2 2.0\n",
        "index0.mtx": "%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n0 1 1.0\n",
        "beyond.mtx": "%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n1 3 1.0\n",
        "shortarray.mtx": "%%MatrixMarket matrix array real general\n"
                          "2 2\n1.0\n2.0\n3.0\n",
        "nul.mtx": "%%MatrixMarket matrix array real general\n"
                   "1 1\n1.5\0\0\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError) as exc:
            read_matrix_market(path)
        assert exc.value.tag() == "error:linalg:schema", name
    with pytest.raises(InputError):
        read_matrix_market(tmp_path / "missing.mtx")
