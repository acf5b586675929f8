"""Block matrices, exponentials, block rows of powers, MatrixMarket files."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from conftest import random_stable_matrix
from reachdec import (
    BlockMatrix,
    DimensionError,
    InputError,
    MatrixPowerState,
    NonFiniteError,
    discretization_matrices,
    exp_action,
    exp_matrix,
    read_matrix_market,
    write_matrix_market,
)


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
    for n in (2, 4, 5, 7):
        A = BlockMatrix(rng.standard_normal((n, n)))
        rebuilt = np.zeros((n, n))
        for i, (r0, r1) in enumerate(A.row_ranges):
            for j, (c0, c1) in enumerate(A.col_ranges):
                blk = A.block(i, j)
                assert blk.shape == (r1 - r0, c1 - c0)
                rebuilt[r0:r1, c0:c1] = blk
        npt.assert_array_equal(rebuilt, A.to_dense())


def test_nonzero_block_index_dense_and_sparse():
    rng = np.random.default_rng(61)
    M = np.zeros((6, 6))
    M[0, 0] = 1.0   # block (0, 0)
    M[1, 3] = 2.0   # block (0, 1)
    M[4, 5] = 3.0   # block (2, 2)
    for A in (BlockMatrix(M), BlockMatrix(sp.csr_array(M))):
        assert A.nonzero_col_blocks(0) == [0, 1]
        assert A.nonzero_col_blocks(1) == []
        assert A.nonzero_col_blocks(2) == [2]
        # completeness: summing indexed blocks reconstructs the matrix
        rebuilt = np.zeros((6, 6))
        for i, (r0, r1) in enumerate(A.row_ranges):
            for j in A.nonzero_col_blocks(i):
                c0, c1 = A.col_ranges[j]
                rebuilt[r0:r1, c0:c1] = A.block(i, j)
        npt.assert_array_equal(rebuilt, M)
    # absent from the index really means a zero block
    A = BlockMatrix(sp.csr_array(M))
    for j in range(3):
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
        npt.assert_array_equal(st.P.to_dense(), np.eye(3))
        npt.assert_array_equal(st.Q.to_dense(), np.eye(3))
        st.advance()


def test_power_state_diagonal():
    st = MatrixPowerState(np.diag([2.0, 3.0]))
    for _ in range(3):
        st.advance()
    npt.assert_array_equal(st.Q.to_dense(), np.diag([16.0, 81.0]))
    npt.assert_array_equal(st.P.to_dense(), np.diag([8.0, 27.0]))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n, blocks", [(10, None), (10, (1, 3)), (9, (4,)),
                                       (9, (0, 4)), (9, None)])
def test_power_state_rows_match_matrix_power(sparse, n, blocks):
    # odd n: block 4 is the trailing block of size one
    rng = np.random.default_rng(68)
    M = rng.uniform(-1.0, 1.0, (n, n)) / n
    M[rng.uniform(size=(n, n)) < 0.6] = 0.0
    st = MatrixPowerState(BlockMatrix(sp.csr_array(M) if sparse else M), blocks)
    assert st.Q.is_sparse == sparse
    held = range((n + 1) // 2) if blocks is None else blocks
    for k in range(7):
        npt.assert_allclose(st.P.to_dense(), power_rows(M, k, held),
                            rtol=1e-12, atol=1e-15)
        npt.assert_allclose(st.Q.to_dense(), power_rows(M, k + 1, held),
                            rtol=1e-12, atol=1e-15)
        for i in held:
            npt.assert_allclose(st.Q.dense_row_block(i), power_rows(M, k + 1, [i]),
                                rtol=1e-12, atol=1e-15)
        previous = st.Q
        st.advance()
        assert st.P is previous
        assert st.k == k + 1


def test_power_state_sparse_matches_dense_oracle():
    rng = np.random.default_rng(68)
    perm = rng.permutation(10)
    vals = rng.uniform(0.5, 1.5, 10)
    M = np.zeros((10, 10))
    M[np.arange(10), perm] = vals
    st = MatrixPowerState(BlockMatrix(sp.csr_array(M)), blocks=(0, 2, 3))
    for _ in range(7):
        st.advance()
    npt.assert_allclose(st.Q.to_dense(), power_rows(M, 8, (0, 2, 3)),
                        rtol=1e-12, atol=1e-12)
    npt.assert_allclose(st.P.to_dense(), power_rows(M, 7, (0, 2, 3)),
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
        npt.assert_array_equal(alone.Q.dense_row_block(3),
                               many.Q.dense_row_block(3))
        npt.assert_array_equal(alone.Q.dot(x)[3], many.Q.dot(x)[3])
        npt.assert_array_equal(alone.Q.abs().dot(x)[3], many.Q.abs().dot(x)[3])


def test_power_state_index_follows_iterate():
    rng = np.random.default_rng(69)
    M = np.zeros((6, 6))
    M[:2, 2:4] = rng.standard_normal((2, 2))
    M[2:4, 4:] = rng.standard_normal((2, 2))
    M[4:, :2] = rng.standard_normal((2, 2))
    for phi in (M, sp.csr_array(M)):
        st = MatrixPowerState(BlockMatrix(phi), blocks=(0, 2))
        for k in range(1, 6):
            st.advance()
            dense = np.linalg.matrix_power(M, k + 1)
            for i in (0, 2):
                expect = sorted({c // 2 for c in np.nonzero(
                    np.any(dense[2 * i:2 * i + 2] != 0.0, axis=0))[0]})
                assert st.Q.nonzero_col_blocks(i) == expect


def test_power_state_rejects_unknown_block():
    with pytest.raises(DimensionError):
        MatrixPowerState(np.eye(5), blocks=(3,))


def test_power_state_reports_overflow():
    for phi in (np.diag([1e200, 1.0]), sp.csr_array(np.diag([1.0, 1e200]))):
        st = MatrixPowerState(BlockMatrix(phi))
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="at exponent 2"):
            st.advance()
    # only the held rows are advanced: block 1 never overflows
    st = MatrixPowerState(np.diag([1.0, 1.0, 1e200, 1.0]), blocks=(0,))
    for _ in range(3):
        st.advance()
    st = MatrixPowerState(np.diag([1.0, 1.0, 1e120, 1.0]), blocks=(1,))
    st.advance()
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match="at exponent 3"):
        st.advance()


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
    # v spans an invariant subspace: Arnoldi terminates early, exactly
    A = np.diag([-1.0, 2.0, 0.5, 0.0])
    got = exp_action(A, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
    npt.assert_allclose(got, [np.exp(-1.0), 0.0, 0.0, 0.0], atol=1e-10)


def test_exp_action_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        exp_action(np.eye(3), np.ones(2), 0.1)
    with pytest.raises(NonFiniteError):
        exp_action(np.eye(2), np.array([1.0, np.nan]), 0.1)
    npt.assert_array_equal(exp_action(np.eye(2), np.zeros(2), 0.1), np.zeros(2))


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

    sparse = sp.csr_array(np.triu(dense) * (np.abs(np.triu(dense)) > 0.5))
    path = tmp_path / "sparse.mtx"
    write_matrix_market(path, BlockMatrix(sparse))
    back = read_matrix_market(path)
    assert back.is_sparse
    npt.assert_allclose(back.to_dense(), sparse.toarray(), rtol=1e-12)


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
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError):
            read_matrix_market(path)
    with pytest.raises(InputError):
        read_matrix_market(tmp_path / "missing.mtx")
