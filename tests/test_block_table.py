"""The block table of a matrix: every reader of it against the per-block
code it replaced, and one build of it per matrix.

The occupied 2x2 blocks of a matrix are found once, as a sorted list of
block keys with the start of each block row (``BlockMatrix._block_table``),
and every block query reads that list.  The reference functions below are
the per-block code that answered the same queries before, slicing the
storage block by block; the readers must agree with them bitwise.
"""

import contextlib
import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reachdec.cli
import reachdec.linalg
from conftest import write_large_decoupled
from reachdec import (
    BlockMatrix,
    BlockStructure,
    Hyperrectangle,
    decomposed_image,
    read_matrix_market,
)
from reachdec.linalg import block_closure
from reachdec.oracle import _column_alphas
from reachdec.sets import LinearMap, minkowski_sum_all, zero_set

# ----------------------------------------------------------------------
# the per-block code the table replaced
# ----------------------------------------------------------------------


def old_block(M, i, j):
    """Block (i, j) sliced from the storage and copied dense."""
    sub = M.data[BlockStructure(M.shape[0]).slice(i),
                 BlockStructure(M.shape[1]).slice(j)]
    return sub.toarray() if sp.issparse(sub) else np.array(sub)


def old_nonzero_col_blocks(M, i):
    """Column blocks with a stored (sparse) or nonzero (dense) entry in
    block-row i, from the rows of the block row."""
    rows = M.data[BlockStructure(M.shape[0]).slice(i), :]
    cols = rows.indices if M.is_sparse else np.flatnonzero(np.any(rows != 0.0, axis=0))
    return np.unique(np.asarray(cols) // 2).tolist()


def old_keys(M):
    """Sorted block keys of the stored (sparse) or nonzero (dense) entries."""
    rows, cols = M._stored_entries()[:2] if M.is_sparse else np.nonzero(M.data)
    cb = (M.shape[1] + 1) // 2
    return np.unique(np.asarray(rows, dtype=np.int64) // 2 * cb + np.asarray(cols) // 2)


def old_block_density(M):
    return old_keys(M).size / (((M.shape[0] + 1) // 2) * ((M.shape[1] + 1) // 2))


def old_block_closure(M, blocks):
    b = BlockStructure(M.n).b
    keys = old_keys(M)
    starts = np.searchsorted(keys, b * np.arange(b + 1)).tolist()
    reads = (keys % b).tolist()
    seen = [False] * b
    found = []
    for i in map(int, blocks):
        if not seen[i]:
            seen[i] = True
            found.append(i)
    todo = list(found)
    while todo and len(found) < b:
        i = todo.pop()
        for j in reads[starts[i]:starts[i + 1]]:
            if not seen[j]:
                seen[j] = True
                found.append(j)
                todo.append(j)
    return tuple(sorted(found)) if len(found) < b else tuple(range(b))


def old_block_pnorm(B, p):
    if p == np.inf:
        return float(np.abs(B).sum(axis=1).max())
    if p == 1.0:
        return float(np.abs(B).sum(axis=0).max())
    return float(np.linalg.norm(B, 2))


def old_column_alphas(M, bs, p):
    """The norm of every one of the b^2 blocks, sliced from a dense copy of
    each block row, then one argsort per column block."""
    norms = np.zeros((bs.b, bs.b))
    for i in range(bs.b):
        rows = M.data[bs.slice(i), :]
        rows = rows.toarray() if M.is_sparse else rows
        for j in range(bs.b):
            norms[j, i] = old_block_pnorm(rows[:, bs.slice(j)], p)
    alphas = np.zeros(bs.b)
    largest = np.zeros(bs.b, dtype=int)
    for j, col in enumerate(norms):
        order = np.argsort(col)
        largest[j] = int(order[-1])
        alphas[j] = col[order[-2]] if bs.b > 1 else 0.0
    return alphas, largest


def old_decomposed_image(M, blocks):
    bs = BlockStructure(M.n)
    out = []
    for i in range(bs.b):
        terms = [LinearMap(old_block(M, i, j), blocks[j])
                 for j in old_nonzero_col_blocks(M, i)]
        out.append(minkowski_sum_all(terms) if terms else zero_set(bs.size(i)))
    return out


# ----------------------------------------------------------------------
# the readers agree with it bitwise
# ----------------------------------------------------------------------

#: explicit zeros of both signs, repeats that cancel, subnormals
VALUES = st.sampled_from([0.0, -0.0, 1.5, -1.5, -2.25, 1.0 / 3.0, 1e-300,
                          5e-324, -7.0]) | st.floats(-1e3, 1e3)


@st.composite
def entries(draw):
    """(shape, rows, cols, vals): entries in a few 2x2 blocks of an m x n
    matrix, positions repeated; square about two times in three."""
    m = draw(st.integers(1, 11))
    n = m if draw(st.integers(0, 2)) else draw(st.integers(1, 11))
    rb, cb = (m + 1) // 2, (n + 1) // 2
    blocks = draw(st.lists(st.tuples(st.integers(0, rb - 1), st.integers(0, cb - 1)),
                           min_size=1, max_size=max(1, rb * cb // 3)))
    picks = draw(st.lists(st.tuples(st.sampled_from(blocks), st.integers(0, 3), VALUES),
                          max_size=24))
    rows = np.array([2 * i + at // 2 for (i, _), at, _ in picks], dtype=np.int64)
    cols = np.array([2 * j + at % 2 for (_, j), at, _ in picks], dtype=np.int64)
    keep = (rows < m) & (cols < n)
    vals = np.array([v for _, _, v in picks], dtype=float)
    return (m, n), rows[keep], cols[keep], vals[keep]


def storages(shape, rows, cols, vals):
    """The same entries held dense (the last value at a position wins, a
    negative zero kept), as a CSR array (repeats summed, zeros stored) and
    by the load's storage rule (held as the entries when sparse)."""
    dense = np.zeros(shape)
    dense[rows, cols] = vals
    return {"dense": BlockMatrix(dense),
            "csr": BlockMatrix(sp.csr_array((vals, (rows, cols)), shape=shape)),
            "rule": reachdec.linalg._stored(rows, cols, vals, shape)}


def supports(sets):
    """Support values of each set in six directions, as bytes."""
    D = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0],
                  [-1.0, 0.5]])
    return [X.support_batch(D[:, :X.dim]).tobytes() for X in sets]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(entries(), st.data())
def test_block_table_readers_are_bitwise_the_per_block_code(case, data):
    shape, rows, cols, vals = case
    for kind, M in storages(shape, rows, cols, vals).items():
        rb, cb = BlockStructure(shape[0]).b, BlockStructure(shape[1]).b
        assert M.block_density() == old_block_density(M), kind
        for i in range(rb):
            occupied = M.nonzero_col_blocks(i)
            assert occupied == old_nonzero_col_blocks(M, i), kind
            for j in range(cb):
                got, want = M.block(i, j), old_block(M, i, j)
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.shape == want.shape and not np.shares_memory(got, M.data)
                if j in occupied:
                    assert got.tobytes() == want.tobytes(), (kind, i, j)
                else:       # a dense block of zeros may hold -0.0: it reads +0.0
                    assert got.tobytes() == (want + 0.0).tobytes(), (kind, i, j)
        if shape[0] != shape[1]:
            continue
        bs = BlockStructure(shape[0])
        start = data.draw(st.lists(st.integers(0, bs.b - 1), max_size=3))
        assert block_closure(M, start) == old_block_closure(M, start), kind
        for p in (1.0, 2.0, np.inf):
            alphas, largest = _column_alphas(M, bs, p)
            want_alphas, want_largest = old_column_alphas(M, bs, p)
            assert alphas.tobytes() == want_alphas.tobytes(), (kind, p)
            assert largest.dtype == want_largest.dtype, (kind, p)
            assert np.array_equal(largest, want_largest), (kind, p)
        x = [Hyperrectangle(np.arange(bs.size(j)) - 0.5, [0.25, 2.0][:bs.size(j)])
             for j in range(bs.b)]
        got, want = decomposed_image(M, x), old_decomposed_image(M, x)
        assert supports(got) == supports(want), kind


def test_column_alphas_resolve_ties_of_zero_columns_as_argsort():
    # column blocks 1 and 3 hold nothing, column block 2 one block: their
    # second-largest norm is 0 and the largest is the one argsort puts
    # last among equal zeros
    A = np.zeros((7, 7))
    A[0:2, 0:2] = [[1.0, -2.0], [0.5, 3.0]]
    A[6, 0] = 4.0
    A[2, 4] = -0.0
    A[6, 5] = 2.5
    for M in (BlockMatrix(A), BlockMatrix(sp.csr_array(A))):
        bs = BlockStructure(7)
        for p in (1.0, 2.0, np.inf):
            alphas, largest = _column_alphas(M, bs, p)
            want_alphas, want_largest = old_column_alphas(M, bs, p)
            assert alphas.tobytes() == want_alphas.tobytes()
            assert largest.tolist() == want_largest.tolist()
            assert alphas[1] == alphas[2] == alphas[3] == 0.0


# ----------------------------------------------------------------------
# one build per matrix
# ----------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """The shape of every block table built, in order."""
    seen = []
    build = reachdec.linalg._occupied_blocks

    def counted(rows, cols, shape):
        seen.append(tuple(shape))
        return build(rows, cols, shape)

    monkeypatch.setattr(reachdec.linalg, "_occupied_blocks", counted)
    return seen


def test_every_block_query_reads_the_one_table(tmp_path, builds):
    # 10 of 64 blocks occupied: CSR by the rule, held as its entries when
    # read from a file (the table is then built at load)
    A = np.diag(np.arange(1.0, 17.0))
    A[0, 5] = A[9, 2] = A[15, 14] = 0.5
    path = tmp_path / "A.mtx"
    reachdec.write_matrix_market(path, BlockMatrix(sp.csr_array(A)))
    bs = BlockStructure(16)
    x = [Hyperrectangle(np.zeros(2), np.ones(2))] * bs.b
    for make in (lambda: BlockMatrix(sp.csr_array(A)),
                 lambda: read_matrix_market(path), lambda: BlockMatrix(A)):
        before = len(builds)
        M = make()
        for _ in range(2):
            assert M.stored() is M and M.block_density() == 10 / 64
            assert block_closure(M, [0]) == (0, 2)
            assert M.nonzero_col_blocks(1) == [1] and M.block(4, 1)[1, 0] == 0.5
            _column_alphas(M, bs, np.inf)
            decomposed_image(M, x)
        assert builds[before:] == [(16, 16)]


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = reachdec.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def test_reach_and_bounds_build_each_matrix_table_once(tmp_path, builds):
    # A is CSR by the block rule (39 of 400 blocks), and its closure from
    # block 0 is blocks 0 and 1
    sc = write_large_decoupled(tmp_path, 40)
    code, text = run_cli("reach", "--scenario", sc, "--out", tmp_path / "reach")
    assert (code, text) == (0, "tube N=40 blocks=0 -> tube.csv\n")
    # A at load, whose table the closure reads, and the 4 x 4 cut at its cut
    assert builds == [(40, 40), (4, 4)]
    builds.clear()
    code, text = run_cli("bounds", "--scenario", sc, "--out", tmp_path / "bounds")
    assert code == 0 and text.startswith("b=20 ")
    # A at load, Phi as CSR for the storage rule (it fills in and is made
    # dense), and the dense Phi once for both bounds and the image
    assert builds == [(40, 40), (40, 40), (40, 40)]
