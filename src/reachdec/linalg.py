"""Matrices with 2x2 block access, exponentials, and block rows of powers.

Wraps dense ndarrays and sparse CSR storage behind one interface so the
reach recurrences can slice row blocks and look up nonzero blocks without
caring about the backing format.  Also provides the matrix exponential,
the first two exponential integral matrices used for time discretization,
the row blocks of consecutive matrix powers, and the action of the
exponential (and of the second exponential integral) on a block of
vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import DimensionError, InputError, NonFiniteError

__all__ = [
    "BlockMatrix",
    "exp_matrix",
    "discretization_matrices",
    "BlockRows",
    "MatrixPowerState",
    "exp_action",
    "phi2_action",
    "read_matrix_market",
    "write_matrix_market",
]

#: a sparse transition matrix with more than this fraction of nonzero
#: blocks is stored dense (see ``DiscreteSystem``)
DENSIFY_BLOCK_FRACTION = 0.25


def _block_ranges(n):
    """(first, end) of each block of 0..n-1: consecutive pairs, with a
    trailing block of size one when n is odd.  The one definition of the
    blocks, shared by matrices and set decompositions."""
    return tuple((2 * i, min(2 * i + 2, n)) for i in range((n + 1) // 2))


class BlockMatrix:
    """A real matrix with aligned access to its 2x2 blocks.

    ``data`` is either a read-only ndarray or a scipy CSR array.  Row and
    column blocks follow the same convention as the set decomposition:
    consecutive pairs of indices, with a trailing block of size one for
    odd dimensions.
    """

    def __init__(self, data):
        if sp.issparse(data):
            self.data = sp.csr_array(data)
            if self.data.nnz and not np.all(np.isfinite(self.data.data)):
                raise NonFiniteError("BlockMatrix: non-finite entries", module="linalg")
        else:
            arr = np.asarray(data, dtype=float)
            if arr.ndim != 2:
                raise DimensionError(
                    f"BlockMatrix: expected a 2D array, got shape {arr.shape}",
                    module="linalg")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError("BlockMatrix: non-finite entries", module="linalg")
            arr = arr.copy()
            arr.setflags(write=False)
            self.data = arr
        self.row_ranges = _block_ranges(self.shape[0])
        self.col_ranges = _block_ranges(self.shape[1])

    # -- basic properties ----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def n(self):
        if self.shape[0] != self.shape[1]:
            raise DimensionError("BlockMatrix: matrix is not square", module="linalg")
        return self.shape[0]

    @property
    def is_sparse(self):
        return sp.issparse(self.data)

    def to_dense(self):
        return self.data.toarray() if self.is_sparse else np.asarray(self.data)

    # -- block access ---------------------------------------------------

    def block(self, i, j):
        """Dense copy of block (i, j); 2x2, or smaller on trailing blocks."""
        r0, r1 = self.row_ranges[i]
        c0, c1 = self.col_ranges[j]
        sub = self.data[r0:r1, c0:c1]
        return sub.toarray() if sp.issparse(sub) else np.array(sub)

    def row_block(self, i):
        """Rows of block-row i in the native storage format."""
        r0, r1 = self.row_ranges[i]
        return self.data[r0:r1, :]

    def nonzero_col_blocks(self, i):
        """Sorted column-block indices with a nonzero entry in block-row i
        (for sparse storage, with a stored entry)."""
        rows = self.row_block(i)
        if self.is_sparse:
            cols = sp.coo_array(rows).coords[1]
        else:
            cols = np.flatnonzero(np.any(rows != 0.0, axis=0))
        return np.unique(cols // 2).tolist()

    def block_density(self):
        """Fraction of blocks holding at least one nonzero entry."""
        if self.is_sparse:
            rows, cols = sp.coo_array(self.data).coords
        else:
            rows, cols = np.nonzero(self.data)
        nbc = len(self.col_ranges)
        keys = (rows.astype(np.int64) // 2) * nbc + cols // 2
        return np.unique(keys).size / (len(self.row_ranges) * nbc)

    # -- arithmetic -----------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, BlockMatrix):
            out = self.data @ other.data
            return BlockMatrix(out)
        return self.data @ other

    def scale(self, factor):
        return BlockMatrix(self.data * factor)

    def abs(self):
        return BlockMatrix(abs(self.data))

    def transpose(self):
        d = self.data.T
        return BlockMatrix(d.tocsr() if sp.issparse(d) else d)

    def norm(self, p=np.inf):
        """Induced matrix norm for p in {1, 2, inf}."""
        if p == 2:
            return float(np.linalg.norm(self.to_dense(), 2))
        A = abs(self.data)
        if np.isinf(p):
            sums = np.asarray(A.sum(axis=1)).ravel()
        elif p == 1:
            sums = np.asarray(A.sum(axis=0)).ravel()
        else:
            raise DimensionError(f"norm: unsupported order {p!r}", module="linalg")
        return float(sums.max()) if sums.size else 0.0


def _as_block_matrix(A):
    return A if isinstance(A, BlockMatrix) else BlockMatrix(A)


def exp_matrix(A, delta):
    """Matrix exponential exp(A * delta) via Pade scaling-and-squaring.

    Sparse inputs stay sparse; dense inputs stay dense.
    """
    A = _as_block_matrix(A)
    if not (np.isfinite(delta) and delta > 0):
        raise InputError(f"exp_matrix: step must be positive and finite, got {delta}",
                         module="linalg")
    A.n  # square check
    if A.is_sparse:
        E = scipy.sparse.linalg.expm(sp.csc_matrix(A.data * delta))
        return BlockMatrix(sp.csr_array(E))
    return BlockMatrix(scipy.linalg.expm(A.to_dense() * delta))


def discretization_matrices(A, delta):
    """The transition matrix and its first two exponential integrals.

    Returns (Phi, Phi1, Phi2) where
      Phi  = exp(A d)
      Phi1 = sum_{i>=0} d^{i+1}/(i+1)! A^i   (integral of exp(A s) over [0, d])
      Phi2 = sum_{i>=0} d^{i+2}/(i+2)! A^i
    computed simultaneously from one exponential of the augmented matrix
    [[A, I, 0], [0, 0, I], [0, 0, 0]] * delta.
    """
    A = _as_block_matrix(A)
    n = A.n
    if not (np.isfinite(delta) and delta > 0):
        raise InputError(f"discretization_matrices: step must be positive, got {delta}",
                         module="linalg")
    if A.is_sparse:
        eye = sp.identity(n, format="csr")
        zero = sp.csr_array((n, n))
        aug = sp.bmat([[A.data, eye, None],
                       [None, None, eye],
                       [None, None, zero]], format="csc") * delta
        E = sp.csr_array(scipy.sparse.linalg.expm(aug))
        return (BlockMatrix(E[:n, :n]),
                BlockMatrix(E[:n, n:2 * n]),
                BlockMatrix(E[:n, 2 * n:]))
    aug = np.zeros((3 * n, 3 * n))
    aug[:n, :n] = A.to_dense()
    aug[:n, n:2 * n] = np.eye(n)
    aug[n:2 * n, 2 * n:] = np.eye(n)
    E = scipy.linalg.expm(aug * delta)
    return (BlockMatrix(E[:n, :n]),
            BlockMatrix(E[:n, n:2 * n]),
            BlockMatrix(E[:n, 2 * n:]))


class BlockRows:
    """Some row blocks of an n-column matrix, stacked in one array.

    ``data`` holds the rows of each block in ``ranges`` one after another,
    as a CSR array or an ndarray; ``ranges`` maps a row-block index of the
    full matrix to its (first, end) rows in ``data``.  Per-block access
    reads the CSR index arrays directly, since scipy's slicing costs far
    more than the one or two rows it returns.
    """

    def __init__(self, data, ranges):
        self.data = data
        self.ranges = ranges

    @property
    def is_sparse(self):
        return sp.issparse(self.data)

    def dense_row_block(self, i):
        """Rows of block-row i as a dense array."""
        r0, r1 = self.ranges[i]
        if not self.is_sparse:
            return self.data[r0:r1]
        ptr = self.data.indptr[r0:r1 + 1]
        entries = slice(ptr[0], ptr[-1])
        out = np.zeros((r1 - r0, self.data.shape[1]))
        np.add.at(out, (np.repeat(np.arange(r1 - r0), np.diff(ptr)),
                        self.data.indices[entries]), self.data.data[entries])
        return out

    def to_dense(self):
        """All held rows as one ndarray, in block order."""
        return self.data.toarray() if self.is_sparse else np.asarray(self.data)

    def abs(self):
        return BlockRows(abs(self.data), self.ranges)

    def dot(self, x):
        """{i: (rows of block i) @ x} for every held block.

        Each block's product is computed from its own rows alone, so it is
        bitwise the same whatever other blocks are held: a CSR product
        computes every row on its own, and dense rows are multiplied one
        block at a time, since BLAS may group rows differently.
        """
        if self.is_sparse:
            y = self.data @ x
            return {i: y[r0:r1] for i, (r0, r1) in self.ranges.items()}
        return {i: self.data[r0:r1] @ x for i, (r0, r1) in self.ranges.items()}


class MatrixPowerState:
    """Row blocks of consecutive powers of a square matrix.

    For the row blocks ``blocks`` (all of them when None), P holds the rows
    of Phi^k and Q the rows of Phi^(k+1), as ``BlockRows`` in the storage
    format of Phi.  ``advance`` moves k on by one with R <- R Phi, which
    costs O(|blocks| nnz(Phi)): no full power is ever formed.
    """

    def __init__(self, phi, blocks=None):
        self.phi = _as_block_matrix(phi)
        n = self.phi.n
        full = _block_ranges(n)
        blocks = range(len(full)) if blocks is None else sorted({int(i) for i in blocks})
        ranges, picked = {}, []
        for i in blocks:
            if not 0 <= i < len(full):
                raise DimensionError(f"MatrixPowerState: row block {i} out of "
                                     f"range ({len(full)} blocks)", module="linalg")
            r0, r1 = full[i]
            ranges[i] = (len(picked), len(picked) + r1 - r0)
            picked.extend(range(r0, r1))
        picked = np.array(picked, dtype=np.intp)
        m = picked.size
        if self.phi.is_sparse:
            eye_rows = sp.csr_array((np.ones(m), (np.arange(m), picked)),
                                    shape=(m, n))
        else:
            eye_rows = np.zeros((m, n))
            eye_rows[np.arange(m), picked] = 1.0
        self.k = 0
        self.P = BlockRows(eye_rows, ranges)
        self.Q = BlockRows(self.phi.data[picked], ranges)

    def advance(self):
        R, phi = self.Q.data, self.phi.data
        if self.Q.is_sparse:
            new = R @ phi               # CSR: every row computed on its own
            values = new.data
        else:
            new = np.empty_like(R)
            for r0, r1 in self.Q.ranges.values():   # see BlockRows.dot
                np.matmul(R[r0:r1], phi, out=new[r0:r1])
            values = new
        if not np.all(np.isfinite(values)):
            raise NonFiniteError(
                f"matrix power overflowed to non-finite values at exponent {self.k + 2}",
                module="linalg")
        self.k += 1
        self.P = self.Q
        self.Q = BlockRows(new, self.Q.ranges)
        return self


def exp_action(A, v, delta):
    """Action exp(A delta) v without forming the full exponential, by
    scipy's ``expm_multiply`` (Al-Mohy & Higham, SISC 2011).

    ``v`` is a vector of length n or an (n, m) block of columns.  Each
    column is scaled by a power of two, which is exact, to a largest
    entry in [0.5, 1) and scaled back afterwards, so that the normwise
    stopping test of ``expm_multiply`` weighs every column alike.
    """
    A = _as_block_matrix(A)
    n = A.n
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise DimensionError(f"exp_action: vector has shape {v.shape}, matrix is {n}x{n}",
                             module="linalg")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("exp_action: non-finite vector", module="linalg")
    _, e = np.frexp(np.max(np.abs(v), axis=0, initial=0.0))
    x = scipy.sparse.linalg.expm_multiply(A.data * delta, np.ldexp(v, -e))
    with np.errstate(over="ignore"):
        x = np.ldexp(x, e)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("exp_action: result overflowed", module="linalg")
    return x


def phi2_action(A, R, delta):
    """Phi2(A, delta) R = sum_{i>=0} delta^(i+2)/(i+2)! A^i R, with one
    ``exp_action`` for all columns of R and without forming Phi2.

    delta^-2 Phi2(A, delta) R is the top block of exp(M) [0; 0; R] for the
    sparse augmented matrix M = [[A delta, I, 0], [0, 0, I], [0, 0, 0]]:
    M^k [0; 0; R] = [(A delta)^(k-2) R; 0; 0] for k >= 2.  The identity
    blocks are left unscaled so that all three blocks of the result are
    about as large as R, and the normwise stopping test of the exponential
    action therefore bounds the error of the top block itself.
    """
    A = _as_block_matrix(A)
    n = A.n
    R = np.asarray(R, dtype=float)
    if R.ndim not in (1, 2) or R.shape[0] != n:
        raise DimensionError(f"phi2_action: block has shape {R.shape}, matrix is {n}x{n}",
                             module="linalg")
    if not (np.isfinite(delta) and delta > 0):
        raise InputError(f"phi2_action: step must be positive, got {delta}",
                         module="linalg")
    eye = sp.identity(n, format="csr")
    aug = sp.bmat([[sp.csr_array(A.data) * delta, eye, None],
                   [None, None, eye],
                   [None, None, sp.csr_array((n, n))]], format="csr")
    top = exp_action(aug, np.concatenate([np.zeros((2 * n,) + R.shape[1:]), R]),
                     1.0)[:n]
    return delta * delta * top


# ----------------------------------------------------------------------
# MatrixMarket input
# ----------------------------------------------------------------------

def read_matrix_market(path):
    """Read a real MatrixMarket file into a BlockMatrix.

    Supports the coordinate and array formats with general or symmetric
    storage (symmetric entries are mirrored on load).  Coordinate files
    produce sparse matrices, array files dense ones.
    """
    try:
        with open(path, "r") as fh:
            header = fh.readline().strip()
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}",
                         module="linalg") from None
    parts = header.lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise InputError(f"{path}: not a MatrixMarket matrix header: {header!r}",
                         module="linalg")
    fmt, field, symmetry = parts[2], parts[3], parts[4]
    if fmt not in ("coordinate", "array"):
        raise InputError(f"{path}: unsupported format {fmt!r}", module="linalg")
    if field != "real":
        raise InputError(f"{path}: unsupported field {field!r} (only real)",
                         module="linalg")
    if symmetry not in ("general", "symmetric"):
        raise InputError(f"{path}: unsupported symmetry {symmetry!r}", module="linalg")
    try:
        mat = scipy.io.mmread(path)
    except Exception as exc:
        raise InputError(f"{path}: malformed MatrixMarket data: {exc}",
                         module="linalg") from None
    if sp.issparse(mat):
        return BlockMatrix(sp.csr_array(mat))
    return BlockMatrix(np.asarray(mat, dtype=float))


def write_matrix_market(path, A, comment=None):
    """Write a BlockMatrix (or array) to a MatrixMarket file.

    Always uses general symmetry so the output stays readable by
    read_matrix_market regardless of the matrix's structure.
    """
    A = _as_block_matrix(A)
    scipy.io.mmwrite(path, A.data if A.is_sparse else np.asarray(A.data),
                     comment=comment or "", symmetry="general")
