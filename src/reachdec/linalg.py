"""Blocks of coordinates, matrices with 2x2 block access, exponentials,
and block rows of powers.

``BlockStructure`` is the one block rule, kept as arithmetic: matrices,
set decompositions and reach tubes all ask it.  ``BlockMatrix`` wraps
dense ndarrays and sparse CSR storage behind one interface, and answers
every block query from one table of its occupied 2x2 blocks, built once:
the index of block compressed sparse row storage (BSR; Saad, 2003, 3.4).

Storage follows one rule, also block arithmetic: a matrix with more than
``DENSIFY_BLOCK_FRACTION`` of its 2x2 blocks occupied is held dense, any
other as CSR.  ``read_matrix_market`` applies it to the entries of a
coordinate file as it loads them (an array file is always dense),
``BlockMatrix.principal`` to the entries of a cut, and
``BlockMatrix.stored`` to a CSR result such as exp(A delta).

Sparse storage has one form, canonical CSR: sorted column indices, each
position stored once (Saad, 2003, 3.4).  A file's repeated positions are
summed once at load, and any other CSR array is made canonical once, on
a copy (``_canonical``), so no product depends on the order of entries.
A CSR matrix read from a file, or cut by ``principal``, is held as these
entries and the block table the storage rule read until a product or a
slice needs the CSR array, so a run whose closure is stored dense loads
no scipy module even when A is CSR by the rule.  ``scipy.sparse`` is
imported where a CSR array is built, and ``issparse`` answers without
importing it.

Also provides the matrix exponential, the first two exponential integral
matrices used for time discretization, the row blocks of consecutive
matrix powers, and the action of the exponential (and of the second
exponential integral) on a block of vectors.

All exponentials come from one truncated Taylor series,
phi_s(B) X = sum_i B^i X / (i+s)! with B = A delta, summed by Horner's
rule on CSR or dense storage alike (Moler & Van Loan, SIAM Review 2003;
Al-Mohy & Higham, SISC 2011).  Then Phi = phi_0(B), Phi1 = delta phi_1(B)
and Phi2 = delta^2 phi_2(B).  The degree m is the smallest with the
a-priori tail bound theta^(m+1)/(m+1)! / (1 - theta/(m+2)) <= u = 2^-53,
theta = ||B||_1, which bounds sum_{i>m} ||B^i X|| / (i+s)! <= u ||X|| for
every s >= 0.  For theta > 1 the step is halved until theta <= 1: the
matrices are then squared back up, and an action is taken in substeps.
The truncation is bounded a priori; the rounding of the products and sums
is not.  The result depends only on A, delta and X: no random norm
estimate is made.
"""

from __future__ import annotations

import io
import math
import sys

import numpy as np

from .errors import DimensionError, InputError, NonFiniteError

__all__ = [
    "BlockStructure",
    "BlockMatrix",
    "block_closure",
    "exp_matrix",
    "discretization_matrices",
    "BlockRows",
    "MatrixPowerState",
    "exp_action",
    "phi2_action",
    "read_matrix_market",
    "write_matrix_market",
]

#: a matrix with more than this fraction of its blocks occupied is stored
#: dense, since products with it and with its powers are then cheaper in
#: dense storage (see ``read_matrix_market`` and ``BlockMatrix.stored``)
DENSIFY_BLOCK_FRACTION = 0.25


def issparse(M):
    """Whether M is a scipy sparse array or matrix.  Nothing can be sparse
    before ``scipy.sparse`` is loaded, so this never imports it; an ndarray
    is answered before scipy's slower abstract-class check."""
    if isinstance(M, np.ndarray):
        return False
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(M)


def _canonical(M):
    """The sparse array M in canonical form: M itself, or a canonical copy.
    scipy would sort M in place when it first needs the form (for |M|),
    changing the order of the sums of M's later products."""
    if M.has_canonical_format:
        return M
    M = M.copy()
    M.sum_duplicates()
    return M


def _unique(keys, first=False):
    """The sorted distinct values of the 1-D array ``keys``, and with
    ``first`` the index of each value's first entry: ``np.unique`` (with
    ``return_index``) without its import of ``numpy.ma`` (through
    ``np.ma.is_masked``), which parsing a CSR-stored matrix would pay."""
    order = np.argsort(keys, kind="stable") if first else None
    ordered = keys[order] if first else np.sort(keys)
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return (ordered[new], order[new]) if first else ordered[new]


def _occupied_blocks(rows, cols, shape):
    """(keys, starts): the sorted keys (block row times block columns plus
    block column) of the 2x2 blocks of a ``shape`` matrix that hold one of
    the entries (rows[e], cols[e]); block row r holds the keys
    keys[starts[r]:starts[r + 1]]."""
    rb, cb = (shape[0] + 1) // 2, (shape[1] + 1) // 2
    keys = _unique(np.asarray(rows, dtype=np.int64) // 2 * cb
                   + np.asarray(cols) // 2)
    return keys, np.searchsorted(keys, cb * np.arange(rb + 1))


class BlockStructure:
    """Partition of coordinates 0..n-1 into consecutive blocks of size <= 2.

    Block i is ``slice(i)``: coordinates 2i and 2i + 1, or 2i alone when
    it is the last block of an odd n.  Coordinate c is in block c // 2.
    """

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise DimensionError("BlockStructure: dimension must be positive",
                                 module="approx")
        self.n = n

    @property
    def b(self):
        return (self.n + 1) // 2

    def slice(self, i):
        """Coordinates of block i."""
        return slice(2 * i, min(2 * i + 2, self.n))

    def size(self, i):
        s = self.slice(i)
        return s.stop - s.start

    def coords(self, blocks):
        """Coordinates of the blocks ``blocks``, in their order, as an
        index array."""
        pairs = 2 * np.asarray(blocks, dtype=np.intp).reshape(-1, 1) + (0, 1)
        return pairs[pairs < self.n]

    def row_slices(self, blocks):
        """{block: its rows} in the rows of ``blocks`` stacked in their
        order, as ``coords(blocks)`` lists them: the one rule that says
        where a held block's rows lie."""
        out, start = {}, 0
        for i in blocks:
            out[i] = slice(start, start + self.size(i))
            start = out[i].stop
        return out

    def block_of(self, coords):
        """Block of a coordinate, or the blocks of an array of them."""
        c = np.asarray(coords)
        bad = c[(c < 0) | (c >= self.n)]
        if bad.size:
            raise DimensionError(f"BlockStructure: coordinate {bad.flat[0]} "
                                 "out of range", module="approx")
        blocks = c // 2
        return blocks if c.ndim else int(blocks)

    def projection_matrix(self, i):
        P = np.zeros((self.size(i), self.n))
        P[:, self.slice(i)] = np.eye(self.size(i))
        return P

    def __eq__(self, other):
        return isinstance(other, BlockStructure) and other.n == self.n

    def __repr__(self):
        return f"BlockStructure(n={self.n}, b={self.b})"


class BlockMatrix:
    """A real matrix with aligned access to its 2x2 blocks.

    ``data`` is either a read-only ndarray or a scipy CSR array.  Its rows
    and columns are blocked by ``BlockStructure``, like the coordinates of
    the set decomposition.  A block is occupied when it holds a stored
    entry (sparse storage, a stored zero included) or a nonzero entry
    (dense).  Every block query reads the one table of the occupied blocks
    (``_block_table``) and, for values, ``_block_values``.

    Sparse storage is canonical CSR (``_canonical``).  It may be held as
    its entries (rows, cols, vals) in row and column order, as
    ``read_matrix_market`` and ``principal`` make them: the CSR array is
    then built on the first access to ``data``.  ``shape``, ``principal``,
    ``block_density``, ``nonzero_col_blocks`` and ``block_closure`` read
    the entries alone, so they import no scipy.
    """

    #: held entries, and what is built from the storage on first use
    _entries = _data = _csr_t = _table = _values = None

    def __init__(self, data):
        if issparse(data):
            from scipy import sparse as sp
            self._data = _canonical(sp.csr_array(data))
            if not np.all(np.isfinite(self._data.data)):
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
            self._data = arr
        self._shape = self._data.shape

    @property
    def data(self):
        """The read-only ndarray or the CSR array, built from the held
        entries on first access."""
        if self._data is None:
            from scipy import sparse as sp
            rows, cols, vals = self._entries
            # int32 indices while they fit, as scipy's own CSR build gives
            idx = np.int32 if max(*self._shape, vals.size) < 2 ** 31 else np.int64
            indptr = np.searchsorted(rows, np.arange(self._shape[0] + 1))
            self._data = sp.csr_array((vals, cols.astype(idx, copy=False),
                                       indptr.astype(idx)), shape=self._shape)
        return self._data

    # -- basic properties ----------------------------------------------

    @property
    def shape(self):
        return self._shape

    @property
    def n(self):
        if self.shape[0] != self.shape[1]:
            raise DimensionError("BlockMatrix: matrix is not square", module="linalg")
        return self.shape[0]

    @property
    def is_sparse(self):
        return not isinstance(self._data, np.ndarray)

    def to_dense(self):
        return self.data.toarray() if self.is_sparse else np.asarray(self.data)

    def _stored_entries(self):
        """(rows, cols, vals) of sparse storage: the entries it is held as,
        or those read off its CSR arrays."""
        if self._entries is not None:
            return self._entries
        M = self._data
        return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices, M.data

    # -- block access ---------------------------------------------------

    def _blocks(self, axis):
        """Block structure of the rows (axis 0) or the columns (axis 1)."""
        return BlockStructure(self.shape[axis])

    def _block_table(self):
        """(keys, starts) of the occupied blocks (``_occupied_blocks``)."""
        if self._table is None:
            rows, cols = (self._stored_entries()[:2] if self.is_sparse
                          else np.nonzero(self._data))
            self._table = _occupied_blocks(rows, cols, self.shape)
        return self._table

    def _block_values(self):
        """The occupied blocks in key order, padded to 2x2 with zeros, read
        off ``data`` on the first call: sparse entries added to 0.0, as
        ``toarray`` does, dense blocks copied bitwise."""
        if self._values is None:
            keys, _ = self._block_table()
            cb = self._blocks(1).b
            if self.is_sparse:
                M = self.data
                rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
                at = np.searchsorted(keys, rows // 2 * cb + M.indices // 2)
                self._values = np.bincount(
                    4 * at + 2 * (rows % 2) + M.indices % 2, weights=M.data,
                    minlength=4 * keys.size).reshape(-1, 2, 2)
            else:
                M = np.pad(self._data, [(0, self.shape[0] % 2),
                                        (0, self.shape[1] % 2)])
                self._values = M.reshape(-1, 2, cb, 2)[keys // cb, :, keys % cb]
        return self._values

    def block(self, i, j):
        """Copy of block (i, j) as a C-ordered ndarray; 2x2, or smaller on
        trailing blocks.  A block that is not occupied reads as zeros."""
        rows, cols = self._blocks(0), self._blocks(1)
        keys, key = self._block_table()[0], i * cols.b + j
        p = keys.searchsorted(key)
        if p < keys.size and keys[p] == key:
            return self._block_values()[p, :rows.size(i), :cols.size(j)].copy()
        return np.zeros((rows.size(i), cols.size(j)))

    def row_block(self, i):
        """Rows of block-row i in the native storage format."""
        return self.data[self._blocks(0).slice(i), :]

    def nonzero_col_blocks(self, i):
        """Sorted indices of the occupied column blocks of block-row i."""
        keys, starts = self._block_table()
        return (keys[starts[i]:starts[i + 1]] % self._blocks(1).b).tolist()

    def block_density(self):
        """Fraction of the blocks that are occupied."""
        return self._block_table()[0].size / (self._blocks(0).b * self._blocks(1).b)

    def _dense_by_rule(self):
        """Whether the block rule stores this matrix dense: more than
        ``DENSIFY_BLOCK_FRACTION`` of its blocks occupied."""
        return self.block_density() > DENSIFY_BLOCK_FRACTION

    def stored(self):
        """This matrix in the storage the recurrences use: CSR storage that
        the block rule stores dense is made dense, by the rule
        ``read_matrix_market`` applies at load.  Dense storage stays dense."""
        if self.is_sparse and self._dense_by_rule():
            return BlockMatrix(self.to_dense())
        return self

    def principal(self, coords):
        """The submatrix on the rows and columns ``coords`` (sorted), in
        the storage of ``stored``: sparse storage is cut as its entries,
        which the block rule then stores (``_stored``)."""
        if not self.is_sparse:
            return BlockMatrix(self.data[np.ix_(coords, coords)])
        rows, cols, vals = self._stored_entries()
        at = np.full(self.n, -1)
        at[coords] = np.arange(len(coords))
        rows, cols = at[rows], at[cols]
        keep = (rows >= 0) & (cols >= 0)
        return _stored(rows[keep], cols[keep], vals[keep], (len(coords),) * 2)

    # -- arithmetic -----------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, BlockMatrix):
            out = self.data @ other.data
            return BlockMatrix(out)
        return self.data @ other

    def left_product(self, L):
        """L @ self for a dense block of rows L, as a C-ordered ndarray.

        For CSR storage this is (M^T L^T)^T with M^T held as CSR, formed on
        the first call: scipy's own dense-by-CSR product goes through CSC
        storage and is several times slower.  Each row of the sparse
        product is computed from its row of L alone.
        """
        if not self.is_sparse:
            return L @ self.data
        if self._csr_t is None:
            self._csr_t = self.data.T.tocsr()
        return np.ascontiguousarray((self._csr_t @ L.T).T)

    def abs(self):
        return BlockMatrix(abs(self.data))

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


def block_closure(A, blocks):
    """The smallest set of blocks that holds ``blocks`` and every block
    that a row of A in the set reads, as a sorted tuple.

    Row i of x' = A x reads coordinate j when A[i, j] is stored (sparse
    storage, a stored zero included) or nonzero (dense), so block i // 2
    reads block j // 2, an occupied block of A; the walk goes from rows to
    columns.  A is block-triangular with respect to the closure C: no row
    in C reads outside it, so every power and every series in A (exp(A
    delta), Phi1, Phi2, A^2) restricted to C is the one of A restricted to
    C.  The walk costs O(visited) and stops once every block is reached.
    A block outside 0..b-1 is a ``DimensionError``.
    """
    A = _as_block_matrix(A)
    b = BlockStructure(A.n).b
    keys, starts = A._block_table()
    starts, reads = starts.tolist(), (keys % b).tolist()
    found, todo = set(), [int(i) for i in blocks]
    for i in todo:
        if not 0 <= i < b:
            raise DimensionError(f"block_closure: block {i} out of range "
                                 f"({b} blocks)", module="linalg")
    while todo and len(found) < b:
        i = todo.pop()
        if i not in found:
            found.add(i)
            todo.extend(reads[starts[i]:starts[i + 1]])
    return tuple(sorted(found)) if len(found) < b else tuple(range(b))


#: unit roundoff of binary64: the bound on each series' truncation
_UNIT_ROUNDOFF = 2.0 ** -53

#: largest ||B||_1 summed as one series; beyond it the step is split
_THETA_MAX = 1.0


def _one_norm(B):
    theta = float(np.max(abs(B).sum(axis=0), initial=0.0))
    if not math.isfinite(theta):
        raise NonFiniteError("A delta overflowed", module="linalg")
    return theta


def _degree(theta):
    """Smallest m with theta^(m+1)/(m+1)! / (1 - theta/(m+2)) <= u, for
    0 <= theta <= _THETA_MAX: the tail sum_{i>m} theta^i/(i+s)! of every
    phi_s then lies below u."""
    m, term = 0, theta              # term = theta^(m+1) / (m+1)!
    while term / (1.0 - theta / (m + 2)) > _UNIT_ROUNDOFF:
        m += 1
        term *= theta / (m + 1)
    return m


def _identity(B):
    n = B.shape[0]
    if not issparse(B):
        return np.eye(n)
    from scipy import sparse as sp
    return sp.eye_array(n, format="csr")


def _series(B, X, s, m):
    """sum_{i=0}^m B^i X / (i+s)! by Horner's rule; B and X are CSR
    arrays or ndarrays, and the result has the storage of B @ X."""
    T = X * (1.0 / math.factorial(m + s))
    for i in range(m - 1, -1, -1):
        T = B @ T + X * (1.0 / math.factorial(i + s))
    return T


def _rule_storage(F, eye):
    """F and the identity ``eye`` in the storage the block rule gives the
    iterate F[0] (``BlockMatrix.stored``): all dense once it stores a CSR
    F[0] dense, else as they are.  The iterate is read as it is held,
    unchecked: an overflow is refused once the squarings are done."""
    if issparse(F[0]):
        held = BlockMatrix.__new__(BlockMatrix)
        held._data, held._shape = F[0], F[0].shape
        if held._dense_by_rule():
            return [f.toarray() for f in F], np.eye(F[0].shape[0])
    return F, eye


def _phi_matrices(B, s):
    """[phi_0(B), ..., phi_s(B)] for s <= 2, in the storage of B.

    The series is summed for B h with h = 2^-j and ||B h||_1 <= 1, and the
    results are doubled back j times with F_k(t) = t^k phi_k(t B):
    F_0(2t) = F_0(t)^2, F_1(2t) = (I + F_0(t)) F_1(t) and
    F_2(2t) = (I + F_0(t)) F_2(t) + t F_1(t).  Before each doubling the
    block rule is applied to the iterate (``_rule_storage``): a CSR iterate
    that has filled in is squared dense from then on, and the results are
    made CSR again.
    """
    theta = _one_norm(B)
    j = math.ceil(math.log2(theta / _THETA_MAX)) if theta > _THETA_MAX else 0
    h = 2.0 ** -j
    Bh = B * h
    eye = _identity(B)
    F = [_series(Bh, eye, s, _degree(theta * h))]
    for k in range(s, 0, -1):       # phi_(k-1) = I/(k-1)! + B phi_k
        F.insert(0, eye * (1.0 / math.factorial(k - 1)) + Bh @ F[0])
    F = [f * h ** k for k, f in enumerate(F)]
    for _ in range(j):
        F, eye = _rule_storage(F, eye)
        grow = eye + F[0]
        if s == 2:
            F[2] = grow @ F[2] + F[1] * h
        if s >= 1:
            F[1] = grow @ F[1]
        F[0] = F[0] @ F[0]
        h *= 2.0
    if issparse(B) and not issparse(F[0]):
        from scipy import sparse as sp
        F = [sp.csr_array(f) for f in F]
    return F


def _phi_action(B, X, s):
    """phi_s(B) X for s <= 2 and a block of columns X (an ndarray).

    For ||B||_1 > 1 the action is taken in q substeps of exp(M / q) on the
    block vector (x, y, z), started at X in position s, where
    M (x, y, z) = (B x + y, z, 0): then exp(M) (x, y, z) has the top block
    phi_0(B) x + phi_1(B) y + phi_2(B) z.  M is never formed; its norm is
    max(||B||_1, 1), so every substep is one series of degree
    _degree(||B||_1 / q).  When the q substeps would cost more flops than
    the dense n x n matrix, phi_s(B) is formed instead: a B with a huge
    norm but a small spectral radius (a nilpotent part) would otherwise
    take millions of substeps.
    """
    theta = _one_norm(B)
    if theta <= _THETA_MAX:
        return _series(B, X, s, _degree(theta))
    q = math.ceil(theta / _THETA_MAX)
    n = B.shape[0]
    nnz = B.nnz if issparse(B) else n * n
    if q * nnz * (X.shape[1] if X.ndim == 2 else 1) > n ** 3:
        dense = B.toarray() if issparse(B) else B
        return _phi_matrices(dense, s)[s] @ X
    m = _degree(theta / q)
    Bq = B / q
    v = [np.zeros_like(X)] * 3
    v[s] = X
    for _ in range(q):
        x, y, z = v
        c = 1.0 / math.factorial(m)
        T = [x * c, y * c, z * c]
        for i in range(m - 1, -1, -1):
            c = 1.0 / math.factorial(i)
            T = [Bq @ T[0] + T[1] / q + x * c, T[2] / q + y * c, z * c]
        v = T
    return v[0]


def _finite(M, what):
    values = M.data if issparse(M) else M
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what}: result overflowed", module="linalg")
    return M


def _checked_step(delta, what):
    if not (np.isfinite(delta) and delta > 0):
        raise InputError(f"{what}: step must be positive and finite, got {delta}",
                         module="linalg")


def exp_matrix(A, delta):
    """Matrix exponential exp(A * delta) from the truncated Taylor series
    (see the module docstring).

    Sparse inputs stay sparse; dense inputs stay dense.
    """
    A = _as_block_matrix(A)
    _checked_step(delta, "exp_matrix")
    A.n  # square check
    with np.errstate(over="ignore", invalid="ignore"):
        phi, = _phi_matrices(A.data * delta, 0)
    return BlockMatrix(_finite(phi, "exp_matrix"))


def discretization_matrices(A, delta):
    """The transition matrix and its first two exponential integrals.

    Returns (Phi, Phi1, Phi2) where
      Phi  = exp(A d)
      Phi1 = sum_{i>=0} d^{i+1}/(i+1)! A^i   (integral of exp(A s) over [0, d])
      Phi2 = sum_{i>=0} d^{i+2}/(i+2)! A^i
    from one series for phi_2(A d), with phi_1 = I + A d phi_2 and
    phi_0 = I + A d phi_1.  Sparse inputs stay sparse.
    """
    A = _as_block_matrix(A)
    A.n  # square check
    _checked_step(delta, "discretization_matrices")
    with np.errstate(over="ignore", invalid="ignore"):
        phis = _phi_matrices(A.data * delta, 2)
        phis = [_finite(f * np.float64(delta) ** k, "discretization_matrices")
                for k, f in enumerate(phis)]
    return tuple(BlockMatrix(f) for f in phis)


def row_products(R, X):
    """R X for a dense (m, n) array R and a vector X of length n or an
    (n, p) array X, each row of R multiplied on its own.

    A row's result is then bitwise the same however many rows are stacked
    with it and wherever it lies in memory, which a BLAS product over the
    stacked rows does not promise: the rows held for some blocks give the
    same values as those rows held among all blocks.  Each row is one BLAS
    dot (a vector X) or one vector-matrix product (an array X), as
    ``HPolygon._rho_batch`` stacks its 1x2 by 2x1 products.
    """
    if X.ndim == 1:
        return (R[:, None, :] @ X[:, None]).ravel()
    return (R[:, None, :] @ X)[:, 0, :]


class BlockRows:
    """The held rows of a power of an n-column matrix, stacked in one
    C-contiguous ndarray ``data``: the rows of the blocks that
    ``MatrixPowerState`` holds, placed by ``BlockStructure.row_slices``."""

    def __init__(self, data):
        self.data = data

    @property
    def is_sparse(self):
        """False: the rows are always held dense."""
        return False


#: entries of held rows that a chunk of a row recurrence may reach: the
#: powers of ``reach._box_steps`` and the levels of
#: ``oracle.reach_nondecomposed``; a chunk never holds fewer than one step.
#: The input hulls that ``cli`` writes to v_bounds.csv are taken in chunks
#: of as many entries
_CHUNK_ENTRIES = 2 ** 12


def _stacked(arrays):
    """The equal-shape ``arrays`` stacked on a new first axis; one array is
    viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class MatrixPowerState:
    """Row blocks of consecutive powers of a square matrix.

    For the row blocks ``blocks`` (all of them when None), P holds the rows
    of Phi^k and Q the rows of Phi^(k+1), as dense ``BlockRows`` laid out
    by ``BlockStructure.row_slices``.  ``advance`` moves k on by one with
    R <- R Phi, which costs O(|blocks| nnz(Phi)) for a sparse Phi: no full
    power is ever formed.  Powers fill in, so their rows are held dense
    even when Phi is sparse.  A power that overflows is held as it is,
    non-finite: the step that reads it checks what it computes from it.
    """

    def __init__(self, phi, blocks=None):
        self.phi = _as_block_matrix(phi)
        bs = BlockStructure(self.phi.n)
        if blocks is None:
            blocks = range(bs.b)
        else:
            blocks = sorted({int(i) for i in blocks})
            for i in blocks:
                if not 0 <= i < bs.b:
                    raise DimensionError(f"MatrixPowerState: row block {i} out of "
                                         f"range ({bs.b} blocks)", module="linalg")
        self._slices = list(bs.row_slices(blocks).values())
        picked = bs.coords(blocks)
        eye_rows = np.zeros((picked.size, bs.n))
        eye_rows[np.arange(picked.size), picked] = 1.0
        rows = self.phi.data[picked]
        self.P = BlockRows(eye_rows)
        self.Q = BlockRows(rows.toarray() if self.phi.is_sparse else rows)

    def advance(self):
        R, phi = self.Q.data, self.phi.data
        if self.phi.is_sparse:
            # each row of the product is formed from its row of R alone
            new = self.phi.left_product(R)
        else:
            # a BLAS product over stacked rows may round a row differently,
            # so each block is its own product, which measured faster than
            # the batched ``row_products`` for one block and for all blocks
            new = np.empty_like(R)
            for rows in self._slices:
                np.matmul(R[rows], phi, out=new[rows])
        self.P, self.Q = self.Q, BlockRows(new)
        return self


def _action(A, X, delta, s, what):
    """delta^s phi_s(A delta) X, with X a vector of length n or an (n, m)
    block of columns."""
    A = _as_block_matrix(A)
    n = A.n
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != n:
        raise DimensionError(f"{what}: block has shape {X.shape}, matrix is {n}x{n}",
                             module="linalg")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError(f"{what}: non-finite vector", module="linalg")
    with np.errstate(over="ignore", invalid="ignore"):
        Y = _phi_action(A.data * delta, X, s) * np.float64(delta) ** s
    return _finite(Y, what)


def exp_action(A, v, delta):
    """Action exp(A delta) v without forming the full exponential.

    ``v`` is a vector of length n or an (n, m) block of columns.  The
    degree of the series depends on ||A delta||_1 alone, so every column
    gets the same relative truncation bound whatever its scale.
    """
    if not np.isfinite(delta):
        raise InputError(f"exp_action: step must be finite, got {delta}", module="linalg")
    return _action(A, v, delta, 0, "exp_action")


def phi2_action(A, R, delta):
    """Phi2(A, delta) R = sum_{i>=0} delta^(i+2)/(i+2)! A^i R, with one
    series for all columns of R and without forming Phi2."""
    _checked_step(delta, "phi2_action")
    return _action(A, R, delta, 2, "phi2_action")


# ----------------------------------------------------------------------
# MatrixMarket files
# ----------------------------------------------------------------------

#: one line of a coordinate file: 1-based row and column, then the value;
#: int32 indices, as scipy.io.mmread reads them for dimensions below 2^31
_ENTRY = np.dtype([("row", np.int32), ("col", np.int32), ("value", float)])


def _malformed(path, what):
    return InputError(f"{path}: malformed MatrixMarket data: {what}",
                      module="linalg")


def _header(path, header):
    """(format, symmetric) from the banner line, or an InputError."""
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
    return fmt, symmetry == "symmetric"


def _size(path, line, fmt, symmetric):
    """(shape, entry count) from the size line."""
    fields = 3 if fmt == "coordinate" else 2
    try:
        size = [int(t) for t in line.split()]
    except ValueError:
        size = []
    if (len(size) != fields or not 1 <= min(size[:2]) <= max(size[:2]) < 2 ** 31
            or size[-1] < 0):
        raise _malformed(path, f"size line {line.strip()!r} is not {fields} "
                               "nonnegative integers with dimensions in "
                               "1..2^31-1")
    shape = (size[0], size[1])
    if symmetric and shape[0] != shape[1]:
        raise _malformed(path, f"symmetric storage of a {shape[0]}x{shape[1]} "
                               "matrix")
    if fmt == "coordinate":
        return shape, size[2]
    n = shape[0]
    return shape, n * (n + 1) // 2 if symmetric else n * shape[1]


def _entries(path, body, dtype, count):
    """The ``count`` lines of ``body`` parsed as ``dtype`` in one numpy
    call; ``%`` comments and blank lines are skipped."""
    table = np.empty(0, dtype)
    if body.strip():
        try:
            table = np.loadtxt(io.StringIO(body), dtype=dtype, comments="%",
                               ndmin=1)
        except ValueError as exc:     # numpy's own advice follows a ';'
            raise _malformed(path, str(exc).split(";")[0]) from None
    if table.ndim != 1:
        raise _malformed(path, "expected one value per line")
    if table.size != count:
        raise _malformed(path, f"expected {count} entries, found {table.size}")
    return table


def _stored(rows, cols, vals, shape):
    """The matrix of the entries (rows[e], cols[e], vals[e]) stored by the
    block rule: dense, or held as its canonical entries with the block
    table the rule read.  A repeated position is summed in the order given
    from its first entry on, as ``scipy.io.mmread`` sums it; a non-finite
    sum is refused."""
    keys = np.asarray(rows, dtype=np.int64) * shape[1] + cols
    distinct, first = _unique(keys, first=True)
    summed = vals[first]
    repeat = np.ones(keys.size, dtype=bool)
    repeat[first] = False
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(summed, np.searchsorted(distinct, keys[repeat]), vals[repeat])
    if not np.all(np.isfinite(summed)):
        raise NonFiniteError("BlockMatrix: non-finite entries", module="linalg")
    rows, cols = rows[first], cols[first]
    held = BlockMatrix.__new__(BlockMatrix)
    held._entries, held._shape = (rows, cols, summed), shape
    held._table = _occupied_blocks(rows, cols, shape)
    if held._dense_by_rule():
        M = np.zeros(shape)
        M[rows, cols] = summed + 0.0      # a zero sum reads as +0.0
        return BlockMatrix(M)
    return held


def _from_coordinates(path, table, shape, symmetric):
    """The matrix of 1-based coordinate entries, stored by the block rule."""
    rows, cols, vals = table["row"] - 1, table["col"] - 1, table["value"]
    outside = (rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])
    if outside.any():
        e = int(np.argmax(outside))
        raise _malformed(path, f"entry {e + 1} at ({rows[e] + 1}, {cols[e] + 1}) "
                               f"lies outside the {shape[0]}x{shape[1]} matrix")
    if symmetric:
        # mirrored entries follow all listed ones, as scipy.io.mmread has them
        off = rows != cols
        rows, cols, vals = (np.concatenate((rows, cols[off])),
                            np.concatenate((cols, rows[off])),
                            np.concatenate((vals, vals[off])))
    return _stored(rows, cols, vals, shape)


def _from_array(values, shape, symmetric):
    """The matrix of a column-major array body (the lower triangle, for
    symmetric storage).  Like scipy.io.mmread, it reads a negative zero
    as +0.0."""
    values = values + 0.0
    if not symmetric:
        return BlockMatrix(values.reshape(shape[1], shape[0]).T)
    r, c = np.triu_indices(shape[0])     # (c, r) runs down each column
    M = np.empty(shape)
    M[c, r] = values
    M[r, c] = values
    return BlockMatrix(M)


def read_matrix_market(path):
    """Read a real MatrixMarket file into a BlockMatrix.

    Supports the coordinate and array formats with general or symmetric
    storage (Boisvert, Pozo & Remington, "The Matrix Market Exchange
    Formats: Initial Design", NIST 1996).  Symmetric entries are mirrored
    on load, and duplicate coordinate entries are summed once, in file
    order.  The entries are parsed by one numpy call with correctly
    rounded values, so the matrix is bitwise the one ``scipy.io.mmread``
    reads.

    Storage is decided here, once, by the block rule: an array file is
    dense, and a coordinate file is dense when more than
    ``DENSIFY_BLOCK_FRACTION`` of its 2x2 blocks hold an entry, CSR
    otherwise.  A CSR matrix is held as its canonical entries, and its CSR
    array is built, importing ``scipy.sparse``, when a product or a slice
    first needs it.  Reading a file imports no scipy module.
    """
    try:
        with open(path, "r") as fh:
            fmt, symmetric = _header(path, fh.readline().strip())
            line = fh.readline()
            while line.startswith("%") or (line and not line.strip()):
                line = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}",
                         module="linalg") from None
    except UnicodeDecodeError as exc:
        raise _malformed(path, exc) from None
    shape, count = _size(path, line, fmt, symmetric)
    if fmt == "array":
        return _from_array(_entries(path, body, float, count), shape, symmetric)
    return _from_coordinates(path, _entries(path, body, _ENTRY, count), shape,
                             symmetric)


def write_matrix_market(path, A, comment=None):
    """Write a BlockMatrix (or array) to a MatrixMarket file.

    Dense storage is written in the array format, sparse storage in the
    coordinate format (its entries as held, row by row, so no CSR array is
    built), both with general symmetry so the output stays readable by
    read_matrix_market regardless of the matrix's structure.  Each line of
    ``comment`` becomes a ``%`` line, and values are written in shortest
    round-trip form, so the file reads back bitwise (a negative zero reads
    as +0.0).
    """
    A = _as_block_matrix(A)
    m, n = A.shape
    if A.is_sparse:
        rows, cols, vals = A._stored_entries()
        banner, size = "coordinate", f"{m} {n} {len(vals)}"
        body = map("{} {} {!r}".format, (rows + 1).tolist(), (cols + 1).tolist(),
                   vals.tolist())
    else:
        banner, size = "array", f"{m} {n}"
        body = map(repr, A.data.ravel(order="F").tolist())
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix {banner} real general\n")
        fh.writelines(f"%{line}\n" for line in (comment or "").split("\n"))
        fh.write(size + "\n")
        fh.writelines(f"{line}\n" for line in body)
