"""Compact convex sets represented through their support functions.

Concrete types (boxes, norm balls, constraint polygons, points) answer
support queries in closed form; lazy combinators (linear map, Minkowski
sum, Cartesian product, convex hull of a pair) answer them by recursion
over the operand tree without ever materialising the combined set.

All set objects are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

import numpy as np
from scipy import sparse as _sp

from .errors import (
    DegeneratePolygonError,
    DimensionError,
    InvalidSetError,
    UnboundedSetError,
)

__all__ = [
    "LazySet",
    "Hyperrectangle",
    "BallP",
    "HPolygon",
    "Singleton",
    "LinearMap",
    "Scaled",
    "MinkowskiSum",
    "CartesianProduct",
    "ConvexHullPair",
    "support_function",
    "support_vector",
    "polygon_support_vector",
    "symmetric_interval_hull",
    "direction_leq",
    "minkowski_sum_all",
]

#: adjacent polygon constraints with |det| below this times the product of
#: the normal lengths are reported as degenerate instead of intersected
PARALLEL_TOL = 1e-12


def _frozen(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _as_vector(x, name, module="sets"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {v.shape}",
                             module=module)
    if not np.all(np.isfinite(v)):
        raise InvalidSetError(f"{name} must be finite", module=module)
    return v


class LazySet:
    """Base class: a nonempty compact convex set queried via support functions.

    Leaves give `_rho` and `_sigma`, paired by the default `_rho_sigma`;
    `HPolygon` and the combinators give `_rho_sigma`, one walk for both.
    """

    dim = 0

    def support_function(self, direction):
        """Return max of <direction, x> over the set."""
        l = self._direction(direction)
        return float(self._rho(l))

    def support_vector(self, direction):
        """Return a maximizer of <direction, x> over the set."""
        l = self._direction(direction)
        return self._rho_sigma(l)[1]

    def support_pair(self, direction):
        """(support_function, support_vector) from one walk of the set."""
        l = self._direction(direction)
        rho, sigma = self._rho_sigma(l)
        return float(rho), sigma

    def support_batch(self, directions):
        """Support values for each row of a (m, dim) direction array."""
        L = np.asarray(directions, dtype=float)
        if L.ndim != 2 or L.shape[1] != self.dim:
            raise DimensionError(
                f"{type(self).__name__}: direction batch has shape {L.shape}, "
                f"set has dimension {self.dim}")
        return self._rho_batch(L)

    # -- subclass hooks -------------------------------------------------

    def _rho(self, l):
        raise NotImplementedError

    def _sigma(self, l):
        raise NotImplementedError

    def _rho_sigma(self, l):
        return self._rho(l), self._sigma(l)

    def _rho_batch(self, L):
        return np.array([self._rho(row) for row in L])

    def _axis_supports(self, T):
        """(hi, nlo): the support values of T X in +e_i and in -e_i, for
        every coordinate i of T X.  T is None (the identity), a float (that
        multiple of it) or a `_Matrix`; a sparse T acts by sparse products.

        Here, by support queries on the rows of T and of -T, a chunk of
        rows at a time, so that no 2m x n direction matrix is built;
        subclasses with a closed form override it."""
        hi, nlo = [], []
        for R in _transform_row_chunks(T, self.dim):
            h, nl = np.zeros(len(R)), np.zeros(len(R))
            rows = np.flatnonzero(R.any(axis=1))  # a zero row has support 0
            if len(rows) < len(R):
                R = R[rows]
            vals = self._rho_batch(np.vstack([R, -R]))
            h[rows], nl[rows] = vals[:len(rows)], vals[len(rows):]
            hi.append(h)
            nlo.append(nl)
        return np.concatenate(hi), np.concatenate(nlo)

    def _direction(self, direction):
        l = np.asarray(direction, dtype=float)
        if l.shape != (self.dim,):
            raise DimensionError(
                f"{type(self).__name__}: direction has shape {l.shape}, "
                f"set has dimension {self.dim}")
        return l

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def support_function(X, direction):
    """Support value of ``X`` in ``direction`` (max of the inner product)."""
    return X.support_function(direction)


def support_vector(X, direction):
    """Some point of ``X`` attaining the support value in ``direction``."""
    return X.support_vector(direction)


# ----------------------------------------------------------------------
# transforms of the axis-support walk (`LazySet._axis_supports`)
# ----------------------------------------------------------------------

#: entries of a chunk of rows of a transform (`_transform_row_chunks`)
_AXIS_CHUNK_ENTRIES = 1 << 16


class _Matrix:
    """A dense or CSR matrix with its entrywise absolute value, formed
    once, on first use."""

    __slots__ = ("M", "_abs")

    def __init__(self, M):
        self.M = M
        self._abs = None

    @property
    def abs(self):
        if self._abs is None:
            self._abs = abs(self.M)
        return self._abs


def _transform_row_chunks(T, n):
    """The rows of T (of n columns) as dense arrays of at most about
    `_AXIS_CHUNK_ENTRIES` entries each."""
    m = T.M.shape[0] if isinstance(T, _Matrix) else n
    step = max(1, _AXIS_CHUNK_ENTRIES // n)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        if isinstance(T, _Matrix):
            R = T.M[lo:hi]
            yield R.toarray() if _sp.issparse(R) else R
        else:
            R = np.zeros((hi - lo, n))
            R[np.arange(hi - lo), np.arange(lo, hi)] = 1.0 if T is None else T
            yield R


def _transform_apply(T, x, absolute=False):
    """T x, or |T| x with ``absolute``."""
    if T is None:
        return x
    if isinstance(T, float):
        return (abs(T) if absolute else T) * x
    return np.asarray((T.abs if absolute else T.M) @ x, dtype=float)


def _transform_compose(T, m):
    """T M for a `_Matrix` m; m itself is kept when T is None."""
    if T is None:
        return m
    if isinstance(T, float):
        return _Matrix(T * m.M)
    return _Matrix(T.M @ m.M)


def _transform_scale(T, factor):
    """factor T."""
    if T is None:
        return factor
    if isinstance(T, float):
        return factor * T
    return _Matrix(factor * T.M)


# ----------------------------------------------------------------------
# concrete set types
# ----------------------------------------------------------------------

class Hyperrectangle(LazySet):
    """Axis-aligned box given by center and nonnegative per-coordinate radius."""

    def __init__(self, center, radius):
        c = _as_vector(center, "center")
        r = _as_vector(radius, "radius")
        if c.shape != r.shape:
            raise DimensionError(
                f"Hyperrectangle: center has dimension {c.shape[0]}, "
                f"radius has dimension {r.shape[0]}")
        if np.any(r < 0):
            raise InvalidSetError("Hyperrectangle: radius must be nonnegative")
        self.center = _frozen(c)
        self.radius = _frozen(r)

    @classmethod
    def from_bounds(cls, low, high):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if np.any(high < low):
            raise InvalidSetError("Hyperrectangle: upper bound below lower bound")
        return cls((low + high) / 2.0, (high - low) / 2.0)

    @property
    def dim(self):
        return self.center.shape[0]

    @property
    def low(self):
        return self.center - self.radius

    @property
    def high(self):
        return self.center + self.radius

    def _rho(self, l):
        return l @ self.center + np.abs(l) @ self.radius

    def _sigma(self, l):
        return self.center + np.where(l >= 0.0, self.radius, -self.radius)

    def _rho_batch(self, L):
        return L @ self.center + np.abs(L) @ self.radius

    def _axis_supports(self, T):
        # T c -+ |T| r
        Tc = _transform_apply(T, self.center)
        Tr = _transform_apply(T, self.radius, absolute=True)
        return Tc + Tr, -Tc + Tr


class BallP(LazySet):
    """Ball of the p-norm, p in {1, 2, inf}."""

    def __init__(self, center, radius, p):
        c = _as_vector(center, "center")
        if not np.isfinite(radius) or radius < 0:
            raise InvalidSetError("BallP: radius must be finite and nonnegative")
        if p not in (1, 2) and not np.isinf(p):
            raise InvalidSetError(f"BallP: unsupported norm order {p!r}")
        self.center = _frozen(c)
        self.radius = float(radius)
        self.p = float(p)

    @property
    def dim(self):
        return self.center.shape[0]

    @property
    def _dual_ord(self):
        # support of the unit p-ball is the dual norm of the direction
        if self.p == 1:
            return np.inf
        if self.p == 2:
            return 2
        return 1

    def _rho(self, l):
        return l @ self.center + self.radius * np.linalg.norm(l, ord=self._dual_ord)

    def _sigma(self, l):
        nrm = np.linalg.norm(l)
        if nrm == 0.0:
            return self.center.copy()
        if self.p == 2:
            return self.center + self.radius * l / nrm
        if np.isinf(self.p):
            return self.center + self.radius * np.where(l >= 0.0, 1.0, -1.0)
        # p = 1: a signed coordinate vertex with the largest |l_i|
        i = int(np.argmax(np.abs(l)))
        x = self.center.copy()
        x[i] += self.radius * (1.0 if l[i] >= 0 else -1.0)
        return x

    def _rho_batch(self, L):
        q = self._dual_ord
        if q == 1:
            dual = np.sum(np.abs(L), axis=1)
        elif q == 2:
            dual = np.sqrt(np.sum(L * L, axis=1))
        else:
            dual = np.max(np.abs(L), axis=1)
        return L @ self.center + self.radius * dual

    def _axis_supports(self, T):
        # T c -+ r times the dual norm of each row of T
        Tc = _transform_apply(T, self.center)
        if T is None:
            dual = 1.0
        elif isinstance(T, float):
            dual = abs(T)
        else:
            dual = _row_norms(T.M, self._dual_ord)
        Tr = self.radius * dual
        return Tc + Tr, -Tc + Tr


class Singleton(LazySet):
    """A single point."""

    def __init__(self, point):
        self.point = _frozen(_as_vector(point, "point"))

    @property
    def dim(self):
        return self.point.shape[0]

    def _rho(self, l):
        return l @ self.point

    def _sigma(self, l):
        return self.point.copy()

    def _rho_batch(self, L):
        return L @ self.point

    def _axis_supports(self, T):
        Tp = _transform_apply(T, self.point)
        return Tp, -Tp


def zero_set(dim):
    """The origin of R^dim as a Singleton."""
    return Singleton(np.zeros(dim))


# ----------------------------------------------------------------------
# planar constraint polygons with logarithmic support queries
# ----------------------------------------------------------------------

def _sector(x, y):
    """Index of the angular sector of (x, y), monotone in the angle over (-pi, pi]."""
    if y < 0:
        return 0 if x < 0 else 1  # (-pi, -pi/2), [-pi/2, 0)
    return 2 if x > 0 else 3      # [0, pi/2), [pi/2, pi]


def _sectors(x, y):
    """`_sector` of every entry of two coordinate arrays."""
    return np.where(y < 0, np.where(x < 0, 0, 1), np.where(x > 0, 2, 3))


def _angle_leq(sa, ax, ay, sb, bx, by):
    """`direction_leq` on plane vectors given by their sectors and coordinates."""
    return sa < sb or (sa == sb and ax * by - ay * bx >= 0.0)


def direction_leq(a, b):
    """Angular order on nonzero plane vectors: angle(a) <= angle(b) in (-pi, pi].

    Decided by sector membership and a single cross product, so the
    comparison is exact for rational inputs (no trigonometric calls).
    """
    ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
    return _angle_leq(_sector(ax, ay), ax, ay, _sector(bx, by), bx, by)


def _intersect_rows(a1, b1, a2, b2):
    """Vertex of two tight constraints a_i . x = b_i."""
    det = a1[0] * a2[1] - a1[1] * a2[0]
    scale = np.hypot(a1[0], a1[1]) * np.hypot(a2[0], a2[1])
    if abs(det) < PARALLEL_TOL * scale:
        raise DegeneratePolygonError(
            f"adjacent constraints nearly parallel (|det| = {abs(det):.3e})")
    x = (a2[1] * b1 - a1[1] * b2) / det
    y = (a1[0] * b2 - a2[0] * b1) / det
    return np.array([x, y])


def _successive_vertices(A, b):
    """Vertex of every constraint pair (i, i + 1), as `_intersect_rows`
    computes it but without its parallel test, and the pair's determinant."""
    A1, b1 = np.concatenate((A[1:], A[:1])), np.concatenate((b[1:], b[:1]))
    det = A[:, 0] * A1[:, 1] - A[:, 1] * A1[:, 0]
    V = np.empty_like(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        V[:, 0] = (A1[:, 1] * b - A[:, 1] * b1) / det
        V[:, 1] = (A[:, 0] * b1 - A1[:, 0] * b) / det
    return V, det


def _bounding_rows(A, b):
    """Indices of the halfplanes that bound the intersection of all rows.

    The rows are unit normals in angular order that positively span the
    plane.  One pass keeps a deque of the halfplanes whose edges are
    nonempty so far: a new halfplane drops those at either end whose last
    vertex it does not contain strictly.  Returns None when the
    intersection is empty.
    """
    ax, ay, bb = A[:, 0].tolist(), A[:, 1].tolist(), b.tolist()

    def cross(i, j):
        return ax[i] * ay[j] - ay[i] * ax[j]

    def cuts(k, i, j):
        # does halfplane k fail to contain the vertex of i and j strictly?
        det = cross(i, j)
        x = (ay[j] * bb[i] - ay[i] * bb[j]) / det
        y = (ax[i] * bb[j] - ax[j] * bb[i]) / det
        return ax[k] * x + ay[k] * y >= bb[k]

    rows = deque()
    for k in range(len(bb)):
        while len(rows) > 1 and cuts(k, rows[-2], rows[-1]):
            rows.pop()
        while len(rows) > 1 and cuts(k, rows[0], rows[1]):
            rows.popleft()
        # an angle of pi or more between neighbours leaves nothing between them
        if rows and cross(rows[-1], k) <= 0.0:
            return None
        rows.append(k)
    while len(rows) > 2 and cuts(rows[0], rows[-2], rows[-1]):
        rows.pop()
    while len(rows) > 2 and cuts(rows[-1], rows[0], rows[1]):
        rows.popleft()
    if len(rows) < 3 or cross(rows[-1], rows[0]) <= 0.0:
        return None
    return list(rows)


class HPolygon(LazySet):
    """Bounded planar polygon as an intersection of halfplanes a.x <= b.

    Constraints are normalised to unit normals and stored sorted by the
    angular order of their normals.  With ``check_feasible`` the
    constructor verifies that the constraints describe a nonempty bounded
    region and removes redundant halfplanes; internally constructed
    polygons (whose constraints are support evaluations of an existing
    set) may skip that.

    The vertex of each adjacent constraint pair is computed once, here, and
    every support query is one binary search over the angular order of
    the normals: the support vector in direction l is the vertex where the
    last normal at or before l meets the next one.  So the polygon gives
    `_rho_sigma` from one search, and a batch searches each row.
    """

    dim = 2

    def __init__(self, normals, offsets, check_feasible=True):
        A = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if A.ndim != 2 or A.shape[1] != 2:
            raise DimensionError(f"HPolygon: normals must have shape (m, 2), got {A.shape}")
        if b.shape != (A.shape[0],):
            raise DimensionError(
                f"HPolygon: got {A.shape[0]} normals but {b.shape[0]} offsets")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InvalidSetError("HPolygon: constraint data must be finite")
        if A.shape[0] < 3:
            raise InvalidSetError("HPolygon: at least 3 constraints are required")

        norms = np.hypot(A[:, 0], A[:, 1])
        if np.any(norms == 0.0):
            raise InvalidSetError("HPolygon: zero normal vector")
        A = A / norms[:, None]
        b = b / norms

        A, b = self._sort_and_dedup(A, b)
        V, det = _successive_vertices(A, b)
        self._check_spanning(det)
        if check_feasible:
            A, b, V, det = self._canonicalize(A, b, V, det)
        self.normals = _frozen(A)
        self.offsets = _frozen(b)
        self._vertices = _frozen(V)
        # the search reads the normals as Python floats, and their sectors
        self._ax, self._ay = A[:, 0].tolist(), A[:, 1].tolist()
        self._sec_list = _sectors(A[:, 0], A[:, 1]).tolist()
        # pairs that `_intersect_rows` may reject: it decides them at query
        # time (the normals have unit length, so its scale is about 1)
        self._near_parallel = frozenset(
            np.flatnonzero(np.abs(det) < 2.0 * PARALLEL_TOL).tolist())

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _sort_and_dedup(A, b):
        x, y = A[:, 0], A[:, 1]
        sec = _sectors(x, y)
        with np.errstate(divide="ignore"):
            ratio = np.where(x != 0.0, y / np.where(x != 0.0, x, 1.0), -np.inf)
        order = np.lexsort((ratio, sec))
        A, b = A[order], b[order]
        # merge constraints with (numerically) identical normals, keep the
        # tighter.  Only neighbours, or the last and the first entry, can
        # merge, and only if their cross product is below 1e-14; that is
        # rare, so all these pairs are tested at once and the loop, which
        # makes the full test, runs only if some pair passes
        B = np.concatenate([A, A[:1]])
        P, Q = B[:-1], B[1:]
        if not (abs(P[:, 0] * Q[:, 1] - P[:, 1] * Q[:, 0]) < 1e-14).any():
            return A, b
        keep = []
        for i in range(A.shape[0]):
            if keep:
                j = keep[-1]
                cross = A[j, 0] * A[i, 1] - A[j, 1] * A[i, 0]
                if abs(cross) < 1e-14 and A[j] @ A[i] > 0.0:
                    if b[i] < b[j]:
                        keep[-1] = i
                    continue
            keep.append(i)
        # the first and last entry may be duplicates across the wrap; the
        # one kept stays where it is, so the angular order holds
        if len(keep) > 1:
            i, j = keep[0], keep[-1]
            cross = A[j, 0] * A[i, 1] - A[j, 1] * A[i, 0]
            if abs(cross) < 1e-14 and A[j] @ A[i] > 0.0:
                keep.pop(0 if b[j] < b[i] else -1)
        return A[keep], b[keep]

    @staticmethod
    def _check_spanning(det):
        """Reject normals whose successive pairs (determinants det) do not
        all turn counter-clockwise by less than pi."""
        if det.shape[0] < 3:
            raise InvalidSetError("HPolygon: fewer than 3 distinct normal directions")
        if np.any(det <= 0.0):
            raise InvalidSetError(
                "HPolygon: normals do not positively span the plane "
                "(the feasible set is unbounded)")

    @staticmethod
    def _canonicalize(A, b, V, det):
        """Ensure every successive constraint pair meets at a feasible vertex.

        When that already holds for the successive vertices V the support
        search is exact.
        Otherwise the redundant halfplanes are stripped by one pass over
        the angular order (`_bounding_rows`).  A region that does not
        contain a disc of radius 1e-10 * scale, which that pass detects
        on the offsets moved inwards by this radius, is rejected.
        Returns the constraints kept, with `_successive_vertices` of them.
        """
        scale = 1.0 + np.max(np.abs(b))

        def feasible(V):
            return np.all(np.isfinite(V)) and np.all(A @ V.T <= b[:, None] + 1e-9 * scale)

        if feasible(V):
            return A, b, V, det
        inset = 1e-10 * scale
        if _bounding_rows(A, b - inset) is None:
            if _bounding_rows(A, b + inset) is None:
                raise InvalidSetError("HPolygon: constraints are infeasible")
            raise DegeneratePolygonError(
                "HPolygon: feasible region has empty interior")
        rows = _bounding_rows(A, b)
        if rows is not None:
            V, det = _successive_vertices(A[rows], b[rows])
            if feasible(V):
                return A[rows], b[rows], V, det
        raise InvalidSetError("HPolygon: could not reduce constraints "
                              "to a minimal representation")

    # -- queries --------------------------------------------------------

    def _search(self, x, y):
        """Index i of the last normal a_i <= (x, y) in the angular order;
        0 for the direction 0, whose support every point attains."""
        if not (x or y):
            return 0
        ax, ay, sec = self._ax, self._ay, self._sec_list
        s = _sector(x, y)
        if not _angle_leq(sec[0], ax[0], ay[0], s, x, y):
            return len(sec) - 1
        lo, hi = 0, len(sec) - 1   # invariant: a_lo <= l, a_{hi+1} > l (cyclically)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _angle_leq(sec[mid], ax[mid], ay[mid], s, x, y):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _exact_vertex(self, i):
        j = (i + 1) % self.normals.shape[0]
        return _intersect_rows(self.normals[i], self.offsets[i],
                               self.normals[j], self.offsets[j])

    def _vertex_for(self, l):
        i = self._search(*l.tolist())
        if i in self._near_parallel:
            return self._exact_vertex(i)
        return self._vertices[i]

    def _rho(self, l):
        return l @ self._vertex_for(l)

    def _rho_sigma(self, l):
        v = self._vertex_for(l)
        return l @ v, v.copy()

    def _rho_batch(self, L):
        idx = [self._search(x, y) for x, y in L.tolist()]
        for i in self._near_parallel.intersection(idx):
            self._exact_vertex(i)  # raises on a degenerate pair
        # a stack of 1x2 by 2x1 products rounds each row as `l @ v` does
        return (L[:, None, :] @ self._vertices[idx][:, :, None]).ravel()


def polygon_support_vector(P, direction):
    """Support vertex of an HPolygon via binary search over the sorted normals."""
    if not isinstance(P, HPolygon):
        raise DimensionError("polygon_support_vector expects an HPolygon")
    return P.support_vector(direction)


# ----------------------------------------------------------------------
# lazy combinators
# ----------------------------------------------------------------------

def _wrap_matrix(M):
    if _sp.issparse(M):
        return _sp.csr_array(M)
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise DimensionError(f"LinearMap: matrix must be two-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise InvalidSetError("LinearMap: matrix entries must be finite")
    return out


class LinearMap(LazySet):
    """Image M X of a set under a (possibly sparse) matrix.

    M^T is kept, as CSR for a sparse M, and |M| once formed.  A batch of
    directions L is mapped as L M = (M^T L^T)^T: for a CSR matrix this is
    how scipy computes L M, but with the transpose built anew on every call
    and in CSC storage, whose product is several times slower.
    """

    def __init__(self, matrix, operand):
        M = _wrap_matrix(matrix)
        if M.shape[1] != operand.dim:
            raise DimensionError(
                f"LinearMap: matrix has {M.shape[1]} columns, "
                f"operand has dimension {operand.dim}")
        self.matrix = M
        self.operand = operand
        self._mt = M.T.tocsr() if _sp.issparse(M) else M.T
        self._m = _Matrix(M)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def _rho(self, l):
        return self.operand._rho(np.asarray(self._mt @ l, dtype=float))

    def _rho_sigma(self, l):
        rho, inner = self.operand._rho_sigma(np.asarray(self._mt @ l, dtype=float))
        return rho, np.asarray(self.matrix @ inner, dtype=float)

    def _rho_batch(self, L):
        if _sp.issparse(self.matrix):
            LM = (self._mt @ L.T).T
        else:
            LM = L @ self.matrix
        return self.operand._rho_batch(np.asarray(LM, dtype=float))

    def _axis_supports(self, T):
        # nested maps compose first: T (M Y) = (T M) Y
        return self.operand._axis_supports(_transform_compose(T, self._m))


class Scaled(LazySet):
    """Scalar multiple lambda X; supports follow rho_{lX}(d) = rho_X(l d)."""

    def __init__(self, factor, operand):
        if not np.isfinite(factor):
            raise InvalidSetError("Scaled: factor must be finite")
        self.factor = float(factor)
        self.operand = operand

    @property
    def dim(self):
        return self.operand.dim

    def _rho(self, l):
        return self.operand._rho(self.factor * l)

    def _rho_sigma(self, l):
        rho, sigma = self.operand._rho_sigma(self.factor * l)
        return rho, self.factor * sigma

    def _rho_batch(self, L):
        return self.operand._rho_batch(self.factor * L)

    def _axis_supports(self, T):
        return self.operand._axis_supports(_transform_scale(T, self.factor))


class MinkowskiSum(LazySet):
    """Minkowski sum X + Y; support values and vectors add."""

    def __init__(self, left, right):
        if left.dim != right.dim:
            raise DimensionError(
                f"MinkowskiSum: operands have dimensions {left.dim} and {right.dim}")
        self.left = left
        self.right = right

    @property
    def dim(self):
        return self.left.dim

    def _rho(self, l):
        return self.left._rho(l) + self.right._rho(l)

    def _rho_sigma(self, l):
        (a, sa), (b, sb) = self.left._rho_sigma(l), self.right._rho_sigma(l)
        return a + b, sa + sb

    def _rho_batch(self, L):
        return self.left._rho_batch(L) + self.right._rho_batch(L)

    def _axis_supports(self, T):
        ha, na = self.left._axis_supports(T)
        hb, nb = self.right._axis_supports(T)
        return ha + hb, na + nb


class CartesianProduct(LazySet):
    """Cartesian product of factor sets; supports split per factor."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise InvalidSetError("CartesianProduct: at least one factor is required")
        self.parts = tuple(parts)
        # the coordinates of each part, as slices built once
        ends = accumulate(p.dim for p in parts)
        self._slices = tuple(slice(e - p.dim, e) for p, e in zip(parts, ends))

    @property
    def dim(self):
        return self._slices[-1].stop

    def _split(self, l):
        return [l[s] for s in self._slices]

    def _rho(self, l):
        return sum(p._rho(li) for p, li in zip(self.parts, self._split(l)))

    def _rho_sigma(self, l):
        pairs = [p._rho_sigma(li) for p, li in zip(self.parts, self._split(l))]
        return sum(rho for rho, _ in pairs), np.concatenate([s for _, s in pairs])

    def _rho_batch(self, L):
        total = np.zeros(L.shape[0])
        for p, s in zip(self.parts, self._slices):
            total += p._rho_batch(L[:, s])
        return total

    def _axis_supports(self, T):
        # the identity (or a multiple) keeps the parts apart; a matrix
        # T = [T_1 ... T_p] maps the product to the sum of the T_j X_j
        if not isinstance(T, _Matrix):
            pairs = [p._axis_supports(T) for p in self.parts]
            return (np.concatenate([h for h, _ in pairs]),
                    np.concatenate([nl for _, nl in pairs]))
        M = T.M.tocsc() if _sp.issparse(T.M) else T.M   # cheap column slices
        hi, nlo = np.zeros(M.shape[0]), np.zeros(M.shape[0])
        for p, s in zip(self.parts, self._slices):
            cols = _Matrix(M[:, s])
            h, nl = p._axis_supports(cols)
            hi += h
            nlo += nl
        return hi, nlo


class ConvexHullPair(LazySet):
    """Convex hull of the union of two sets; supports take the maximum."""

    def __init__(self, left, right):
        if left.dim != right.dim:
            raise DimensionError(
                f"ConvexHullPair: operands have dimensions {left.dim} and {right.dim}")
        self.left = left
        self.right = right

    @property
    def dim(self):
        return self.left.dim

    def _rho(self, l):
        return max(self.left._rho(l), self.right._rho(l))

    def _rho_sigma(self, l):
        (a, sa), (b, sb) = self.left._rho_sigma(l), self.right._rho_sigma(l)
        return max(a, b), (sa if a >= b else sb)

    def _rho_batch(self, L):
        return np.maximum(self.left._rho_batch(L), self.right._rho_batch(L))

    def _axis_supports(self, T):
        ha, na = self.left._axis_supports(T)
        hb, nb = self.right._axis_supports(T)
        return np.maximum(ha, hb), np.maximum(na, nb)


def minkowski_sum_all(parts):
    """Fold a list of sets into a balanced MinkowskiSum tree."""
    parts = list(parts)
    if not parts:
        raise InvalidSetError("minkowski_sum_all: empty operand list")
    while len(parts) > 1:
        nxt = [MinkowskiSum(parts[i], parts[i + 1])
               for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def _row_norms(M, ord):
    """The ord-norm (1, 2 or inf) of every row of a dense or CSR matrix."""
    if ord == 1:
        norms = abs(M).sum(axis=1)
    elif ord == 2:
        norms = np.sqrt((M * M).sum(axis=1))
    else:
        norms = abs(M).max(axis=1)
    return norms.toarray() if _sp.issparse(norms) else np.asarray(norms)


def symmetric_interval_hull(X):
    """Smallest origin-symmetric box containing X.

    Coordinate radius i is max(rho(e_i), rho(-e_i)), from the axis
    supports of X (`LazySet._axis_supports`): in closed form for boxes,
    points and balls under linear maps and scalings, and for sums,
    products and hulls of such sets -- |M c| plus |M| r for a box of
    radius r, or plus r times the dual norm of each row of M for a ball
    of radius r -- and by support queries for the rest.  A sparse M acts
    by sparse products.
    """
    hi, nlo = X._axis_supports(None)
    radius = np.maximum(hi, nlo)
    if not np.all(np.isfinite(radius)):
        raise UnboundedSetError("symmetric_interval_hull: support evaluation "
                                "produced a non-finite value")
    return Hyperrectangle(np.zeros(X.dim), radius)
