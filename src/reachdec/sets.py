"""Compact convex sets represented through their support functions.

Concrete types (boxes, norm balls, constraint polygons, points) answer
support queries in closed form; lazy combinators (linear map, Minkowski
sum, Cartesian product, convex hull of a pair) answer them by recursion
over the operand tree without ever materialising the combined set.  A
sum of linear images of low-dimensional vertex tables
(``VertexImageSum``) holds its image points and answers by maxima over
them.

All set objects are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

import numpy as np

from .errors import (
    DegeneratePolygonError,
    DimensionError,
    InputError,
    InvalidSetError,
    UnboundedSetError,
)
from .linalg import _canonical, issparse, row_products

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
    "VertexImageSum",
    "FactoredRows",
    "vertex_table",
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


def _as_vector(x, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {v.shape}",
                             module="sets")
    if not np.all(np.isfinite(v)):
        raise InvalidSetError(f"{name} must be finite", module="sets")
    return v


class LazySet:
    """Base class: a nonempty compact convex set queried via support functions.

    Every set answers through three walks of its operand tree:
    `_rho_sigma` (one direction: its support value and a maximizer),
    `_rho_batch` (the support values of the rows of a `FactoredRows`; by
    default one `_rho_sigma` per row) and `_axis_supports` (the support
    values in +-e_i of a transform of the set; by default support
    batches).  The public queries below read only these.  Boxes, balls
    and points give the other two in closed form, the combinators recurse
    into their operands, ``VertexImageSum`` takes maxima over its image
    points, and a polygon searches its vertices, its axis supports being
    support batches.
    """

    dim = 0

    def support_function(self, direction):
        """Return max of <direction, x> over the set."""
        l = self._direction(direction)
        return float(self._rho_sigma(l)[0])

    def support_vector(self, direction):
        """Return a maximizer of <direction, x> over the set."""
        return self.support_pair(direction)[1]

    def support_pair(self, direction):
        """(support_function, support_vector) from one walk of the set.
        The vector is the caller's own: `_rho_sigma` may answer with a
        read-only row of a set's table."""
        l = self._direction(direction)
        rho, sigma = self._rho_sigma(l)
        return float(rho), np.array(sigma)

    def support_batch(self, directions):
        """Support values for each row of a (m, dim) direction array, or of
        the directions D R_j of a `FactoredRows`, level after level: (s m,)
        for s levels of m rows."""
        F = (directions if isinstance(directions, FactoredRows) else
             FactoredRows(None, np.asarray(directions, dtype=float), 1))
        if F.R.ndim != 2 or F.R.shape[1] != self.dim:
            raise DimensionError(
                f"{type(self).__name__}: direction batch has shape {F.R.shape}, "
                f"set has dimension {self.dim}")
        return self._rho_batch(F)

    # -- subclass hooks -------------------------------------------------

    def _rho_sigma(self, l):
        raise NotImplementedError

    def _rho_batch(self, F):
        return np.array([self._rho_sigma(row)[0] for row in F.rows])

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
            vals = self._rho_batch(FactoredRows(None, np.vstack([R, -R]), 1))
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


class FactoredRows:
    """The directions of a batch query (`LazySet.support_batch`), held as
    a product: the rows of D R_j for each level j of a stack of
    ``levels`` levels R_j of c rows, R holding them one level after
    another, (levels c, d).  D is (m, c), or None for the identity, where
    the rows are R itself; a plain direction array L is FactoredRows(None,
    L, 1).

    Since rho(D R, M X) = rho(D (R M), X), a `LinearMap` maps R, c rows,
    not the m rows of the product (``mapped``).  Every other set, a
    `Scaled` and a `CartesianProduct` among them, answers on the product
    ``rows``, formed once, on first use, so the operands of a sum or a
    hull, which are passed the same object, share it."""

    __slots__ = ("D", "R", "levels", "_rows", "_abs")

    def __init__(self, D, R, levels):
        self.D, self.R, self.levels = D, R, levels
        self._rows = R if D is None else None
        self._abs = None

    @property
    def rows(self):
        """The (levels m, d) array of D R_0, D R_1, ..."""
        if self._rows is None:
            d = self.R.shape[1]
            self._rows = (self.D @ self.R.reshape(self.levels, -1, d)).reshape(-1, d)
        return self._rows

    @property
    def abs_rows(self):
        """|rows|, formed once, on first use."""
        if self._abs is None:
            self._abs = np.abs(self.rows)
        return self._abs

    def mapped(self, linear_map):
        """D (R_j M) for the matrix M of a `LinearMap`."""
        return FactoredRows(self.D, linear_map.map_rows(self.R), self.levels)

    def head(self, levels):
        """The first ``levels`` levels (this object, for all of them), with
        the part of ``rows`` and of ``abs_rows`` already formed."""
        if levels == self.levels:
            return self
        out = FactoredRows(self.D, self.R[:levels * len(self.R) // self.levels],
                           levels)
        if self._rows is not None:
            out._rows = self._rows[:levels * len(self._rows) // self.levels]
        if self._abs is not None:
            out._abs = self._abs[:levels * len(self._abs) // self.levels]
        return out


# ----------------------------------------------------------------------
# transforms of the axis-support walk (`LazySet._axis_supports`)
# ----------------------------------------------------------------------

#: entries of a chunk of rows of a transform (`_transform_row_chunks`)
_AXIS_CHUNK_ENTRIES = 1 << 16


class _Matrix:
    """A dense or canonical sparse matrix (``linalg._canonical``) with its
    entrywise absolute value and its transpose (CSR for a sparse matrix),
    each formed once, on first use."""

    __slots__ = ("M", "_abs", "_t")

    def __init__(self, M):
        self.M = _canonical(M) if issparse(M) else M
        self._abs = self._t = None

    @classmethod
    def checked(cls, M):
        """M checked and converted once (as `LinearMap` checks a matrix),
        for the maps that are to share it: a `LinearMap` built over the
        result holds its matrix object, transpose and |M|, formed once for
        all of them."""
        return cls(_wrap_matrix(M))

    @property
    def abs(self):
        if self._abs is None:
            self._abs = abs(self.M)
        return self._abs

    @property
    def T(self):
        if self._t is None:
            self._t = self.M.T.tocsr() if issparse(self.M) else self.M.T
        return self._t

    def map_rows(self, L):
        """The rows of L times M, formed as (M^T L^T)^T for a CSR M."""
        LM = (self.T @ L.T).T if issparse(self.M) else L @ self.M
        return np.asarray(LM, dtype=float)


def _transform_row_chunks(T, n):
    """The rows of T (of n columns) as dense arrays of at most about
    `_AXIS_CHUNK_ENTRIES` entries each."""
    m = T.M.shape[0] if isinstance(T, _Matrix) else n
    step = max(1, _AXIS_CHUNK_ENTRIES // n)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        if isinstance(T, _Matrix):
            R = T.M[lo:hi]
            yield R.toarray() if issparse(R) else R
        else:
            R = np.zeros((hi - lo, n))
            R[np.arange(hi - lo), np.arange(lo, hi)] = 1.0 if T is None else T
            yield R


def _transform_apply(T, x, absolute=False):
    """T x, or |T| x with ``absolute``; a dense T by ``row_products``, so
    each row's value is the same whatever rows T holds besides."""
    if T is None:
        return x
    if isinstance(T, float):
        return (abs(T) if absolute else T) * x
    M = T.abs if absolute else T.M
    return np.asarray(M @ x, dtype=float) if issparse(M) else row_products(M, x)


def _transform_compose(T, m):
    """T M for a `_Matrix` m; m itself is kept when T is None.  Dense
    factors are multiplied by ``row_products``, as ``_transform_apply``
    does."""
    if T is None:
        return m
    if isinstance(T, float):
        return _Matrix(T * m.M)
    if issparse(T.M) or issparse(m.M):
        return _Matrix(T.M @ m.M)
    return _Matrix(row_products(T.M, m.M))


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
    def _from_checked(cls, center, radius):
        """The box of a center and a radius that pass the checks of
        ``__init__``, such as rows of two frozen arrays checked at once,
        held as they are: read-only float vectors, not copied."""
        box = cls.__new__(cls)
        box.center, box.radius = center, radius
        return box

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

    def _rho_sigma(self, l):
        return (l @ self.center + np.abs(l) @ self.radius,
                self.center + np.where(l >= 0.0, self.radius, -self.radius))

    def _rho_batch(self, F):
        return F.rows @ self.center + F.abs_rows @ self.radius

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

    def _rho_sigma(self, l):
        rho = l @ self.center + self.radius * np.linalg.norm(l, ord=self._dual_ord)
        nrm = np.linalg.norm(l)
        if nrm == 0.0:
            return rho, self.center.copy()
        if self.p == 2:
            return rho, self.center + self.radius * l / nrm
        if np.isinf(self.p):
            return rho, self.center + self.radius * np.where(l >= 0.0, 1.0, -1.0)
        # p = 1: a signed coordinate vertex with the largest |l_i|
        i = int(np.argmax(np.abs(l)))
        x = self.center.copy()
        x[i] += self.radius * (1.0 if l[i] >= 0 else -1.0)
        return rho, x

    def _rho_batch(self, F):
        L = F.rows
        return L @ self.center + self.radius * _row_norms(L, self._dual_ord)

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

    def _rho_sigma(self, l):
        return l @ self.point, self.point

    def _rho_batch(self, F):
        return F.rows @ self.point

    def _axis_supports(self, T):
        Tp = _transform_apply(T, self.point)
        return Tp, -Tp


def zero_set(dim):
    """The origin of R^dim as a Singleton."""
    return Singleton(np.zeros(dim))


def _cut(X, index, module):
    """The projection of a box or a point X on the coordinates ``index``,
    a slice or an index array, sliced from it.  Other sets are not cut:
    they raise an ``error:<module>:schema``."""
    if isinstance(X, Hyperrectangle):
        return Hyperrectangle(X.center[index], X.radius[index])
    if isinstance(X, Singleton):
        return Singleton(X.point[index])
    raise InputError(f"cannot cut a {type(X).__name__} to some blocks",
                     module=module)


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


def _polygon_tables(A, b):
    """(ax, ay, V, sec, near) of unit normals A in angular order and
    offsets b: the normals as Python floats and their sectors, the
    read-only (m, 2) array V of the vertex of every constraint pair
    (i, i + 1) as `_intersect_rows` computes it but without its parallel
    test, and the pairs that test may reject (the normals have unit
    length, so its scale is about 1).  Raises unless every pair turns
    counter-clockwise by less than pi.

    One loop on Python floats: each value is one IEEE operation on two
    floats, as numpy's elementwise ufuncs make it, so V is bitwise the
    same formulas on arrays."""
    (ax, ay), bb = A.T.tolist(), b.tolist()
    if len(bb) < 3:
        raise InvalidSetError("HPolygon: fewer than 3 distinct normal directions")
    V, sec, near = [], [], []
    pairs = zip(ax, ay, bb, ax[1:] + ax[:1], ay[1:] + ay[:1], bb[1:] + bb[:1])
    for i, (x1, y1, b1, x2, y2, b2) in enumerate(pairs):
        det = x1 * y2 - y1 * x2
        if det <= 0.0:
            raise InvalidSetError(
                "HPolygon: normals do not positively span the plane "
                "(the feasible set is unbounded)")
        if det < 2.0 * PARALLEL_TOL:
            near.append(i)
        V += ((y2 * b1 - y1 * b2) / det, (x1 * b2 - x2 * b1) / det)
        sec.append(_sector(x1, y1))
    return ax, ay, _frozen(V).reshape(-1, 2), sec, near


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
    angular order of their normals.  The constructor verifies that the
    constraints describe a nonempty bounded region and removes redundant
    halfplanes; polygons whose constraints are support evaluations of an
    existing set skip that (``_from_sorted``).

    The vertex of each adjacent constraint pair is computed once, here, and
    every support query is one binary search over the angular order of
    the normals: the support vector in direction l is the vertex where the
    last normal at or before l meets the next one.  So the polygon gives
    `_rho_sigma` from one search, and a batch searches each row.
    """

    dim = 2

    def __init__(self, normals, offsets):
        A, b = self._sort_and_dedup(*self._normalised(normals, offsets))
        self._build(*self._canonicalize(A, b, _polygon_tables(A, b)))

    @classmethod
    def _from_sorted(cls, normals, offsets):
        """The polygon of constraints whose normals, m float pairs or an
        (m, 2) array, are distinct and already in the angular order, such
        as support evaluations of a set in increasing direction angle,
        with their m offsets: scaled to unit normals as `_normalised`
        scales them, without its checks, without sorting and without the
        feasibility check."""
        A, b = np.array(normals), np.array(offsets)
        norms = np.hypot(A[:, 0], A[:, 1])
        A /= norms[:, None]
        b /= norms
        P = cls.__new__(cls)
        P._build(A, b, _polygon_tables(A, b))
        return P

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _normalised(normals, offsets):
        """The checked constraints, scaled to unit normals."""
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
        return A / norms[:, None], b / norms

    def _build(self, A, b, tables):
        """Set the polygon up from unit normals in angular order, their
        offsets and their `_polygon_tables`."""
        # the search reads the normals as Python floats, and their sectors
        self._ax, self._ay, V, self._sec_list, near = tables
        self.normals = _frozen(A)
        self.offsets = _frozen(b)
        self._vertices = V
        # pairs that `_intersect_rows` may reject: it decides them at query time
        self._near_parallel = frozenset(near)

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
    def _canonicalize(A, b, tables):
        """Ensure every successive constraint pair meets at a feasible vertex.

        When that already holds for the vertices of the `_polygon_tables`
        the support search is exact.
        Otherwise the redundant halfplanes are stripped by one pass over
        the angular order (`_bounding_rows`).  A region that does not
        contain a disc of radius 1e-10 * scale, which that pass detects
        on the offsets moved inwards by this radius, is rejected.
        Returns the constraints kept, with their `_polygon_tables`.
        """
        scale = 1.0 + np.max(np.abs(b))

        def feasible(V):
            return np.all(np.isfinite(V)) and np.all(A @ V.T <= b[:, None] + 1e-9 * scale)

        if feasible(tables[2]):
            return A, b, tables
        inset = 1e-10 * scale
        if _bounding_rows(A, b - inset) is None:
            if _bounding_rows(A, b + inset) is None:
                raise InvalidSetError("HPolygon: constraints are infeasible")
            raise DegeneratePolygonError(
                "HPolygon: feasible region has empty interior")
        rows = _bounding_rows(A, b)
        if rows is not None:
            tables = _polygon_tables(A[rows], b[rows])
            if feasible(tables[2]):
                return A[rows], b[rows], tables
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

    def _rho_sigma(self, l):
        i = self._search(*l.tolist())
        v = self._exact_vertex(i) if i in self._near_parallel else self._vertices[i]
        return l @ v, v

    def _axis_supports(self, T):
        # the identity: one batch over the rows that the generic walk builds
        if T is not None:
            return super()._axis_supports(T)
        vals = self._rho_batch(FactoredRows(None, _AXES, 1))
        return vals[:2], vals[2:]

    def _rho_batch(self, F):
        L = F.rows
        idx = [self._search(x, y) for x, y in L.tolist()]
        for i in self._near_parallel.intersection(idx):
            self._exact_vertex(i)  # raises on a degenerate pair
        return _row_dots(L, self._vertices[idx])


def _row_dots(L, V):
    """The dot of each row of L with the same row of V: a stack of 1x2 by
    2x1 products rounds each row as `l @ v` does."""
    return (L[:, None, :] @ V[:, :, None]).ravel()


class _Polygons:
    """A list of polygons with their tables concatenated, to answer
    (polygon, direction) pairs of any of them in a few array operations,
    each pair bitwise as its polygon's own query answers it."""

    def __init__(self, polygons):
        m = np.array([len(P._sec_list) for P in polygons])
        self.start, self.last = np.cumsum(m) - m, m - 1
        A = np.concatenate([P.normals for P in polygons])
        self.ax, self.ay = A[:, 0], A[:, 1]
        self.sec = _sectors(self.ax, self.ay)
        self.vertices = np.concatenate([P._vertices for P in polygons])
        self.near = np.zeros(len(A), dtype=bool)
        for start, P in zip(self.start, polygons):
            self.near[[start + i for i in P._near_parallel]] = True

    def search(self, which, x, y):
        """`HPolygon._search` of the direction (x[j], y[j]) in polygon
        which[j], for every j: its binary search run on all the pairs at
        once, with the same sector and cross-product comparisons,
        elementwise, so each index is the one `_search` finds."""
        start, last = self.start[which], self.last[which]
        s = _sectors(x, y)

        def leq(i):   # `_angle_leq` of normal i of each pair's polygon
            j = start + i
            return ((self.sec[j] < s)
                    | ((self.sec[j] == s) & (self.ax[j] * y - self.ay[j] * x >= 0.0)))

        lo, hi = np.zeros_like(last), last
        while (active := lo < hi).any():
            mid = (lo + hi + 1) // 2
            below = leq(mid)
            lo, hi = np.where(active & below, mid, lo), np.where(active & ~below, mid - 1, hi)
        idx = np.where(leq(0), lo, last)
        return np.where((x == 0.0) & (y == 0.0), 0, idx)

    def supports(self, which, L):
        """(rho, v, plain) of the pairs (polygon which[j], row L[j]): the
        support values and the vertices that `HPolygon._rho_sigma` takes,
        and plain[j] False where that vertex is a near-parallel pair's,
        which a query solves again (`HPolygon._exact_vertex`) and may
        reject."""
        rows = self.start[which] + self.search(which, L[:, 0], L[:, 1])
        v = self.vertices[rows]
        return _row_dots(L, v), v, ~self.near[rows]


#: the rows of I and of -I that `LazySet._axis_supports` asks for the
#: identity of the plane, the signed zeros of -I included
_AXES = _frozen([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0]])


def polygon_support_vector(P, direction):
    """Support vertex of an HPolygon via binary search over the sorted normals."""
    if not isinstance(P, HPolygon):
        raise DimensionError("polygon_support_vector expects an HPolygon")
    return P.support_vector(direction)


# ----------------------------------------------------------------------
# lazy combinators
# ----------------------------------------------------------------------

def _wrap_matrix(M):
    if issparse(M):
        from scipy import sparse as sp
        return M if isinstance(M, sp.csr_array) else sp.csr_array(M)
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise DimensionError(f"LinearMap: matrix must be two-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise InvalidSetError("LinearMap: matrix entries must be finite")
    return out


class LinearMap(LazySet):
    """Image M X of a set under a (possibly sparse) matrix.

    M^T, as CSR for a sparse M, and |M| are formed on first use and kept
    (`_Matrix`).  A batch of directions L is mapped as L M = (M^T L^T)^T:
    for a CSR matrix this is how scipy computes L M, but with the
    transpose built anew on every call and in CSC storage, whose product
    is several times slower.  A dense float array or a canonical CSR
    array is held as passed, not copied, so maps built over one matrix
    hold the same object.  Maps built over one `_Matrix`
    (``_Matrix.checked``) also share its check, its transpose and |M|.
    """

    def __init__(self, matrix, operand):
        m = matrix if isinstance(matrix, _Matrix) else _Matrix.checked(matrix)
        if m.M.shape[1] != operand.dim:
            raise DimensionError(
                f"LinearMap: matrix has {m.M.shape[1]} columns, "
                f"operand has dimension {operand.dim}")
        self.matrix = m.M
        self.operand = operand
        self._m = m

    @property
    def dim(self):
        return self.matrix.shape[0]

    def _rho_sigma(self, l):
        rho, inner = self.operand._rho_sigma(self._m.T @ l)
        return rho, self.matrix @ inner

    def map_rows(self, L):
        """The directions L (one per row) mapped into the operand's
        space: L M (`_Matrix.map_rows`)."""
        return self._m.map_rows(L)

    def _rho_batch(self, F):
        return self.operand._rho_batch(F.mapped(self))

    def _axis_supports(self, T):
        # nested maps compose first: T (M Y) = (T M) Y
        return self.operand._axis_supports(_transform_compose(T, self._m))


def _common_matrix(sets):
    """The `_Matrix` of the first of ``sets`` when every one of them is a
    `LinearMap` over one matrix object (as ``discretize_discrete`` builds
    an input sequence), else None."""
    first = sets[0] if sets else None
    if isinstance(first, LinearMap) and all(
            isinstance(V, LinearMap) and V.matrix is first.matrix for V in sets):
        return first._m
    return None


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

    def _rho_sigma(self, l):
        rho, sigma = self.operand._rho_sigma(self.factor * l)
        return rho, self.factor * sigma

    def _rho_batch(self, F):
        return self.operand._rho_batch(FactoredRows(None, self.factor * F.rows, 1))

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

    def _rho_sigma(self, l):
        (a, sa), (b, sb) = self.left._rho_sigma(l), self.right._rho_sigma(l)
        return a + b, sa + sb

    def _rho_batch(self, F):
        return self.left._rho_batch(F) + self.right._rho_batch(F)

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

    def _rho_sigma(self, l):
        pairs = [p._rho_sigma(l[s]) for p, s in zip(self.parts, self._slices)]
        return sum(rho for rho, _ in pairs), np.concatenate([s for _, s in pairs])

    def _rho_batch(self, F):
        # the parts read column slices of the expanded rows: a product over
        # a slice of R is not promised to round as the slice of D R does
        L = F.rows
        total = np.zeros(L.shape[0])
        for p, s in zip(self.parts, self._slices):
            total += p._rho_batch(FactoredRows(None, L[:, s], 1))
        return total

    def _axis_supports(self, T):
        # the identity (or a multiple) keeps the parts apart; a matrix
        # T = [T_1 ... T_p] maps the product to the sum of the T_j X_j
        if not isinstance(T, _Matrix):
            pairs = [p._axis_supports(T) for p in self.parts]
            return (np.concatenate([h for h, _ in pairs]),
                    np.concatenate([nl for _, nl in pairs]))
        M = T.M.tocsc() if issparse(T.M) else T.M   # cheap column slices
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

    def _rho_sigma(self, l):
        (a, sa), (b, sb) = self.left._rho_sigma(l), self.right._rho_sigma(l)
        return max(a, b), (sa if a >= b else sb)

    def _rho_batch(self, F):
        return np.maximum(self.left._rho_batch(F), self.right._rho_batch(F))

    def _axis_supports(self, T):
        ha, na = self.left._axis_supports(T)
        hb, nb = self.right._axis_supports(T)
        return np.maximum(ha, hb), np.maximum(na, nb)


# ----------------------------------------------------------------------
# sums of the images of low-dimensional vertex tables
# ----------------------------------------------------------------------

def _set_vertices(X):
    """The vertices of a point, a box of dimension at most 2 or an
    `HPolygon`, as a (K, X.dim) array whose convex hull is X.  A polygon's
    near-parallel pairs are solved as a query solves them, so a degenerate
    one raises `DegeneratePolygonError`."""
    if isinstance(X, Singleton):
        return X.point[None]
    if isinstance(X, Hyperrectangle) and X.dim <= 2:
        signs = (np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
                 if X.dim == 2 else np.array([[-1.0], [1.0]]))
        return X.center + signs * X.radius
    if isinstance(X, HPolygon):
        V = X._vertices
        if X._near_parallel:
            V = V.copy()
            for i in sorted(X._near_parallel):
                V[i] = X._exact_vertex(i)
        return V
    raise InvalidSetError(f"no vertex table for {X!r}: expected a point, "
                          "a box of dimension at most 2 or an HPolygon")


def vertex_table(sets):
    """The vertices (`_set_vertices`) of each of ``sets`` as one (P, K, 2)
    array: a set of dimension 1 has 0 as second coordinate, and a set of
    fewer than K vertices repeats its last one."""
    tables = [_set_vertices(X) for X in sets]
    out = np.zeros((len(tables), max(len(V) for V in tables), 2))
    for p, V in enumerate(tables):
        out[p, :len(V), :V.shape[1]] = V
        out[p, len(V):, :V.shape[1]] = V[-1]
    return out


class VertexImageSum(LazySet):
    """Minkowski sum sum_p M_p conv(V_p) of the images of vertex tables
    V_p of dimension at most 2, held as the (P K, d) array of the image
    points, K per part (those of a `vertex_table`, whose padding repeats
    a point).

    A support is a sum of per-part maxima (Le Guernic & Girard 2010):
    rho(l) = sum_p max_k <l, M_p v_pk>, attained at the sum of the argmax
    points, so a query is one product with the image points and no
    search.  numpy's sums start from +0.0, so a zero map reads +0.0,
    never -0.0.
    """

    def __init__(self, table, maps):
        """The images of the parts of a (P, K, 2) ``table`` under the
        (P, 2, d) ``maps``, M_p^T in slice p (zero in the second row of a
        part of dimension 1)."""
        G = table @ maps
        self.dim = G.shape[2]
        self._parts, self._count = G.shape[:2]
        self._points = G.reshape(-1, self.dim)
        self._points.setflags(write=False)
        self._first = np.arange(self._parts) * self._count

    @classmethod
    def of_columns(cls, table, R):
        """R X for the product X of the parts of ``table``, R holding two
        columns per part (one for a last part of dimension 1)."""
        d, n = R.shape
        maps = np.zeros((2 * table.shape[0], d))
        maps[:n] = R.T
        return cls(table, maps.reshape(-1, 2, d))

    @classmethod
    def of_maps(cls, pairs):
        """sum_p M_p X_p for pairs (M_p, X_p) of a matrix of d rows and a
        set of `_set_vertices`."""
        pairs = list(pairs)
        maps = np.zeros((len(pairs), 2, np.shape(pairs[0][0])[0]))
        for p, (M, X) in enumerate(pairs):
            maps[p, :X.dim] = np.asarray(M, dtype=float).T
        return cls(vertex_table([X for _, X in pairs]), maps)

    def _rho_sigma(self, l):
        vals = self._points @ l
        best = vals.reshape(self._parts, self._count).argmax(axis=1)
        rows = self._first + best
        return (np.add.reduce(vals.take(rows)),
                np.add.reduce(self._points.take(rows, axis=0)))

    def _rho_batch(self, F):
        vals = (self._points @ F.rows.T).reshape(self._parts, self._count, -1)
        return np.add.reduce(np.maximum.reduce(vals, axis=1))

    def _axis_supports(self, T):
        pts = _transform_apply(T, self._points.T).reshape(-1, self._parts,
                                                          self._count)
        return (np.add.reduce(pts.max(axis=2), axis=1),
                np.add.reduce(-pts.min(axis=2), axis=1))


class _Images:
    """A list of `VertexImageSum` sets of one shape (dimension, parts and
    points per part), their image points stacked: the supports of (set,
    direction) pairs from one stacked product, each pair bitwise
    `VertexImageSum._rho_sigma`."""

    def __init__(self, images):
        self.points = np.stack([X._points for X in images])
        self.parts, self.count = images[0]._parts, images[0]._count

    def supports(self, which, L):
        """(rho, sigma) of the pairs (set which[j], row L[j])."""
        G = self.points[which]
        # a stack of (P K, d) by (d, 1) products rounds each as the product
        # of one direction does; one (P K, d) by (d, m) product does not
        vals = (G @ L[:, :, None])[..., 0]
        rows = (np.arange(self.parts) * self.count
                + vals.reshape(len(L), self.parts, self.count).argmax(axis=2))
        return (np.add.reduce(np.take_along_axis(vals, rows, axis=1), axis=1),
                np.add.reduce(np.take_along_axis(G, rows[:, :, None], axis=1), axis=1))


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
    return norms.toarray() if issparse(norms) else np.asarray(norms)


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
