"""Compact convex sets represented through their support functions.

Concrete types (boxes, norm balls, constraint polygons, points) answer
support queries in closed form; lazy combinators (linear map, Minkowski
sum, Cartesian product, convex hull of a pair) answer them by recursion
over the operand tree without ever materialising the combined set.

All set objects are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

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
    """Base class: a nonempty compact convex set queried via support functions."""

    dim = 0

    def support_function(self, direction):
        """Return max of <direction, x> over the set."""
        l = self._direction(direction)
        return float(self._rho(l))

    def support_vector(self, direction):
        """Return a maximizer of <direction, x> over the set."""
        l = self._direction(direction)
        return self._sigma(l)

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

    def _rho_batch(self, L):
        return np.array([self._rho(row) for row in L])

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


def zero_set(dim):
    """The origin of R^dim as a Singleton."""
    return Singleton(np.zeros(dim))


# ----------------------------------------------------------------------
# planar constraint polygons with logarithmic support queries
# ----------------------------------------------------------------------

def _sectors(x, y):
    """Index of the angular sector, monotone in the angle over (-pi, pi]."""
    s = np.empty(np.shape(x), dtype=np.int8)
    neg_y = y < 0
    s[neg_y & (x < 0)] = 0        # (-pi, -pi/2)
    s[neg_y & (x >= 0)] = 1       # [-pi/2, 0)
    pos_y = ~neg_y
    s[pos_y & (x > 0)] = 2        # [0, pi/2)
    s[pos_y & (x <= 0)] = 3       # [pi/2, pi]
    return s


def direction_leq(a, b):
    """Angular order on nonzero plane vectors: angle(a) <= angle(b) in (-pi, pi].

    Decided by sector membership and a single cross product, so the
    comparison is exact for rational inputs (no trigonometric calls).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa = int(_sectors(a[0], a[1]))
    sb = int(_sectors(b[0], b[1]))
    if sa != sb:
        return sa < sb
    return a[0] * b[1] - a[1] * b[0] >= 0.0


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


class HPolygon(LazySet):
    """Bounded planar polygon as an intersection of halfplanes a.x <= b.

    Constraints are normalised to unit normals and stored sorted by the
    angular order of their normals, which is what the logarithmic support
    search requires.  With ``check_feasible`` the constructor verifies that
    the constraints describe a nonempty bounded region and removes
    redundant halfplanes; internally constructed polygons (whose
    constraints are support evaluations of an existing set) may skip that.
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
        self._check_spanning(A)
        if check_feasible:
            A, b = self._canonicalize(A, b)
        self.normals = _frozen(A)
        self.offsets = _frozen(b)

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _sort_and_dedup(A, b):
        x, y = A[:, 0], A[:, 1]
        sec = _sectors(x, y)
        with np.errstate(divide="ignore"):
            ratio = np.where(x != 0.0, y / np.where(x != 0.0, x, 1.0), -np.inf)
        order = np.lexsort((ratio, sec))
        A, b = A[order], b[order]
        # merge constraints with (numerically) identical normals, keep the tighter
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
        # the first and last entry may be duplicates across the wrap
        if len(keep) > 1:
            i, j = keep[0], keep[-1]
            cross = A[j, 0] * A[i, 1] - A[j, 1] * A[i, 0]
            if abs(cross) < 1e-14 and A[j] @ A[i] > 0.0:
                if b[j] < b[i]:
                    keep[0] = j
                keep.pop()
        return A[keep], b[keep]

    @staticmethod
    def _check_spanning(A):
        if A.shape[0] < 3:
            raise InvalidSetError("HPolygon: fewer than 3 distinct normal directions")
        nxt = np.roll(np.arange(A.shape[0]), -1)
        cross = A[:, 0] * A[nxt, 1] - A[:, 1] * A[nxt, 0]
        if np.any(cross <= 0.0):
            raise InvalidSetError(
                "HPolygon: normals do not positively span the plane "
                "(the feasible set is unbounded)")

    @staticmethod
    def _successive_vertices(A, b):
        nxt = np.roll(np.arange(A.shape[0]), -1)
        det = A[:, 0] * A[nxt, 1] - A[:, 1] * A[nxt, 0]
        vx = (A[nxt, 1] * b - A[:, 1] * b[nxt]) / det
        vy = (A[:, 0] * b[nxt] - A[nxt, 0] * b) / det
        return np.column_stack([vx, vy])

    @classmethod
    def _canonicalize(cls, A, b):
        """Ensure every successive constraint pair meets at a feasible vertex.

        When that already holds the representation is minimal and the
        support search is exact.  Otherwise redundant halfplanes are
        stripped with an LP + halfspace intersection.
        """
        scale = 1.0 + np.max(np.abs(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            V = cls._successive_vertices(A, b)
        if np.all(np.isfinite(V)) and np.all(A @ V.T <= b[:, None] + 1e-9 * scale):
            return A, b

        from scipy.optimize import linprog

        # Chebyshev center: max r subject to  A x + r <= b  (unit normals)
        res = linprog(c=[0.0, 0.0, -1.0],
                      A_ub=np.column_stack([A, np.ones(A.shape[0])]),
                      b_ub=b, bounds=[(None, None), (None, None), (0, None)],
                      method="highs")
        if res.status != 0:
            raise InvalidSetError("HPolygon: constraints are infeasible")
        r = res.x[2]
        if r < 1e-10 * scale:
            raise DegeneratePolygonError(
                "HPolygon: feasible region has empty interior")
        from scipy.spatial import HalfspaceIntersection

        hs = HalfspaceIntersection(np.column_stack([A, -b]), res.x[:2])
        active = sorted({int(i) for simplex in hs.dual_facets for i in simplex})
        A2, b2 = A[active], b[active]
        V = cls._successive_vertices(A2, b2)
        if not np.all(A2 @ V.T <= b2[:, None] + 1e-9 * scale):
            raise InvalidSetError("HPolygon: could not reduce constraints "
                                  "to a minimal representation")
        return A2, b2

    # -- queries --------------------------------------------------------

    @property
    def constraints(self):
        return list(zip(self.normals, self.offsets))

    def _search(self, l):
        """Index i of the last normal with a_i <= l in the angular order."""
        A = self.normals
        m = A.shape[0]
        if not direction_leq(A[0], l):
            return m - 1
        lo, hi = 0, m - 1          # invariant: a_lo <= l, a_{hi+1} > l (cyclically)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if direction_leq(A[mid], l):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _vertex_for(self, l):
        # every point attains the support 0 of direction 0: take vertex 0
        i = self._search(l) if (l[0] or l[1]) else 0
        j = (i + 1) % self.normals.shape[0]
        return _intersect_rows(self.normals[i], self.offsets[i],
                               self.normals[j], self.offsets[j])

    def _rho(self, l):
        return l @ self._vertex_for(l)

    def _sigma(self, l):
        return self._vertex_for(l)


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
    """Image M X of a set under a (possibly sparse) matrix."""

    def __init__(self, matrix, operand):
        M = _wrap_matrix(matrix)
        if M.shape[1] != operand.dim:
            raise DimensionError(
                f"LinearMap: matrix has {M.shape[1]} columns, "
                f"operand has dimension {operand.dim}")
        self.matrix = M
        self.operand = operand

    @property
    def dim(self):
        return self.matrix.shape[0]

    def _rho(self, l):
        return self.operand._rho(np.asarray(self.matrix.T @ l, dtype=float))

    def _sigma(self, l):
        inner = self.operand._sigma(np.asarray(self.matrix.T @ l, dtype=float))
        return np.asarray(self.matrix @ inner, dtype=float)

    def _rho_batch(self, L):
        return self.operand._rho_batch(np.asarray(L @ self.matrix, dtype=float))


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

    def _sigma(self, l):
        return self.factor * self.operand._sigma(self.factor * l)

    def _rho_batch(self, L):
        return self.operand._rho_batch(self.factor * L)


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

    def _sigma(self, l):
        return self.left._sigma(l) + self.right._sigma(l)

    def _rho_batch(self, L):
        return self.left._rho_batch(L) + self.right._rho_batch(L)


class CartesianProduct(LazySet):
    """Cartesian product of factor sets; supports split per factor."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise InvalidSetError("CartesianProduct: at least one factor is required")
        self.parts = tuple(parts)
        dims = np.array([p.dim for p in parts])
        self._offsets = np.concatenate([[0], np.cumsum(dims)])

    @property
    def dim(self):
        return int(self._offsets[-1])

    def _split(self, l):
        return [l[self._offsets[i]:self._offsets[i + 1]]
                for i in range(len(self.parts))]

    def _rho(self, l):
        return sum(p._rho(li) for p, li in zip(self.parts, self._split(l)))

    def _sigma(self, l):
        return np.concatenate([p._sigma(li)
                               for p, li in zip(self.parts, self._split(l))])

    def _rho_batch(self, L):
        total = np.zeros(L.shape[0])
        for i, p in enumerate(self.parts):
            total += p._rho_batch(L[:, self._offsets[i]:self._offsets[i + 1]])
        return total


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

    def _sigma(self, l):
        a = self.left._rho(l)
        b = self.right._rho(l)
        return self.left._sigma(l) if a >= b else self.right._sigma(l)

    def _rho_batch(self, L):
        return np.maximum(self.left._rho_batch(L), self.right._rho_batch(L))


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


def symmetric_interval_hull(X):
    """Smallest origin-symmetric box containing X.

    Coordinate radius i is max(rho(e_i), rho(-e_i)), evaluated through the
    support function of X; boxes, points and their linear images M X have
    it in closed form, |M c| + |M| r for a box with center c and radius r.
    """
    n = X.dim
    if isinstance(X, Hyperrectangle):
        radius = np.abs(X.center) + X.radius
    elif isinstance(X, Singleton):
        radius = np.abs(X.point)
    elif isinstance(X, LinearMap) and isinstance(X.operand, Hyperrectangle):
        M, Y = X.matrix, X.operand
        radius = np.abs(M @ Y.center) + abs(M) @ Y.radius
    elif isinstance(X, LinearMap) and isinstance(X.operand, Singleton):
        radius = np.abs(X.matrix @ X.operand.point)
    else:
        E = np.vstack([np.eye(n), -np.eye(n)])
        vals = X.support_batch(E)
        radius = np.maximum(vals[:n], vals[n:])
    if not np.all(np.isfinite(radius)):
        raise UnboundedSetError("symmetric_interval_hull: support evaluation "
                                "produced a non-finite value")
    return Hyperrectangle(np.zeros(n), radius)
