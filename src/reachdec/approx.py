"""Low-dimensional overapproximation schemes and block-wise decomposition.

A state space of dimension n is split into ceil(n/2) consecutive blocks of
size two (the final block has size one when n is odd) by the block rule of
``linalg.BlockStructure``, which is re-exported here.  Sets are decomposed
into a Cartesian product of per-block overapproximations, computed either
from the four axis-aligned support directions (box scheme) or by sandwich
refinement of support directions until a requested Hausdorff accuracy is
met (epsilon-close scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ApproximationError,
    DimensionError,
    EngineError,
    InvalidSetError,
    UnboundedSetError,
)
from .linalg import BlockStructure, issparse
from .sets import (
    HPolygon,
    Hyperrectangle,
    LazySet,
    LinearMap,
    Singleton,
    _common_matrix,
    _cut,
    _frozen,
    _transform_compose,
)

__all__ = [
    "BlockStructure",
    "BoxDirections",
    "EpsilonClose",
    "overapproximate_box",
    "overapproximate_eps",
    "approximate",
    "decompose",
]


@dataclass(frozen=True)
class BoxDirections:
    """Overapproximate each block by its axis-aligned bounding box."""


@dataclass(frozen=True)
class EpsilonClose:
    """Overapproximate each 2D block by a polygon within eps Hausdorff distance."""

    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise InvalidSetError("EpsilonClose: eps must be positive", module="approx")


def overapproximate_box(X):
    """Tightest axis-aligned box around a set.

    Its bounds are the support values of X in the directions +-e_i, from
    the axis supports of X (`LazySet._axis_supports`).  They have a
    closed form for boxes, points and balls, scalings (lambda c, |lambda| r),
    sums (centers and radii add), products (the parts are concatenated)
    and hulls (the lows' minimum, the highs' maximum), and for a linear
    map of these: nested maps are composed and the map is carried inside,
    down to (M c, |M| r) for a box or a point and to M c with r times the
    dual row norms of M for a ball.  Only what is left, such as a map of
    a polygon, is asked through support queries on the rows of +-M.  A
    sparse M acts by sparse products.
    """
    if isinstance(X, Hyperrectangle):
        return X
    return Hyperrectangle(*_box_bounds(X))


def _box_bounds(X):
    """(center, radius) of ``overapproximate_box(X)``, without building it."""
    if isinstance(X, Hyperrectangle):
        return X.center, X.radius
    return _box_from_supports(*X._axis_supports(None))


def _box_from_supports(hi, nlo):
    """(center, radius) of the box whose support values in +e_i and in
    -e_i are hi and nlo (``LazySet._axis_supports``), under the checks of
    ``overapproximate_box`` and of ``Hyperrectangle``."""
    lo = -nlo
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise UnboundedSetError("overapproximate_box: non-finite support value",
                                module="approx")
    c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
    if not (np.isfinite(c).all() and np.isfinite(r).all() and (r >= 0.0).all()):
        Hyperrectangle(c, r)    # raises the error of the box
    return c, r


def _box_bounds_rows(sets):
    """(C, R, error): rows j of C and of R are ``_box_bounds(sets[j])``,
    bit for bit, for the sets before the first one whose bounds raise, and
    ``error`` is what that set raises, or None.

    When every set maps a box or a point by one matrix M, or by a product
    M = M_1 M_2 ... of matrices each shared by all the sets
    (``_common_matrix``; Phi1 B for inputs through B), M is composed once,
    as each set's axis walk composes it, and the rows come from two
    stacked products, M c_j and |M| r_j, with the arithmetic of
    ``_box_from_supports`` (``_mapped_box_rows``).  Otherwise, or when
    some row fails the checks, each set takes its own ``_box_bounds``, in
    turn, so the error and the numpy warnings are those of that walk."""
    T, operands = None, sets
    while (m := _common_matrix(operands)) is not None:
        T, operands = _transform_compose(T, m), [V.operand for V in operands]
    if T is not None:
        rows = _mapped_box_rows(T, operands)
        if rows is not None:
            return (*rows, None)
    C, R = [], []
    for V in sets:
        try:
            c, r = _box_bounds(V)
        except EngineError as exc:
            return C, R, exc
        C.append(c)
        R.append(r)
    return C, R, None


def _stacked_products(M, X):
    """Row j is M x_j for the rows x_j of X, bitwise what ``LazySet``'s
    axis walk forms for one vector: for a dense M, the 1 x p by p x 1
    products of ``row_products`` in one stack; for a CSR M, one sparse
    product, which sums each entry's terms in the order of one vector's."""
    if issparse(M):
        return np.asarray(M @ X.T, dtype=float).T
    return (M[None, :, None, :] @ X[:, None, :, None])[..., 0, 0]


def _mapped_box_rows(m, operands):
    """(C, R): the box hulls of the maps by the `_Matrix` m of ``operands``,
    boxes or points, one per row, as ``_box_bounds`` of each map forms
    them: hi = M c + |M| r and nlo = -M c + |M| r for a box, M p and -M p
    for a point.  None when some operand is another set or some row fails
    the checks of ``_box_from_supports``: computed with numpy's overflow
    warnings off, the rows then leave the error to each set's own walk.
    None also for a CSR M that is not in canonical form (sorted indices,
    no duplicates): scipy puts M in that form in place when it forms |M|,
    and that moves the order of the sums of M's later products, so each
    set's own walk keeps the order it has met M in."""
    if issparse(m.M) and not m.M.has_canonical_format:
        return None
    box = np.array([isinstance(U, Hyperrectangle) for U in operands])
    if not all(b or isinstance(U, Singleton) for b, U in zip(box, operands)):
        return None
    zeros = np.zeros(m.M.shape[1])
    X = np.array([U.center if b else U.point for b, U in zip(box, operands)])
    W = np.array([U.radius if b else zeros for b, U in zip(box, operands)])
    with np.errstate(over="ignore", invalid="ignore"):
        Tc = _stacked_products(m.M, X)
        Tr = _stacked_products(m.abs, W)
        hi = np.where(box[:, None], Tc + Tr, Tc)
        lo = -np.where(box[:, None], -Tc + Tr, -Tc)
        c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        ok = (np.isfinite(hi).all() and np.isfinite(lo).all()
              and np.isfinite(c).all() and np.isfinite(r).all() and (r >= 0.0).all())
    return (c, r) if ok else None


def _local_gap(d1, r1, s1, d2, r2, s2):
    """Distance from the corner of two support constraints to the chord of
    their support vectors; bounds the overapproximation error in the wedge.

    Directions d and support vectors s are (x, y) float pairs and the
    arithmetic is scalar, so no array is made per wedge."""
    (ax, ay), (bx, by) = d1, d2
    det = ax * by - ay * bx
    if abs(det) < 1e-12:
        return 0.0
    px = (by * r1 - ay * r2) / det
    py = (ax * r2 - bx * r1) / det
    (x1, y1), (x2, y2) = s1, s2
    cx, cy = x2 - x1, y2 - y1
    cc = cx * cx + cy * cy
    ux, uy = px - x1, py - y1
    if cc == 0.0:
        return math.sqrt(ux * ux + uy * uy)
    t = min(max((ux * cx + uy * cy) / cc, 0.0), 1.0)
    ex, ey = px - (x1 + t * cx), py - (y1 + t * cy)
    return math.sqrt(ex * ex + ey * ey)


#: the first directions of the refinement, in angular order from (0, -1)
_START = [_frozen(d) for d in [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]]


def overapproximate_eps(X, eps, max_constraints=10_000):
    """Sandwich refinement of a 2D set down to Hausdorff distance eps.

    Starts from the four axis directions and bisects every angular wedge
    whose local gap exceeds eps.  The result is an HPolygon whose
    constraints are support evaluations of X, so it contains X and is
    within eps of it.

    The refinement runs on Python floats.  An entry is (l, d, rho, s): the
    unit direction as an array l and as a float pair d, its support value
    and its support vector as a float pair.  Only the bisection takes
    numpy dot products, to normalise l as ``np.linalg.norm`` does and to
    test splittability: numpy's dot of 2-vectors can round otherwise than
    x * x + y * y, and the normals must stay those of the refinement
    written on arrays.
    """
    if X.dim != 2:
        raise DimensionError(f"overapproximate_eps: set has dimension {X.dim}, "
                             "expected 2", module="approx")
    if not (eps > 0):
        raise InvalidSetError("overapproximate_eps: eps must be positive",
                              module="approx")

    def entry(l):
        rho, s = X._rho_sigma(l)   # l is a unit 2-vector built here: no check
        rho, s = float(rho), s.tolist()
        # a non-finite value would make every local gap NaN, never <= eps
        if not (math.isfinite(rho) and math.isfinite(s[0]) and math.isfinite(s[1])):
            raise UnboundedSetError("overapproximate_eps: non-finite support value",
                                    module="approx")
        return l, l.tolist(), rho, s

    budget = max_constraints - 4
    entries = []

    def refine(e1, e2):
        # appends the entries strictly between e1 and e2 in angular order
        nonlocal budget
        gap = _local_gap(*e1[1:], *e2[1:])
        if gap <= eps:
            return
        if budget <= 0:
            raise ApproximationError(
                f"overapproximate_eps: constraint budget {max_constraints} "
                f"exhausted, local gap still {gap:.3e} > {eps:.3e}",
                module="approx")
        l1, l2 = e1[0], e2[0]
        l = l1 + l2
        nrm = math.sqrt(l.dot(l))
        if nrm == 0.0:
            return
        l = l / nrm
        if l.dot(l1) >= 1.0 - 1e-15 or l.dot(l2) >= 1.0 - 1e-15:
            return  # wedge no longer numerically splittable
        budget -= 1
        em = entry(l)
        refine(e1, em)
        entries.append(em)
        refine(em, e2)

    start = [entry(l) for l in _START]
    for i in range(4):
        entries.append(start[i])
        head = len(entries)
        refine(start[i], start[(i + 1) % 4])
    # the normals are distinct and in angular order from (0, -1) on; the
    # order of HPolygon starts at -pi, so the last wedge comes first
    entries = entries[head:] + entries[:head]
    return HPolygon._from_sorted([e[1] for e in entries], [e[2] for e in entries])


def approximate(X, scheme):
    """Collapse a lazy set to a concrete one according to the scheme."""
    if isinstance(scheme, BoxDirections):
        return overapproximate_box(X)
    if isinstance(scheme, EpsilonClose):
        if X.dim == 2:
            return overapproximate_eps(X, scheme.eps)
        return overapproximate_box(X)  # 1D blocks: the interval hull is exact
    raise InvalidSetError(f"unknown approximation scheme {scheme!r}", module="approx")


def decompose(X, bs, scheme=BoxDirections()):
    """Per-block overapproximations of the projections of X.

    Returns a list of b low-dimensional sets whose Cartesian product
    contains X.  Boxes and points decompose exactly by slicing.  Under
    ``BoxDirections`` every block is a box or a point: the box of a
    projection is the projection of the box, so one box of X is sliced.
    """
    if X.dim != bs.n:
        raise DimensionError(f"decompose: set has dimension {X.dim}, "
                             f"block structure expects {bs.n}", module="approx")
    if isinstance(X, (Singleton, Hyperrectangle)) or isinstance(scheme, BoxDirections):
        if not isinstance(X, Singleton):
            X = overapproximate_box(X)
        return [_cut(X, bs.slice(i), "approx") for i in range(bs.b)]
    out = []
    for i in range(bs.b):
        proj = LinearMap(bs.projection_matrix(i), X)
        out.append(approximate(proj, scheme))
    return out
