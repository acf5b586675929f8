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
    _AXES,
    HPolygon,
    Hyperrectangle,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Singleton,
    VertexImageSum,
    _common_matrix,
    _cut,
    _frozen,
    _Images,
    _Polygons,
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
    """(center, radius) of ``overapproximate_box(X)``, without building it;
    a support, center or radius beyond the float range is refused, with
    numpy's overflow warnings off."""
    if isinstance(X, Hyperrectangle):
        return X.center, X.radius
    with np.errstate(over="ignore", invalid="ignore"):
        hi, nlo = X._axis_supports(None)
        lo = -nlo
        c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
    for what, values in (("support value", (hi, lo)), ("center or radius", (c, r))):
        if not all(np.isfinite(v).all() for v in values):
            raise UnboundedSetError(f"overapproximate_box: non-finite {what}",
                                    module="approx")
    if not (r >= 0.0).all():
        Hyperrectangle(c, r)    # raises the error of the box
    return c, r


def _box_rows(hi, nlo):
    """(C, R): row j is the (center, radius) that ``_box_bounds`` forms
    from the supports hi[j] and nlo[j], from one array expression, or
    None when some row fails its checks: computed with numpy's overflow
    warnings off, the rows then leave the error to each set's own walk."""
    with np.errstate(over="ignore", invalid="ignore"):
        lo = -nlo
        c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        ok = (np.isfinite(hi).all() and np.isfinite(lo).all()
              and np.isfinite(c).all() and np.isfinite(r).all() and (r >= 0.0).all())
    return (c, r) if ok else None


def _polygon_box_rows(polygons):
    """(C, R): row j is ``_box_bounds(polygons[j])``, bit for bit, from one
    query of all the polygons in the rows of ``_AXES`` (``_Polygons``),
    or None when that query meets a near-parallel vertex, which a
    polygon's own query solves again, or some row fails the checks of a
    box (``_box_rows``)."""
    S = len(polygons)
    vals, _, plain = _Polygons(polygons).supports(np.repeat(np.arange(S), 4),
                                                  np.tile(_AXES, (S, 1)))
    if not plain.all():
        return None
    vals = vals.reshape(S, 4)
    return _box_rows(vals[:, :2], vals[:, 2:])


def _box_bounds_rows(sets):
    """(C, R, error): rows j of C and of R are ``_box_bounds(sets[j])``,
    bit for bit, for the sets before the first one whose bounds raise, and
    ``error`` is what that set raises, or None.

    When every set maps a box or a point by one matrix M, or by a product
    M = M_1 M_2 ... of matrices each shared by all the sets
    (``_common_matrix``; Phi1 B for inputs through B), M is composed once,
    as each set's axis walk composes it, and the rows come from two
    stacked products, M c_j and |M| r_j, with the arithmetic of
    ``_box_bounds`` (``_mapped_box_rows``).  Otherwise, or when
    some row fails the checks, each set takes its own ``_box_bounds``, in
    turn, so the error is the one of that walk."""
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
    the checks of ``_box_bounds``: computed with numpy's overflow
    warnings off, the rows then leave the error to each set's own walk.
    A sparse M is canonical (`_Matrix`): |M| does not reorder it."""
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
        nlo = np.where(box[:, None], -Tc + Tr, -Tc)
    return _box_rows(hi, nlo)


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


def _local_gaps(d1, r1, s1, d2, r2, s2):
    """`_local_gap` of every row of (m, 2) directions d and support
    vectors s and (m,) support values r: the same IEEE operations,
    elementwise, so each gap is bitwise the scalar one."""
    (ax, ay), (bx, by) = d1.T, d2.T
    (x1, y1), (x2, y2) = s1.T, s2.T
    det = ax * by - ay * bx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        px = (by * r1 - ay * r2) / det
        py = (ax * r2 - bx * r1) / det
        cx, cy = x2 - x1, y2 - y1
        cc = cx * cx + cy * cy
        ux, uy = px - x1, py - y1
        t = np.minimum(np.maximum((ux * cx + uy * cy) / cc, 0.0), 1.0)
        ex, ey = px - (x1 + t * cx), py - (y1 + t * cy)
        gap = np.where(cc == 0.0, np.sqrt(ux * ux + uy * uy), np.sqrt(ex * ex + ey * ey))
    return np.where(abs(det) < 1e-12, 0.0, gap)


#: the first directions of the refinement, in angular order from (0, -1)
_START = [_frozen(d) for d in [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]]


def _bisector(l1, l2):
    """The unit bisector of the wedge of the unit directions l1 and l2,
    arrays, or None when the wedge no longer splits numerically.  The
    norm and the test take numpy's dot of 2-vectors, which can round
    otherwise than x * x + y * y: every refinement takes its directions
    from here, so they are those of the refinement written on arrays."""
    l = l1 + l2
    nrm = math.sqrt(l.dot(l))
    if nrm == 0.0:
        return None
    l = l / nrm
    if l.dot(l1) >= 1.0 - 1e-15 or l.dot(l2) >= 1.0 - 1e-15:
        return None
    return l


def overapproximate_eps(X, eps, max_constraints=10_000):
    """Sandwich refinement of a 2D set down to Hausdorff distance eps.

    Starts from the four axis directions and bisects every angular wedge
    whose local gap exceeds eps.  The result is an HPolygon whose
    constraints are support evaluations of X, so it contains X and is
    within eps of it.

    The refinement runs on Python floats, depth first.  An entry is (l,
    d, rho, s): the unit direction as an array l and as a float pair d,
    its support value and its support vector as a float pair.  Only the
    bisection (``_bisector``) takes numpy dot products.  The directions
    do not depend on X, and a tube refines the steps of a chunk together,
    level after level (``_overapproximate_eps_all``); this refinement is
    the reference of that walk, and the one of every other set.
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
        l = _bisector(e1[0], e2[0])
        if l is None:
            return
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


class _Directions:
    """The directions of a walk (``_eps_walk``), which do not depend on
    the set: the four start directions, 0 to 3, and the bisector of each
    wedge met (``_bisector``), formed once.  ``table`` holds them as rows
    and ``key`` orders them as a refined polygon orders its constraints:
    a bisector's key halves its wedge's, and the wedge from 3 round to 0
    spans (-1, 0), since its constraints come first."""

    def __init__(self):
        self.arrays = list(_START)
        self.key = [0.0, 1.0, 2.0, 3.0]
        self.table = np.array(self.arrays)
        self._child = {}

    def bisectors(self, i, j):
        """The index of the bisector of each wedge (i[w], j[w]), or -1
        where the wedge does not split."""
        codes, inverse = np.unique(i << 32 | j, return_inverse=True)
        found = []
        for wedge in (divmod(code, 1 << 32) for code in codes.tolist()):
            if wedge not in self._child:
                self._child[wedge] = self._add(*wedge)
            found.append(self._child[wedge])
        if len(self.table) < len(self.arrays):
            self.table = np.array(self.arrays)
        return np.array(found, dtype=np.intp)[inverse]

    def _add(self, a, b):
        l = _bisector(self.arrays[a], self.arrays[b])
        if l is None:
            return -1
        lo, hi = self.key[a], self.key[b]
        mid = (lo + (hi if hi > lo else hi + 4.0)) / 2.0
        self.key.append(mid - 4.0 if mid > 3.0 else mid)
        self.arrays.append(l)
        return len(self.arrays) - 1


def _walk_shape(X):
    """The shape (parts, points per part) of the image M of a set M + W,
    a planar `VertexImageSum` plus an `HPolygon`, as a lazy step of a
    tube's block is (``reach._steps``); None for any other set."""
    if (isinstance(X, MinkowskiSum) and isinstance(X.left, VertexImageSum)
            and isinstance(X.right, HPolygon) and X.dim == 2):
        return X.left._parts, X.left._count
    return None


def _eps_walk(sets, eps, max_constraints):
    """The refinement of ``overapproximate_eps`` of sets M + W of one
    shape (``_walk_shape``), breadth first: one level of the bisection at
    a time for all of them, each level one stacked query of every open
    wedge of every set.  Returns the constraints of each set's polygon,
    (normals, offsets) in angular order, or None for a set whose walk
    meets a non-finite support, a near-parallel vertex pair or more open
    wedges than its budget of splits; the refinement of that set alone
    meets the same or, its order being depth first, may not, and decides.

    A support of M + W is the sum of those of its terms (Le Guernic &
    Girard 2010), each from one stacked product for all the pairs
    (``_Images``, ``_Polygons``), bitwise its own query; the gaps are
    ``_local_gaps`` and the directions ``_Directions``, so every entry
    is bitwise the depth-first one.  With at most ``max_constraints - 4``
    open wedges no wedge of the depth-first order meets a spent budget."""
    T = len(sets)
    images, polygons = _Images([X.left for X in sets]), _Polygons([X.right for X in sets])
    directions = _Directions()
    failed = np.zeros(T, dtype=bool)
    opened = np.zeros(T, dtype=np.intp)

    def query(t, d):
        L = directions.table[d]
        rho_m, s_m = images.supports(t, L)
        rho_w, s_w, plain = polygons.supports(t, L)
        rho, s = rho_m + rho_w, s_m + s_w
        failed[t[~(plain & np.isfinite(rho) & np.isfinite(s).all(axis=1))]] = True
        return rho, s

    t, d = np.repeat(np.arange(T), 4), np.tile(np.arange(4), T)
    rho, s = query(t, d)
    entries = [(t, d, rho)]
    # the open wedges: set t, from direction i with its entry (r1, s1) to
    # direction j with its entry (r2, s2); first the four of the start
    nxt = 4 * t + (d + 1) % 4
    i, r1, s1, j, r2, s2 = d, rho, s, d[nxt], rho[nxt], s[nxt]
    while True:
        gap = _local_gaps(directions.table[i], r1, s1, directions.table[j], r2, s2)
        live = ~(gap <= eps) & ~failed[t]
        opened += np.bincount(t[live], minlength=T)
        failed |= opened > max_constraints - 4
        t, i, r1, s1, j, r2, s2 = (a[live] for a in (t, i, r1, s1, j, r2, s2))
        m = directions.bisectors(i, j)
        split = (m >= 0) & ~failed[t]
        t, i, r1, s1, j, r2, s2, m = (a[split] for a in (t, i, r1, s1, j, r2, s2, m))
        if not len(t):
            break
        rho, s = query(t, m)
        entries.append((t, m, rho))
        t, i, j = np.concatenate([t, t]), np.concatenate([i, m]), np.concatenate([m, j])
        r1, r2 = np.concatenate([r1, rho]), np.concatenate([rho, r2])
        s1, s2 = np.concatenate([s1, s]), np.concatenate([s, s2])

    t, d, rho = (np.concatenate(a) for a in zip(*entries))
    done = ~failed[t]
    t, d, rho = t[done], d[done], rho[done]
    order = np.lexsort((np.array(directions.key)[d], t))
    ends = np.cumsum(np.bincount(t, minlength=T))
    normals = np.split(directions.table[d[order]], ends[:-1])
    offsets = np.split(rho[order], ends[:-1])
    return [None if f else (A, b) for f, A, b in zip(failed, normals, offsets)]


def _overapproximate_eps_all(sets, eps, max_constraints=10_000):
    """Yield ``overapproximate_eps(X, eps, max_constraints)`` for each of
    ``sets`` in turn, bit for bit, so the first error raised is the one
    of the loop over the sets.  The sets M + W of a tube's lazy steps
    are refined together, one breadth-first walk (``_eps_walk``) for
    each shape of M, on the first request; each other set, and each that
    a walk leaves, is refined alone."""
    shapes = {}
    for t, X in enumerate(sets):
        if eps > 0 and (shape := _walk_shape(X)) is not None:
            shapes.setdefault(shape, []).append(t)
    found = {}
    for ts in shapes.values():
        found.update(zip(ts, _eps_walk([sets[t] for t in ts], eps, max_constraints)))
    for t, X in enumerate(sets):
        constraints = found.get(t)
        yield (overapproximate_eps(X, eps, max_constraints) if constraints is None
               else HPolygon._from_sorted(*constraints))


def _approximate_all(sets, scheme):
    """``[approximate(X, scheme) for X in sets]``, bit for bit and with
    the same first error, the planar sets of the ε-close scheme refined
    together (``_overapproximate_eps_all``)."""
    if not isinstance(scheme, EpsilonClose):
        return [approximate(X, scheme) for X in sets]
    polygons = _overapproximate_eps_all([X for X in sets if X.dim == 2], scheme.eps)
    return [next(polygons) if X.dim == 2 else overapproximate_box(X) for X in sets]


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
