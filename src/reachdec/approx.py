"""Low-dimensional overapproximation schemes and block-wise decomposition.

A state space of dimension n is split into ceil(n/2) consecutive blocks of
size two (the final block has size one when n is odd).  Sets are decomposed
into a Cartesian product of per-block overapproximations, computed either
from the four axis-aligned support directions (box scheme) or by sandwich
refinement of support directions until a requested Hausdorff accuracy is
met (epsilon-close scheme).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ApproximationError, DimensionError, InvalidSetError, UnboundedSetError
from .linalg import _block_ranges
from .sets import (
    HPolygon,
    Hyperrectangle,
    LazySet,
    LinearMap,
    Singleton,
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


class BlockStructure:
    """Partition of coordinates 0..n-1 into consecutive blocks of size <= 2."""

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise DimensionError("BlockStructure: dimension must be positive",
                                 module="approx")
        self.n = n
        self.blocks = _block_ranges(n)

    @property
    def b(self):
        return len(self.blocks)

    def size(self, i):
        lo, hi = self.blocks[i]
        return hi - lo

    def block_of(self, coord):
        if not 0 <= coord < self.n:
            raise DimensionError(f"BlockStructure: coordinate {coord} out of range",
                                 module="approx")
        return coord // 2

    def projection_matrix(self, i):
        lo, hi = self.blocks[i]
        P = np.zeros((hi - lo, self.n))
        P[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        return P

    def __eq__(self, other):
        return isinstance(other, BlockStructure) and other.n == self.n

    def __repr__(self):
        return f"BlockStructure(n={self.n}, b={self.b})"


@dataclass(frozen=True)
class BoxDirections:
    """Overapproximate each block by its axis-aligned bounding box."""


@dataclass(frozen=True)
class EpsilonClose:
    """Overapproximate each 2D block by a polygon within eps Hausdorff distance."""

    eps: float
    max_constraints: int = 10_000

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
    sparse M is read by dense rows, as those support queries read it, so
    the bounds are bitwise theirs.
    """
    if isinstance(X, Hyperrectangle):
        return X
    hi, nlo = X._axis_supports(None, dense_rows=True)
    lo = -nlo
    if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
        raise UnboundedSetError("overapproximate_box: non-finite support value",
                                module="approx")
    return Hyperrectangle((lo + hi) / 2.0, (hi - lo) / 2.0)


def _local_gap(d1, r1, s1, d2, r2, s2):
    """Distance from the corner of two support constraints to the chord of
    their support vectors; bounds the overapproximation error in the wedge."""
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(det) < 1e-12:
        return 0.0
    corner = np.array([(d2[1] * r1 - d1[1] * r2) / det,
                       (d1[0] * r2 - d2[0] * r1) / det])
    chord = s2 - s1
    cc = chord @ chord
    if cc == 0.0:
        return float(np.linalg.norm(corner - s1))
    t = np.clip((corner - s1) @ chord / cc, 0.0, 1.0)
    return float(np.linalg.norm(corner - (s1 + t * chord)))


def overapproximate_eps(X, eps, max_constraints=10_000):
    """Sandwich refinement of a 2D set down to Hausdorff distance eps.

    Starts from the four axis directions and bisects every angular wedge
    whose local gap exceeds eps.  The result is an HPolygon whose
    constraints are support evaluations of X, so it contains X and is
    within eps of it.
    """
    if X.dim != 2:
        raise DimensionError(f"overapproximate_eps: set has dimension {X.dim}, "
                             "expected 2", module="approx")
    if not (eps > 0):
        raise InvalidSetError("overapproximate_eps: eps must be positive",
                              module="approx")

    def entry(d):
        return (d, *X.support_pair(d))

    start = [entry(np.array(d)) for d in
             [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]]
    budget = [max_constraints - 4]

    def refine(e1, e2):
        gap = _local_gap(*e1, *e2)
        if gap <= eps:
            return []
        if budget[0] <= 0:
            raise ApproximationError(
                f"overapproximate_eps: constraint budget {max_constraints} "
                f"exhausted, local gap still {gap:.3e} > {eps:.3e}",
                module="approx")
        d = e1[0] + e2[0]
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            return []
        d = d / nrm
        if d @ e1[0] >= 1.0 - 1e-15 or d @ e2[0] >= 1.0 - 1e-15:
            return []  # wedge no longer numerically splittable
        budget[0] -= 1
        em = entry(d)
        return refine(e1, em) + [em] + refine(em, e2)

    entries = []
    for i in range(4):
        e1, e2 = start[i], start[(i + 1) % 4]
        entries.append(e1)
        entries.extend(refine(e1, e2))
    normals = np.array([e[0] for e in entries])
    offsets = np.array([e[1] for e in entries])
    if not np.all(np.isfinite(offsets)):
        raise UnboundedSetError("overapproximate_eps: non-finite support value",
                                module="approx")
    return HPolygon(normals, offsets, check_feasible=False)


def approximate(X, scheme):
    """Collapse a lazy set to a concrete one according to the scheme."""
    if isinstance(scheme, BoxDirections):
        return overapproximate_box(X)
    if isinstance(scheme, EpsilonClose):
        if X.dim == 2:
            return overapproximate_eps(X, scheme.eps, scheme.max_constraints)
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
    if isinstance(X, Singleton):
        return [Singleton(X.point[lo:hi]) for lo, hi in bs.blocks]
    if isinstance(X, Hyperrectangle) or isinstance(scheme, BoxDirections):
        box = overapproximate_box(X)
        return [Hyperrectangle(box.center[lo:hi], box.radius[lo:hi])
                for lo, hi in bs.blocks]
    out = []
    for i in range(bs.b):
        proj = LinearMap(bs.projection_matrix(i), X)
        out.append(approximate(proj, scheme))
    return out
