"""Conversion of continuous-time linear systems into set-based recurrences.

A system x'(t) = A x(t) + B u(t), with initial states X0 and inputs U,
becomes the discrete recurrence X(k+1) = Phi X(k) + V(k) with
Phi = exp(A delta).  Two variants are provided:

* dense time: X(0) and V(k) are bloated so that X(k) covers the whole
  time interval [k delta, (k+1) delta];
* discrete time: no bloating, X(k) covers the time points k delta only,
  with the input integrated through the first exponential integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError
from .linalg import (
    BlockMatrix,
    BlockStructure,
    block_closure,
    discretization_matrices,
    exp_matrix,
    phi2_action,
)
from .sets import (
    ConvexHullPair,
    Hyperrectangle,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Scaled,
    Singleton,
    _cut,
    minkowski_sum_all,
    symmetric_interval_hull,
    zero_set,
)

__all__ = [
    "ContinuousSystem",
    "DiscreteSystem",
    "DENSE",
    "DISCRETE",
    "discretize",
    "discretize_dense",
    "discretize_discrete",
    "restrict",
]

DENSE = "dense"
DISCRETE = "discrete"


def is_zero_set(X):
    if isinstance(X, Singleton):
        return not np.any(X.point)
    if isinstance(X, Hyperrectangle):
        return not (np.any(X.center) or np.any(X.radius))
    return False


def _check_input_sets(U, m, what):
    if U is None:
        return None
    if isinstance(U, LazySet):
        if U.dim != m:
            raise DimensionError(f"{what}: input set has dimension {U.dim}, "
                                 f"expected {m}", module="discretize")
        return U
    U = list(U)
    if not U:
        raise InputError(f"{what}: empty input sequence", module="discretize")
    for k, Uk in enumerate(U):
        if Uk.dim != m:
            raise DimensionError(f"{what}: input set {k} has dimension {Uk.dim}, "
                                 f"expected {m}", module="discretize")
    return U


@dataclass
class ContinuousSystem:
    """x'(t) = A x(t) + B u(t), x(0) in X0, u(t) in U.

    ``U`` may be a single set (held constant over the horizon), a list of
    sets (one per upcoming step, piecewise constant), or None for no input.
    ``B`` defaults to the identity, in which case inputs live in the state
    space.
    """

    A: BlockMatrix
    X0: LazySet
    B: BlockMatrix | None = None
    U: object = None

    def __post_init__(self):
        if not isinstance(self.A, BlockMatrix):
            self.A = BlockMatrix(self.A)
        n = self.A.n
        if self.B is not None and not isinstance(self.B, BlockMatrix):
            self.B = BlockMatrix(self.B)
        if self.B is not None and self.B.shape[0] != n:
            raise DimensionError(f"ContinuousSystem: B has {self.B.shape[0]} rows, "
                                 f"A is {n}x{n}", module="discretize")
        if self.X0.dim != n:
            raise DimensionError(f"ContinuousSystem: X0 has dimension {self.X0.dim}, "
                                 f"A is {n}x{n}", module="discretize")
        self.U = _check_input_sets(self.U, self.input_dim, "ContinuousSystem")

    @property
    def n(self):
        return self.A.n

    @property
    def input_dim(self):
        return self.B.shape[1] if self.B is not None else self.n


@dataclass
class DiscreteSystem:
    """Set-based recurrence X(k+1) = Phi X(k) + V(k).

    ``V`` is a single set (constant input) or a list of per-step sets.
    ``u_sets`` optionally retains the original (pre-discretization) input
    sets for output feedthrough checks.  ``phi`` is held in the storage
    of the block rule, decided once (see ``BlockMatrix.stored``).
    """

    phi: BlockMatrix
    x_init: LazySet
    v: object
    delta: float
    model: str = DISCRETE
    u_sets: object = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.phi, BlockMatrix):
            self.phi = BlockMatrix(self.phi)
        self.phi = self.phi.stored()
        n = self.phi.n
        if self.x_init.dim != n:
            raise DimensionError(f"DiscreteSystem: X(0) has dimension "
                                 f"{self.x_init.dim}, Phi is {n}x{n}",
                                 module="discretize")
        if self.v is None:
            self.v = zero_set(n)
        self.v = _check_input_sets(self.v, n, "DiscreteSystem")
        if self.model not in (DENSE, DISCRETE):
            raise InputError(f"DiscreteSystem: unknown model {self.model!r}",
                             module="discretize")

    @property
    def n(self):
        return self.phi.n

    @property
    def constant_input(self):
        return isinstance(self.v, LazySet)

    def v_at(self, k):
        return _step_set(self.v, k, "discretize")


def _step_set(U, k, module):
    """The set of step k: U itself when it is one set, else U[k]; a short
    sequence is an ``error:<module>:schema``."""
    if isinstance(U, LazySet):
        return U
    if k >= len(U):
        raise InputError(f"input sequence has {len(U)} entries, "
                         f"step {k} requested", module=module)
    return U[k]


def _mapped_inputs(sys):
    """The input sets mapped into the state space through B, as a list:
    one entry for a constant input, none when there is no input."""
    if sys.U is None:
        return []
    U = [sys.U] if isinstance(sys.U, LazySet) else sys.U
    return U if sys.B is None else [LinearMap(sys.B.data, Uk) for Uk in U]


def _shaped_like(U, vs):
    """The per-input sets ``vs`` in the shape of the input ``U``: None
    without input, one set for a constant input, else the list."""
    if U is None:
        return None
    return vs[0] if isinstance(U, LazySet) else vs


#: relative margin added to the dense-time bloat radii (see ``_bloat_from``)
BLOAT_MARGIN = 1e-12


def _bloat_from(A, sets, delta):
    """Symmetric boxes [Phi2(|A|, delta) applied to the interval hull of S],
    one for each set S of ``sets``, from one ``phi2_action``.

    The exact radius x = Phi2(|A|) r is a sum of nonnegative terms, so a
    truncated sum can only fall short of it.  Each column x is therefore
    clipped at 0 and widened to x + BLOAT_MARGIN (|x| + max |x|); a zero
    column stays zero.  The Taylor series of ``phi2_action`` stops at the
    degree whose a-priori tail bound is u = 2^-53 (see ``linalg``): the
    part it drops from a column is at most u ||r||_1 <= 2 u ||x||_1, since
    x >= r / 2 entrywise -- a bound, not an estimate, and for delta |A|_1
    above 1 it holds per substep.  Rounding is not bounded: each of the
    series' sparse products (about ten at delta ||A||_1 <= 0.2, about 18
    per substep beyond 1) adds a few u of max |x|.  The margin, about
    9000 u of max |x|, lies far above both and far below any width that
    matters: with delta ||A||_1 = 650, the largest error found was 6e-14 of
    max |x| against 50-digit arithmetic (5 x 5), and 2e-13 against the
    closed form of a symmetric 400 x 400 matrix (tests/test_linalg.py).
    Like the 3n x 3n exponential it replaced, this is not a rigorous
    bound.
    """
    R = np.column_stack([symmetric_interval_hull(S).radius for S in sets])
    X = np.maximum(phi2_action(A.abs(), R, delta), 0.0)
    X += BLOAT_MARGIN * (X + X.max(axis=0))
    return [Hyperrectangle(np.zeros(A.n), x) for x in X.T]


def discretize_dense(sys: ContinuousSystem, delta):
    """Dense-time model: step k of the recurrence covers t in [k d, (k+1) d].

    The first step set is the convex hull of X0 with its image bloated by
    the input effect and the second-order curvature of the flow; each
    input set is bloated the same way.  All bloat boxes come from one
    exponential action, with one column for A^2 X0 and one for A U of
    each nonzero input set.
    """
    phi = exp_matrix(sys.A, delta).stored()
    mapped = _mapped_inputs(sys)
    live = [k for k, U in enumerate(mapped) if not is_zero_set(U)]
    A2 = sys.A @ sys.A
    eplus, *epsi = _bloat_from(
        sys.A, [LinearMap(A2.data, sys.X0)]
        + [LinearMap(sys.A.data, mapped[k]) for k in live], delta)
    epsi = dict(zip(live, epsi))
    vs = [MinkowskiSum(Scaled(delta, U), epsi[k]) if k in epsi
          else zero_set(sys.n) for k, U in enumerate(mapped)]

    first_terms = [LinearMap(phi.data, sys.X0)]
    if 0 in epsi:
        first_terms += [Scaled(delta, mapped[0]), epsi[0]]
    first_terms.append(eplus)
    x_init = ConvexHullPair(sys.X0, minkowski_sum_all(first_terms))
    return DiscreteSystem(phi, x_init, _shaped_like(sys.U, vs), float(delta),
                          model=DENSE, u_sets=sys.U)


def discretize_discrete(sys: ContinuousSystem, delta):
    """Discrete-time model: step k covers the time point k d only.

    X(0) is X0 unchanged and inputs act through the first exponential
    integral: V(k) = Phi1(A, d) B U(k).
    """
    if sys.U is None:
        return DiscreteSystem(exp_matrix(sys.A, delta), sys.X0, None,
                              float(delta), model=DISCRETE)
    phi, phi1, _ = discretization_matrices(sys.A, delta)
    phi1 = phi1.stored()
    vs = [zero_set(sys.n) if is_zero_set(U) else LinearMap(phi1.data, U)
          for U in _mapped_inputs(sys)]
    return DiscreteSystem(phi, sys.X0, _shaped_like(sys.U, vs), float(delta),
                          model=DISCRETE, u_sets=sys.U)


def restrict(sys: ContinuousSystem, blocks):
    """The system on the block closure of ``blocks``, and the closure as a
    sorted tuple of block indices (``linalg.block_closure``).

    No row of A in the closure C reads a coordinate outside it, so the
    matrices of ``discretize`` on C, and every row of Phi^k in C, are those
    of the whole system: tubes, verdicts and oracle supports on C agree
    with the whole system's up to rounding, and up to the dense-time bloat
    margin, which is relative to the largest radius of the system it is
    computed on (``BLOAT_MARGIN``).  A is cut to its principal
    submatrix on C, X0 (a box or a point) to its projection on C, and B to
    its rows in C; U is cut like X0 when there is no B (the inputs are
    then states), and left as it is otherwise.  The blocks of C keep their order, so block p
    of the cut system is block ``closure[p]`` of the whole one.  When C
    holds every block, the system itself is returned.
    """
    kept = block_closure(sys.A, blocks)
    bs = BlockStructure(sys.n)
    if len(kept) == bs.b:
        return sys, kept
    coords = bs.coords(kept)
    B, U = sys.B, sys.U
    if B is not None:
        B = BlockMatrix(B.data[coords])
    elif isinstance(U, LazySet):
        U = _cut(U, coords, "discretize")
    elif U is not None:
        U = [_cut(Uk, coords, "discretize") for Uk in U]
    return ContinuousSystem(sys.A.principal(coords),
                            _cut(sys.X0, coords, "discretize"), B, U), kept


def discretize(sys: ContinuousSystem, delta, model=DENSE):
    """Dispatch to the dense- or discrete-time transformation."""
    if not (np.isfinite(delta) and delta > 0):
        raise InputError(f"discretize: step must be positive, got {delta}",
                         module="discretize")
    if model == DENSE:
        return discretize_dense(sys, delta)
    if model == DISCRETE:
        return discretize_discrete(sys, delta)
    raise InputError(f"discretize: unknown model {model!r}", module="discretize")
