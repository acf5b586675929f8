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
    DENSIFY_BLOCK_FRACTION,
    BlockMatrix,
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


def _stored(M):
    """M in the storage the recurrences use: a sparse matrix with more than
    ``DENSIFY_BLOCK_FRACTION`` of its blocks occupied is made dense, since
    products with it and with its powers are then cheaper in dense
    storage."""
    if M.is_sparse and M.block_density() > DENSIFY_BLOCK_FRACTION:
        return BlockMatrix(M.to_dense())
    return M


@dataclass
class DiscreteSystem:
    """Set-based recurrence X(k+1) = Phi X(k) + V(k).

    ``V`` is a single set (constant input) or a list of per-step sets.
    ``u_sets`` optionally retains the original (pre-discretization) input
    sets for output feedthrough checks.  A sparse ``phi`` with more than
    ``DENSIFY_BLOCK_FRACTION`` of its blocks occupied is stored dense, once
    (see ``_stored``).
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
        self.phi = _stored(self.phi)
        n = self.phi.n
        if self.x_init.dim != n:
            raise DimensionError(f"DiscreteSystem: X(0) has dimension "
                                 f"{self.x_init.dim}, Phi is {n}x{n}",
                                 module="discretize")
        if self.v is None:
            self.v = zero_set(n)
        vs = self.v if isinstance(self.v, LazySet) else list(self.v)
        if isinstance(vs, LazySet):
            if vs.dim != n:
                raise DimensionError(f"DiscreteSystem: V has dimension {vs.dim}, "
                                     f"expected {n}", module="discretize")
        else:
            for k, Vk in enumerate(vs):
                if Vk.dim != n:
                    raise DimensionError(f"DiscreteSystem: V({k}) has dimension "
                                         f"{Vk.dim}, expected {n}", module="discretize")
            self.v = vs
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


def _mapped_input(sys, k):
    """Input set at step k, mapped into the state space through B."""
    if sys.U is None:
        return None
    Uk = _step_set(sys.U, k, "discretize")
    if sys.B is None:
        return Uk
    return LinearMap(sys.B.data, Uk)


def _input_count(sys):
    return None if (sys.U is None or isinstance(sys.U, LazySet)) else len(sys.U)


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
    phi = _stored(exp_matrix(sys.A, delta))
    n = sys.n
    count = _input_count(sys)
    steps = () if sys.U is None else range(1 if count is None else count)
    mapped = {k: _mapped_input(sys, k) for k in steps}
    mapped = {k: U for k, U in mapped.items() if not is_zero_set(U)}
    A2 = sys.A @ sys.A
    eplus, *epsi = _bloat_from(
        sys.A, [LinearMap(A2.data, sys.X0)]
        + [LinearMap(sys.A.data, U) for U in mapped.values()], delta)
    epsi = dict(zip(mapped, epsi))

    def v_for(k):
        if k not in mapped:
            return zero_set(n)
        return MinkowskiSum(Scaled(delta, mapped[k]), epsi[k])

    first_terms = [LinearMap(phi.data, sys.X0)]
    if 0 in mapped:
        first_terms += [Scaled(delta, mapped[0]), epsi[0]]
    first_terms.append(eplus)
    x_init = ConvexHullPair(sys.X0, minkowski_sum_all(first_terms))

    v = v_for(0) if count is None else [v_for(k) for k in range(count)]
    return DiscreteSystem(phi, x_init, v, float(delta), model=DENSE,
                          u_sets=sys.U)


def discretize_discrete(sys: ContinuousSystem, delta):
    """Discrete-time model: step k covers the time point k d only.

    X(0) is X0 unchanged and inputs act through the first exponential
    integral: V(k) = Phi1(A, d) B U(k).
    """
    n = sys.n
    if sys.U is None:
        phi = exp_matrix(sys.A, delta)
        return DiscreteSystem(phi, sys.X0, zero_set(n), float(delta),
                              model=DISCRETE, u_sets=None)
    phi, phi1, _ = discretization_matrices(sys.A, delta)
    phi1 = _stored(phi1)

    def v_for(k):
        mapped = _mapped_input(sys, k)
        if is_zero_set(mapped):
            return zero_set(n)
        return LinearMap(phi1.data, mapped)

    count = _input_count(sys)
    v = v_for(0) if count is None else [v_for(k) for k in range(count)]
    return DiscreteSystem(phi, sys.X0, v, float(delta), model=DISCRETE,
                          u_sets=sys.U)


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
