"""Decomposed reach tubes, safety checking, and output projection.

The recurrence X(k+1) = Phi X(k) + V(k) is evaluated block-wise: the
initial set is decomposed into two-dimensional blocks once, and step k is
assembled from the powers Phi^k applied to those blocks plus an input
accumulation that is collapsed to a concrete low-dimensional set every
step.  Computed step sets are never fed back into the recurrence, so
approximation errors do not compound (no wrapping effect) for constant
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (
    BlockStructure,
    BoxDirections,
    approximate,
    decompose,
    overapproximate_box,
)
from .discretize import DENSE, DiscreteSystem
from .errors import DimensionError, InputError
from .linalg import MatrixPowerState
from .sets import (
    Hyperrectangle,
    LazySet,
    LinearMap,
    MinkowskiSum,
    Singleton,
    minkowski_sum_all,
    zero_set,
)

__all__ = [
    "ReachTube",
    "reach_decomposed",
    "reach_decomposed_varying",
    "Atom",
    "And",
    "Or",
    "SafetyProperty",
    "CheckResult",
    "check_property",
    "project_output",
]


@dataclass
class ReachTube:
    """Per-step, per-block reach sets of a decomposed recurrence."""

    delta: float
    model: str
    bs: BlockStructure
    tracked: tuple
    steps: list

    @property
    def n_steps(self):
        return len(self.steps)

    def time_interval(self, k):
        """Time span covered by step k: an interval for the dense-time
        model, a point for the discrete-time model."""
        if self.model == DENSE:
            return (k * self.delta, (k + 1) * self.delta)
        return (k * self.delta, k * self.delta)

    def set_at(self, k, block):
        return self.steps[k][block]

    def box_hull(self, k, block):
        return overapproximate_box(self.steps[k][block])

    def _direction_slices(self, direction):
        l = np.asarray(direction, dtype=float)
        if l.shape != (self.bs.n,):
            raise DimensionError(f"ReachTube: direction has shape {l.shape}, "
                                 f"state dimension is {self.bs.n}", module="reach")
        untracked = np.ones(self.bs.n, dtype=bool)
        for i in self.tracked:
            lo, hi = self.bs.blocks[i]
            untracked[lo:hi] = False
        if np.any(l[untracked] != 0.0):
            raise DimensionError("ReachTube: direction touches untracked blocks",
                                 module="reach")
        return l

    def support(self, k, direction):
        """Support of the Cartesian product of the tracked blocks at step k
        in a full-dimensional direction (zero on untracked coordinates)."""
        l = self._direction_slices(direction)
        total = 0.0
        for i in self.tracked:
            lo, hi = self.bs.blocks[i]
            if np.any(l[lo:hi] != 0.0):     # a zero slice contributes 0
                total += self.steps[k][i].support_function(l[lo:hi])
        return total

    def support_batch(self, k, directions):
        L = np.asarray(directions, dtype=float)
        total = np.zeros(L.shape[0])
        for i in self.tracked:
            lo, hi = self.bs.blocks[i]
            sub = L[:, lo:hi]
            rows = np.any(sub != 0.0, axis=1)   # zero slices contribute 0
            if rows.any():
                total[rows] += self.steps[k][i].support_batch(sub[rows])
        return total


# ----------------------------------------------------------------------
# the decomposed recurrence
# ----------------------------------------------------------------------

def _checked_run(sys, N, bs, tracked=None):
    """(N, bs, tracked) of a run, checked against the system: at least one
    step, a block structure of the system's dimension, known tracked
    blocks (all when None), and an input sequence covering every step."""
    N = int(N)
    if N < 1:
        raise InputError(f"step count must be at least 1, got {N}", module="reach")
    bs = bs or BlockStructure(sys.n)
    if bs.n != sys.n:
        raise DimensionError(f"block structure is for dimension {bs.n}, "
                             f"system has {sys.n}", module="reach")
    if tracked is None:
        tracked = tuple(range(bs.b))
    else:
        tracked = tuple(sorted({int(i) for i in tracked}))
        for i in tracked:
            if not 0 <= i < bs.b:
                raise InputError(f"tracked block {i} out of range (b = {bs.b})",
                                 module="reach")
        if not tracked:
            raise InputError("no blocks tracked", module="reach")
    if not sys.constant_input and len(sys.v) < N:
        raise InputError(f"input sequence has {len(sys.v)} entries, "
                         f"a {N}-step run requires {N}", module="reach")
    return N, bs, tracked


def _row_image_boxes(R, V):
    """Box hulls {i: (center, radius)} of the images of V under the row
    blocks held by R."""
    if isinstance(V, Hyperrectangle):
        c, r = R.dot(V.center), R.abs().dot(V.radius)
        return {i: (c[i], r[i]) for i in R.ranges}
    if isinstance(V, Singleton):
        c = R.dot(V.point)
        return {i: (c[i], np.zeros_like(c[i])) for i in R.ranges}
    out = {}
    for i in R.ranges:
        box = overapproximate_box(LinearMap(R.dense_row_block(i), V))
        out[i] = (box.center, box.radius)
    return out


def _state_sum_lazy(Q, i, blocks0, bs):
    """Lazy Minkowski sum of Q[i, j] applied to the initial blocks,
    skipping zero blocks."""
    rows = Q.dense_row_block(i)
    terms = [LinearMap(rows[:, slice(*bs.blocks[j])], blocks0[j])
             for j in Q.nonzero_col_blocks(i)]
    if not terms:
        return zero_set(bs.size(i))
    return minkowski_sum_all(terms)


def _stack_boxes(blocks, bs):
    c = np.zeros(bs.n)
    r = np.zeros(bs.n)
    for i, x in enumerate(blocks):
        lo, hi = bs.blocks[i]
        if isinstance(x, Singleton):
            c[lo:hi] = x.point
        else:
            c[lo:hi] = x.center
            r[lo:hi] = x.radius
    return c, r


def _box_inputs(sys, bs, blocks):
    """Input accumulation of the box scheme in closed form, as a function
    of (k, P) -- P holding the rows of Phi^(k-1) -- that returns the
    accumulated input box {i: (center, radius)} of each block at step k.

    A constant input adds the box hull of Phi^(k-1) V.  An input sequence
    is carried in full dimension, w <- Phi w + V(k-1), with |Phi| acting on
    the radii and V(k-1) replaced by its box hull."""
    if sys.constant_input:
        acc = {i: (np.zeros(bs.size(i)), np.zeros(bs.size(i))) for i in blocks}

        def step(_k, P):
            for i, (c, r) in _row_image_boxes(P, sys.v).items():
                acc[i] = (acc[i][0] + c, acc[i][1] + r)
            return acc
        return step

    w_c, w_r = np.zeros(bs.n), np.zeros(bs.n)
    phi_abs = sys.phi.abs()

    def step(k, _P):
        nonlocal w_c, w_r
        v = overapproximate_box(sys.v_at(k - 1))
        w_c = sys.phi @ w_c + v.center
        w_r = phi_abs @ w_r + v.radius
        return {i: (w_c[slice(*bs.blocks[i])], w_r[slice(*bs.blocks[i])])
                for i in blocks}
    return step


def _set_inputs(sys, bs, blocks, scheme):
    """Input accumulation collapsed through ``scheme``, as a function of
    (k, P) like ``_box_inputs`` that returns the accumulated input set of
    each block at step k.

    A constant input adds Phi^(k-1) V to each block and collapses the sum.
    An input sequence cannot be kept apart from the dynamics: it is
    propagated through the nonzero blocks of Phi (sliced once) for all
    blocks, W_j <- collapse(sum_jj Phi[j, jj] W_jj + V_j(k-1)), and
    therefore wraps."""
    if sys.constant_input:
        W = {i: zero_set(bs.size(i)) for i in blocks}

        def step(_k, P):
            for i in blocks:
                W[i] = approximate(
                    MinkowskiSum(W[i], LinearMap(P.dense_row_block(i), sys.v)),
                    scheme)
            return W
        return step

    W = [zero_set(bs.size(j)) for j in range(bs.b)]
    phi = sys.phi
    phi_blocks = [[(jj, phi.block(j, jj)) for jj in phi.nonzero_col_blocks(j)]
                  for j in range(bs.b)]

    def step(k, _P):
        nonlocal W
        vhat = decompose(sys.v_at(k - 1), bs, scheme)
        W = [approximate(minkowski_sum_all(
                 [LinearMap(M, W[jj]) for jj, M in row] + [vhat[j]]), scheme)
             for j, row in enumerate(phi_blocks)]
        return W
    return step


def _steps(sys, N, bs, blocks, scheme, collapse=True, fast=None):
    """Yield {block: set} for the steps k = 0..N-1 of the recurrence, for
    the row blocks ``blocks``.

    Step k is Phi^k applied to the decomposed initial blocks plus the
    accumulated inputs, and only the rows of Phi^k and Phi^(k-1) in
    ``blocks`` are carried.  Under the box scheme the initial blocks are
    boxes or points and, unless ``fast`` is False, the inputs accumulate
    in closed form (``_box_inputs``); a collapsed step is then closed-form
    too -- the box hull of R X for a box X has center R c and radius
    |R| r.  Otherwise the inputs are collapsed through ``scheme`` every
    step (``_set_inputs``) and a block is the lazy sum of its state image
    and its input accumulation, collapsed through ``scheme`` when
    ``collapse`` is set.
    """
    blocks0 = decompose(sys.x_init, bs, scheme)
    yield {i: blocks0[i] for i in blocks}
    if N == 1:
        return
    box = fast is not False and isinstance(scheme, BoxDirections)
    if box:
        c0, r0 = _stack_boxes(blocks0, bs)
        inputs = _box_inputs(sys, bs, blocks)
    else:
        inputs = _set_inputs(sys, bs, blocks, scheme)
    power = MatrixPowerState(sys.phi, blocks)
    for k in range(1, N):
        W = inputs(k, power.P)
        if box and collapse:
            sc, sr = power.Q.dot(c0), power.Q.abs().dot(r0)
            yield {i: Hyperrectangle(sc[i] + W[i][0], sr[i] + W[i][1])
                   for i in blocks}
        else:
            out = {}
            for i in blocks:
                combined = MinkowskiSum(_state_sum_lazy(power.Q, i, blocks0, bs),
                                        Hyperrectangle(*W[i]) if box else W[i])
                out[i] = approximate(combined, scheme) if collapse else combined
            yield out
        power.advance()


def reach_decomposed(sys: DiscreteSystem, N, bs=None, tracked=None,
                     scheme=BoxDirections(), lazy=False, fast=None):
    """Reach tube of a constant-input recurrence over N steps.

    Step k is built from Phi^k applied to the decomposed initial blocks
    plus an input accumulation collapsed through ``scheme`` each step.
    With ``lazy`` the per-step state combination is kept symbolic (the
    input accumulation is still collapsed), which is what the safety
    checker evaluates.
    """
    if not sys.constant_input:
        raise InputError("reach_decomposed expects a constant input set; "
                         "use reach_decomposed_varying for sequences",
                         module="reach")
    N, bs, tracked = _checked_run(sys, N, bs, tracked)
    steps = list(_steps(sys, N, bs, tracked, scheme, not lazy, fast))
    return ReachTube(sys.delta, sys.model, bs, tracked, steps)


def reach_decomposed_varying(sys: DiscreteSystem, N, bs=None, tracked=None,
                             scheme=BoxDirections(), lazy=False, fast=None):
    """Reach tube for a per-step input sequence.

    The input accumulation cannot be kept separate here: it is propagated
    through Phi every step (and therefore wraps) -- under the box scheme
    as one full-dimensional box, w <- Phi w + box(V(k)), otherwise through
    the block rows of Phi with the per-step input sets decomposed on the
    fly.  All blocks of the accumulation are maintained even when only a
    subset is tracked.
    """
    if sys.constant_input:
        raise InputError("reach_decomposed_varying expects an input sequence; "
                         "use reach_decomposed for constant inputs", module="reach")
    N, bs, tracked = _checked_run(sys, N, bs, tracked)
    steps = list(_steps(sys, N, bs, tracked, scheme, not lazy, fast))
    return ReachTube(sys.delta, sys.model, bs, tracked, steps)


# ----------------------------------------------------------------------
# safety properties
# ----------------------------------------------------------------------

class Atom:
    """Linear predicate  c . y < d  (or <=) over the outputs y."""

    def __init__(self, coeffs, bound, strict=True, label=None):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise DimensionError("Atom: coefficient vector must be 1D", module="reach")
        self.coeffs = c
        self.bound = float(bound)
        self.strict = bool(strict)
        self.label = label

    def holds(self, value):
        return value < self.bound if self.strict else value <= self.bound

    def describe(self):
        if self.label:
            return self.label
        op = "<" if self.strict else "<="
        terms = [f"{c:+g}*y{i + 1}" for i, c in enumerate(self.coeffs) if c != 0.0]
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {op} {self.bound:g}"


class And:
    def __init__(self, children):
        self.children = tuple(children)


class Or:
    def __init__(self, children):
        self.children = tuple(children)


def _walk_atoms(node):
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, (And, Or)):
        for c in node.children:
            yield from _walk_atoms(c)
    else:
        raise InputError(f"unknown formula node {type(node).__name__}",
                         module="reach")


def _formula_certified(node, cert):
    if isinstance(node, Atom):
        return cert[id(node)]
    if isinstance(node, And):
        return all(_formula_certified(c, cert) for c in node.children)
    # a disjunction is certified when one disjunct holds for the whole set
    return any(_formula_certified(c, cert) for c in node.children)


@dataclass
class SafetyProperty:
    """Formula over outputs y = C x + D u; C and D default to y = x."""

    formula: object
    C: object = None
    D: object = None

    def atoms(self):
        return list(_walk_atoms(self.formula))


@dataclass
class CheckResult:
    """Outcome of a safety check.

    ``Violated`` means certification failed at ``step`` (the support value
    crossed the bound); it does not exhibit a concrete counterexample.
    """

    verified: bool
    step: int | None = None
    atom: str | None = None
    value: float | None = None

    def __bool__(self):
        return self.verified


def check_property(sys: DiscreteSystem, prop: SafetyProperty, N, bs=None,
                   scheme=BoxDirections()):
    """Certify a safety formula along the recurrence.

    Atom supports are evaluated directly on the lazy per-step sets, so
    only the blocks appearing in some atom direction are ever computed.
    Returns Verified, or Violated at the first step where certification
    fails (which is not a proven counterexample).
    """
    N, bs, _ = _checked_run(sys, N, bs)
    n = sys.n
    atoms = prop.atoms()
    if not atoms:
        raise InputError("safety property has no atoms", module="reach")

    from .linalg import BlockMatrix

    def as_matrix(M):
        if M is None or isinstance(M, BlockMatrix):
            return M
        return BlockMatrix(np.asarray(M, dtype=float))

    C = as_matrix(prop.C)
    D = as_matrix(prop.D)

    state_dirs = {}
    feed_dirs = {}
    for a in atoms:
        if C is not None:
            if a.coeffs.shape[0] != C.shape[0]:
                raise DimensionError(f"atom has {a.coeffs.shape[0]} coefficients, "
                                     f"output dimension is {C.shape[0]}",
                                     module="reach")
            d_state = np.asarray(C.data.T @ a.coeffs, dtype=float).ravel()
        else:
            if a.coeffs.shape[0] != n:
                raise DimensionError(f"atom has {a.coeffs.shape[0]} coefficients, "
                                     f"state dimension is {n}", module="reach")
            d_state = a.coeffs
        state_dirs[id(a)] = d_state
        if D is not None:
            du = np.asarray(D.data.T @ a.coeffs, dtype=float).ravel()
            if np.any(du != 0.0):
                if sys.u_sets is None:
                    raise InputError("property uses feedthrough but the system "
                                     "carries no input sets", module="reach")
                feed_dirs[id(a)] = du

    needed = sorted({bs.block_of(coord)
                     for d in state_dirs.values()
                     for coord in np.nonzero(d)[0]})

    def u_at(k):
        U = sys.u_sets
        if isinstance(U, LazySet):
            return U
        if k >= len(U):
            raise InputError(f"input sequence has {len(U)} entries, "
                             f"step {k} requested", module="reach")
        return U[k]

    for k, sets in enumerate(_steps(sys, N, bs, needed, scheme,
                                    collapse=False)):
        cert = {}
        values = {}
        for a in atoms:
            d_state = state_dirs[id(a)]
            val = 0.0
            for i in needed:
                lo, hi = bs.blocks[i]
                di = d_state[lo:hi]
                if np.any(di != 0.0):
                    val += sets[i].support_function(di)
            if id(a) in feed_dirs:
                val += u_at(k).support_function(feed_dirs[id(a)])
            values[id(a)] = val
            cert[id(a)] = a.holds(val)
        if not _formula_certified(prop.formula, cert):
            bad = next(a for a in atoms if not cert[id(a)])
            return CheckResult(False, step=k, atom=bad.describe(),
                               value=values[id(bad)])
    return CheckResult(True)


# ----------------------------------------------------------------------
# output projection
# ----------------------------------------------------------------------

def _selects_single_block(M, bs, tracked):
    """Block index if M exactly selects one tracked block's coordinates."""
    p, n = M.shape
    for i in tracked:
        lo, hi = bs.blocks[i]
        if hi - lo != p:
            continue
        expect = np.zeros((p, n))
        expect[np.arange(p), np.arange(lo, hi)] = 1.0
        if np.array_equal(M, expect):
            return i
    return None


def project_output(tube: ReachTube, M, scheme=BoxDirections()):
    """Per-step sets of the output y = M x over the tracked blocks.

    M must have one or two rows and may only touch coordinates of tracked
    blocks.  When M is exactly a block projection the stored sets are
    returned unchanged.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[None, :]
    if M.ndim != 2 or M.shape[0] not in (1, 2):
        raise DimensionError(f"projection matrix must have 1 or 2 rows, "
                             f"got shape {M.shape}", module="reach")
    if M.shape[1] != tube.bs.n:
        raise DimensionError(f"projection matrix has {M.shape[1]} columns, "
                             f"state dimension is {tube.bs.n}", module="reach")
    cols = np.nonzero(np.any(M != 0.0, axis=0))[0]
    needed_blocks = sorted({tube.bs.block_of(int(c)) for c in cols})
    missing = [i for i in needed_blocks if i not in tube.tracked]
    if missing:
        raise InputError(f"projection touches untracked blocks {missing}",
                         module="reach")

    direct = _selects_single_block(M, tube.bs, tube.tracked)
    if direct is not None:
        return [tube.steps[k][direct] for k in range(tube.n_steps)]

    order = sorted(tube.tracked)
    coords = np.concatenate([np.arange(*tube.bs.blocks[i]) for i in order])
    M_sub = M[:, coords]
    out = []
    for k in range(tube.n_steps):
        from .sets import CartesianProduct

        prod = CartesianProduct([tube.steps[k][i] for i in order])
        out.append(approximate(LinearMap(M_sub, prod), scheme))
    return out
