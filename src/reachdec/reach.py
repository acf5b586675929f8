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
    _box_block,
    approximate,
    decompose,
    overapproximate_box,
)
from .discretize import DENSE, DiscreteSystem, _step_set
from .errors import DimensionError, InputError, InvalidSetError, NonFiniteError
from .linalg import BlockMatrix, MatrixPowerState
from .sets import (
    CartesianProduct,
    Hyperrectangle,
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

    def _checked_directions(self, directions, ndim):
        """``directions`` as a float array of ``ndim`` dimensions (one
        direction, or one per row) over the state, finite and zero on the
        coordinates of untracked blocks."""
        L = np.asarray(directions, dtype=float)
        if L.ndim != ndim or L.shape[-1] != self.bs.n:
            raise DimensionError(f"ReachTube: direction array has shape {L.shape}, "
                                 f"state dimension is {self.bs.n}", module="reach")
        if not np.all(np.isfinite(L)):
            raise InputError("ReachTube: directions must be finite", module="reach")
        untracked = np.ones(self.bs.n, dtype=bool)
        untracked[self.bs.coords(self.tracked)] = False
        if L[..., untracked].any():
            raise DimensionError("ReachTube: direction touches untracked blocks",
                                 module="reach")
        return L

    def support(self, k, direction):
        """Support of the Cartesian product of the tracked blocks at step k
        in a full-dimensional direction (zero on untracked coordinates)."""
        l = self._checked_directions(direction, 1)
        return _block_support_sum(self.steps[k], self.tracked, self.bs, l)

    def support_batch(self, k, directions):
        """Supports as in ``support`` for each row of an (m, n) array."""
        L = self._checked_directions(directions, 2)
        total = np.zeros(L.shape[0])
        for i in self.tracked:
            sub = L[:, self.bs.slice(i)]
            rows = np.any(sub != 0.0, axis=1)   # zero slices contribute 0
            if rows.any():
                total[rows] += self.steps[k][i].support_batch(sub[rows])
        return total


def _block_support_sum(sets, blocks, bs, d):
    """Support in the full-dimensional direction d of the product of the
    sets {i: set} of ``blocks``, with d zero outside them: the sum of the
    block supports in the slices of d (a zero slice contributes 0)."""
    total = 0.0
    for i in blocks:
        di = d[bs.slice(i)]
        if np.any(di != 0.0):
            total += sets[i].support_function(di)
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
        return {i: (c[i], r[i]) for i in R.blocks}
    if isinstance(V, Singleton):
        c = R.dot(V.point)
        return {i: (c[i], np.zeros_like(c[i])) for i in R.blocks}
    out = {}
    for i in R.blocks:
        box = overapproximate_box(LinearMap(R.dense_row_block(i), V))
        out[i] = (box.center, box.radius)
    return out


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
        return {i: (w_c[bs.slice(i)], w_r[bs.slice(i)]) for i in blocks}
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
    step (``_set_inputs``).  A lazy step of block i is the image R_i X0 of
    the whole decomposed initial set X0 -- one box under the box scheme,
    the product of the blocks otherwise -- under the block's rows R_i of
    Phi^k, plus its input accumulation: a support query is one product
    R_i^T d and one query on X0.  It is collapsed through ``scheme`` when
    ``collapse`` is set.  In the closed form X0 is the box (or point) of
    the initial set, and only the step-0 sets of ``blocks`` are sliced
    from it.
    """
    box = fast is not False and isinstance(scheme, BoxDirections)
    x = sys.x_init
    if box:
        x = x if isinstance(x, Singleton) else overapproximate_box(x)
        yield {i: _box_block(x, bs, i) for i in blocks}
    else:
        blocks0 = decompose(x, bs, scheme)
        yield {i: blocks0[i] for i in blocks}
    if N == 1:
        return
    if box:
        X0 = (Hyperrectangle(x.point, np.zeros(bs.n)) if isinstance(x, Singleton)
              else x)
        c0, r0 = X0.center, X0.radius
        inputs = _box_inputs(sys, bs, blocks)
    else:
        X0 = CartesianProduct(blocks0)
        inputs = _set_inputs(sys, bs, blocks, scheme)
    power = MatrixPowerState(sys.phi, blocks)
    for k in range(1, N):
        W = inputs(k, power.P)
        if box and collapse:
            sc, sr = power.Q.dot(c0), power.Q.abs().dot(r0)
            yield {i: _step_box(k, sc[i] + W[i][0], sr[i] + W[i][1])
                   for i in blocks}
        else:
            out = {}
            for i in blocks:
                combined = MinkowskiSum(LinearMap(power.Q.dense_row_block(i), X0),
                                        _step_box(k, *W[i]) if box else W[i])
                out[i] = approximate(combined, scheme) if collapse else combined
            yield out
        power.advance()


def _step_box(k, center, radius):
    """The box (center, radius) of step k of the box scheme.  Its parts are
    sums of products of finite data, so a non-finite one is an overflow:
    the tube builders run with numpy's overflow warnings off, and this
    error reports it instead."""
    try:
        return Hyperrectangle(center, radius)
    except InvalidSetError:
        raise NonFiniteError(f"the box of step {k} overflowed",
                             module="reach") from None


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
    with np.errstate(over="ignore", invalid="ignore"):     # see _step_box
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
    with np.errstate(over="ignore", invalid="ignore"):     # see _step_box
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


def _as_matrix(M):
    return M if M is None or isinstance(M, BlockMatrix) else BlockMatrix(M)


def _state_directions(prop, bs):
    """({id(atom): its direction over the state}, the sorted blocks these
    directions touch) for the atoms of ``prop``: the coefficients pulled
    back through the output matrix C, or taken as they are when y = x."""
    C = _as_matrix(prop.C)
    dirs = {}
    for a in prop.atoms():
        if C is not None:
            if a.coeffs.shape[0] != C.shape[0]:
                raise DimensionError(f"atom has {a.coeffs.shape[0]} coefficients, "
                                     f"output dimension is {C.shape[0]}",
                                     module="reach")
            dirs[id(a)] = np.asarray(C.data.T @ a.coeffs, dtype=float).ravel()
        else:
            if a.coeffs.shape[0] != bs.n:
                raise DimensionError(f"atom has {a.coeffs.shape[0]} coefficients, "
                                     f"state dimension is {bs.n}", module="reach")
            dirs[id(a)] = a.coeffs
    coords = [np.flatnonzero(d) for d in dirs.values()]
    blocks = bs.block_of(np.concatenate(coords)) if coords else []
    return dirs, np.unique(blocks).tolist()


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
    atoms = prop.atoms()
    if not atoms:
        raise InputError("safety property has no atoms", module="reach")
    state_dirs, needed = _state_directions(prop, bs)
    D = _as_matrix(prop.D)

    feed_dirs = {}
    for a in atoms:
        if D is not None:
            du = np.asarray(D.data.T @ a.coeffs, dtype=float).ravel()
            if np.any(du != 0.0):
                if sys.u_sets is None:
                    raise InputError("property uses feedthrough but the system "
                                     "carries no input sets", module="reach")
                feed_dirs[id(a)] = du

    for k, sets in enumerate(_steps(sys, N, bs, needed, scheme,
                                    collapse=False)):
        cert = {}
        values = {}
        for a in atoms:
            val = _block_support_sum(sets, needed, bs, state_dirs[id(a)])
            if id(a) in feed_dirs:
                val += _step_set(sys.u_sets, k, "reach").support_function(
                    feed_dirs[id(a)])
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
    cols = np.flatnonzero(np.any(M != 0.0, axis=0))
    needed_blocks = np.unique(tube.bs.block_of(cols)).tolist()
    missing = [i for i in needed_blocks if i not in tube.tracked]
    if missing:
        raise InputError(f"projection touches untracked blocks {missing}",
                         module="reach")

    if len(needed_blocks) == 1:
        # M selects block i's coordinates iff it reads only block i and is
        # the identity there
        i = needed_blocks[0]
        size = tube.bs.size(i)
        if size == M.shape[0] and np.array_equal(M[:, tube.bs.slice(i)], np.eye(size)):
            return [tube.steps[k][i] for k in range(tube.n_steps)]

    order = sorted(tube.tracked)
    M_sub = M[:, tube.bs.coords(order)]
    out = []
    for k in range(tube.n_steps):
        prod = CartesianProduct([tube.steps[k][i] for i in order])
        out.append(approximate(LinearMap(M_sub, prod), scheme))
    return out
