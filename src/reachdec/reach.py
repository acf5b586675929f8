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
from functools import partial

import numpy as np

from .approx import (
    BlockStructure,
    BoxDirections,
    _box_block,
    _box_bounds,
    _box_from_supports,
    approximate,
    decompose,
    overapproximate_box,
)
from .discretize import DENSE, DiscreteSystem, _step_set
from .errors import (
    DimensionError,
    EngineError,
    InputError,
    InvalidSetError,
    NonFiniteError,
)
from .linalg import BlockMatrix, MatrixPowerState
from .sets import (
    CartesianProduct,
    HPolygon,
    Hyperrectangle,
    LinearMap,
    MinkowskiSum,
    Singleton,
    _Matrix,
    minkowski_sum_all,
    zero_set,
)

__all__ = [
    "ReachTube",
    "SetTube",
    "BoxTube",
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


class ReachTube:
    """Per-step, per-block reach sets of a decomposed recurrence over the
    tracked blocks, step by step; ``SetTube`` and ``BoxTube`` hold them."""

    def __init__(self, delta, model, bs, tracked):
        self.delta = delta
        self.model = model
        self.bs = bs
        self.tracked = tuple(tracked)

    def time_interval(self, k):
        """Time span covered by step k: an interval for the dense-time
        model, a point for the discrete-time model."""
        if self.model == DENSE:
            return (k * self.delta, (k + 1) * self.delta)
        return (k * self.delta, k * self.delta)

    @property
    def n_steps(self):
        raise NotImplementedError

    def set_at(self, k, block):
        """The set of block ``block`` at step k."""
        raise NotImplementedError

    def polygons(self):
        """(k, block, polygon) for every polygon-valued set, step by step."""
        raise NotImplementedError

    def relabeled(self, bs, blocks):
        """This tube under the block structure ``bs`` of a larger system,
        in which block p of this tube is block ``blocks[p]``."""
        raise NotImplementedError

    def box_hull(self, k, block):
        return overapproximate_box(self.set_at(k, block))

    def box_bounds(self):
        """{block: (centers, radii)}: the box hull of each step of every
        tracked block, as two (n_steps, block size) arrays."""
        out = {}
        for i in self.tracked:
            hulls = [self.box_hull(k, i) for k in range(self.n_steps)]
            out[i] = (np.array([h.center for h in hulls]),
                      np.array([h.radius for h in hulls]))
        return out

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
        return _block_support_sum(partial(self.set_at, k), self.tracked,
                                  self.bs, l)

    def support_batch(self, k, directions):
        """Supports as in ``support`` for each row of an (m, n) array."""
        L = self._checked_directions(directions, 2)
        return self._step_supports(k, self._direction_parts(L), len(L))

    def supports(self, directions):
        """``support_batch(k, directions)`` for k = 0, 1, ..., n_steps - 1
        in turn, with the directions checked once."""
        L = self._checked_directions(directions, 2)
        parts = self._direction_parts(L)
        for k in range(self.n_steps):
            yield self._step_supports(k, parts, len(L))

    def _direction_parts(self, L):
        """(block, rows, L_b, |L_b|) for each tracked block: ``rows`` marks
        the rows of L that are nonzero on the block (a zero slice
        contributes 0), and L_b holds their slices on it."""
        parts = []
        for i in self.tracked:
            sub = L[:, self.bs.slice(i)]
            rows = np.any(sub != 0.0, axis=1)
            if rows.any():
                sub = sub[rows]
                parts.append((i, rows, sub, np.abs(sub)))
        return parts

    def _block_supports(self, k, block, L_b, L_b_abs):
        """The supports of the set of ``block`` at step k in the rows of
        L_b (``_direction_parts``)."""
        raise NotImplementedError

    def _step_supports(self, k, parts, m):
        total = np.zeros(m)
        for i, rows, sub, sub_abs in parts:
            total[rows] += self._block_supports(k, i, sub, sub_abs)
        return total


class SetTube(ReachTube):
    """A reach tube holding its sets: ``steps[k][i]`` is block i at step k."""

    def __init__(self, delta, model, bs, tracked, steps):
        super().__init__(delta, model, bs, tracked)
        self.steps = steps

    @property
    def n_steps(self):
        return len(self.steps)

    def set_at(self, k, block):
        return self.steps[k][block]

    def polygons(self):
        return ((k, i, step[i]) for k, step in enumerate(self.steps)
                for i in self.tracked if isinstance(step[i], HPolygon))

    def relabeled(self, bs, blocks):
        return SetTube(self.delta, self.model, bs,
                       [blocks[p] for p in self.tracked],
                       [{blocks[p]: s for p, s in step.items()}
                        for step in self.steps])

    def _block_supports(self, k, block, L_b, _L_b_abs):
        return self.steps[k][block].support_batch(L_b)


class BoxTube(ReachTube):
    """A collapsed box-scheme tube, held as arrays.

    Row k of ``centers`` and of ``radii`` holds the box of step k over the
    rows of the tracked blocks, block after block.  Step 0 of a run from a
    point (``point0``) is that point.  A block's set is built, once, only
    when it is asked for.
    """

    def __init__(self, delta, model, bs, tracked, centers, radii, point0):
        super().__init__(delta, model, bs, tracked)
        self.centers, self.radii, self.point0 = centers, radii, point0
        rows = BlockStructure(centers.shape[1])
        self._slices = {i: rows.slice(p) for p, i in enumerate(self.tracked)}
        self._sets = {}

    @property
    def n_steps(self):
        return self.centers.shape[0]

    def set_at(self, k, block):
        k = range(self.n_steps)[k]
        key = (k, block)
        if key not in self._sets:
            s = self._slices[block]
            self._sets[key] = (Singleton(self.centers[0, s])
                               if k == 0 and self.point0 else
                               Hyperrectangle(self.centers[k, s], self.radii[k, s]))
        return self._sets[key]

    def box_bounds(self):
        return {i: (self.centers[:, s], self.radii[:, s])
                for i, s in self._slices.items()}

    def polygons(self):
        return iter(())

    def relabeled(self, bs, blocks):
        return BoxTube(self.delta, self.model, bs,
                       [blocks[p] for p in self.tracked], self.centers,
                       self.radii, self.point0)

    def _block_supports(self, k, block, L_b, L_b_abs):
        # Hyperrectangle._rho_batch on the rows of the arrays
        s = self._slices[block]
        return L_b @ self.centers[k, s] + L_b_abs @ self.radii[k, s]


def _block_support_sum(set_of, blocks, bs, d):
    """Support in the full-dimensional direction d of the product of the
    sets ``set_of(i)`` of ``blocks``, with d zero outside them: the sum of
    the block supports in the slices of d (a zero slice contributes 0)."""
    total = 0.0
    for i in blocks:
        di = d[bs.slice(i)]
        if np.any(di != 0.0):
            total += set_of(i).support_function(di)
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


def _joined(arrays):
    """The arrays, one after another (the array itself when there is one)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stacked(per_block):
    """The arrays of {block: array}, one after another."""
    return _joined(tuple(per_block.values()))


def _row_image_box(R, V):
    """(center, radius) of the box hull of the image of V under the rows
    held by R, block after block.  Each block's box comes from its own
    rows (see ``BlockRows.dot``): for a set V that is not a box or a point,
    from the axis-support walk of ``overapproximate_box(LinearMap(R_i,
    V))``, checked once for all blocks."""
    if isinstance(V, Hyperrectangle):
        return _stacked(R.dot(V.center)), _stacked(R.abs().dot(V.radius))
    if isinstance(V, Singleton):
        c = _stacked(R.dot(V.point))
        return c, np.zeros_like(c)
    walks = [V._axis_supports(_Matrix(R.dense_row_block(i))) for i in R.blocks]
    try:
        return _box_from_supports(_joined([h for h, _ in walks]),
                                  _joined([nl for _, nl in walks]))
    except EngineError:
        for walk in walks:   # the error of the first block, as block by block
            _box_from_supports(*walk)
        raise


def _box_inputs(sys, bs, blocks):
    """Input accumulation of the box scheme in closed form, as a function
    of (k, P) -- P holding the rows of Phi^(k-1) -- that returns the
    accumulated input box (center, radius) at step k over the rows of
    ``blocks``, block after block.

    A constant input adds the box hull of Phi^(k-1) V.  An input sequence
    is carried in full dimension, w <- Phi w + V(k-1), with |Phi| acting on
    the radii and V(k-1) replaced by its box hull."""
    if sys.constant_input:
        acc_c = acc_r = np.zeros(bs.coords(blocks).size)

        def step(_k, P):
            nonlocal acc_c, acc_r
            c, r = _row_image_box(P, sys.v)
            acc_c, acc_r = acc_c + c, acc_r + r
            return acc_c, acc_r
        return step

    w_c, w_r = np.zeros(bs.n), np.zeros(bs.n)
    phi_abs = sys.phi.abs()
    cols = bs.coords(blocks)

    def step(k, _P):
        nonlocal w_c, w_r
        v_c, v_r = _box_bounds(sys.v_at(k - 1))
        w_c = sys.phi @ w_c + v_c
        w_r = phi_abs @ w_r + v_r
        return w_c[cols], w_r[cols]
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


def _box_start(sys):
    """The initial set of the box scheme: the initial point, or the box of
    the initial set."""
    x = sys.x_init
    return x if isinstance(x, Singleton) else overapproximate_box(x)


def _box_rows(sys, N, bs, blocks):
    """The collapsed box scheme over the row blocks ``blocks``: the
    (N, rows) arrays of the centers and the radii of steps 0..N-1, read
    only, and whether step 0 is a point.

    Step k is the box hull of Phi^k X0 plus the accumulated inputs
    (``_box_inputs``), for the box (or point) X0 of the initial set: its
    center is R c + input center and its radius |R| r + input radius, with
    R the rows of Phi^k in ``blocks``.  Each row is checked as it is
    written: its parts are sums of products of finite data, and of
    nonnegative ones for the radius, so a non-finite entry is an overflow
    (the tube builders run with numpy's overflow warnings off)."""
    x = _box_start(sys)
    point0 = isinstance(x, Singleton)
    c0, r0 = (x.point, np.zeros(bs.n)) if point0 else (x.center, x.radius)
    cols = bs.coords(blocks)
    centers, radii = np.empty((N, cols.size)), np.empty((N, cols.size))
    centers[0], radii[0] = c0[cols], r0[cols]
    if N > 1:
        inputs = _box_inputs(sys, bs, blocks)
        power = MatrixPowerState(sys.phi, blocks)
        for k in range(1, N):
            w_c, w_r = inputs(k, power.P)
            c, r = centers[k], radii[k]
            np.add(_stacked(power.Q.dot(c0)), w_c, out=c)
            np.add(_stacked(power.Q.abs().dot(r0)), w_r, out=r)
            if not (np.isfinite(c).all() and np.isfinite(r).all()):
                raise NonFiniteError(f"the box of step {k} overflowed",
                                     module="reach")
            power.advance()
    centers.setflags(write=False)
    radii.setflags(write=False)
    return centers, radii, point0


def _steps(sys, N, bs, blocks, scheme, collapse=True, fast=None):
    """Yield {block: set} for the steps k = 0..N-1 of the recurrence, for
    the row blocks ``blocks``, as lazy sets or, with ``collapse``,
    collapsed through ``scheme``; the collapsed box scheme is
    ``_box_rows``.

    Step k is Phi^k applied to the decomposed initial blocks plus the
    accumulated inputs, and only the rows of Phi^k and Phi^(k-1) in
    ``blocks`` are carried.  Under the box scheme the initial blocks are
    boxes or points and, unless ``fast`` is False, the inputs accumulate
    in closed form (``_box_inputs``).  Otherwise the inputs are collapsed
    through ``scheme`` every step (``_set_inputs``).  A lazy step of
    block i is the image R_i X0 of the whole decomposed initial set X0 --
    one box under the box scheme, the product of the blocks otherwise --
    under the block's rows R_i of Phi^k, plus its input accumulation: a
    support query is one product R_i^T d and one query on X0.  In the
    closed form X0 is the box (or point) of the initial set, and only the
    step-0 sets of ``blocks`` are sliced from it.
    """
    box = fast is not False and isinstance(scheme, BoxDirections)
    if box:
        x = _box_start(sys)
        yield {i: _box_block(x, bs, i) for i in blocks}
    else:
        blocks0 = decompose(sys.x_init, bs, scheme)
        yield {i: blocks0[i] for i in blocks}
    if N == 1:
        return
    if box:
        X0 = (Hyperrectangle(x.point, np.zeros(bs.n)) if isinstance(x, Singleton)
              else x)
        inputs = _box_inputs(sys, bs, blocks)
        rows = BlockStructure(bs.coords(blocks).size)
    else:
        X0 = CartesianProduct(blocks0)
        inputs = _set_inputs(sys, bs, blocks, scheme)
    power = MatrixPowerState(sys.phi, blocks)
    for k in range(1, N):
        W = inputs(k, power.P)
        out = {}
        for p, i in enumerate(blocks):
            Wi = (_input_box(k, W[0][rows.slice(p)], W[1][rows.slice(p)])
                  if box else W[i])
            combined = MinkowskiSum(LinearMap(power.Q.dense_row_block(i), X0), Wi)
            out[i] = approximate(combined, scheme) if collapse else combined
        yield out
        power.advance()


def _input_box(k, center, radius):
    """The accumulated input box (center, radius) of step k of the box
    scheme.  Its parts are sums of products of finite data, so a non-finite
    one is an overflow: the tube builders run with numpy's overflow
    warnings off, and this error reports it instead."""
    try:
        return Hyperrectangle(center, radius)
    except InvalidSetError:
        raise NonFiniteError(f"the box of step {k} overflowed",
                             module="reach") from None


def _reach(sys, N, bs, tracked, scheme, lazy, fast):
    N, bs, tracked = _checked_run(sys, N, bs, tracked)
    with np.errstate(over="ignore", invalid="ignore"):     # see _box_rows
        if not lazy and fast is not False and isinstance(scheme, BoxDirections):
            return BoxTube(sys.delta, sys.model, bs, tracked,
                           *_box_rows(sys, N, bs, tracked))
        steps = list(_steps(sys, N, bs, tracked, scheme, not lazy, fast))
    return SetTube(sys.delta, sys.model, bs, tracked, steps)


def reach_decomposed(sys: DiscreteSystem, N, bs=None, tracked=None,
                     scheme=BoxDirections(), lazy=False, fast=None):
    """Reach tube of a constant-input recurrence over N steps.

    Step k is built from Phi^k applied to the decomposed initial blocks
    plus an input accumulation collapsed through ``scheme`` each step.
    With ``lazy`` the per-step state combination is kept symbolic (the
    input accumulation is still collapsed), which is what the safety
    checker evaluates.  A collapsed box-scheme run is a ``BoxTube``.
    """
    if not sys.constant_input:
        raise InputError("reach_decomposed expects a constant input set; "
                         "use reach_decomposed_varying for sequences",
                         module="reach")
    return _reach(sys, N, bs, tracked, scheme, lazy, fast)


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
    return _reach(sys, N, bs, tracked, scheme, lazy, fast)


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
            val = _block_support_sum(sets.__getitem__, needed, bs,
                                     state_dirs[id(a)])
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
            return [tube.set_at(k, i) for k in range(tube.n_steps)]

    order = sorted(tube.tracked)
    M_sub = M[:, tube.bs.coords(order)]
    out = []
    for k in range(tube.n_steps):
        prod = CartesianProduct([tube.set_at(k, i) for i in order])
        out.append(approximate(LinearMap(M_sub, prod), scheme))
    return out
