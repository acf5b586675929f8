"""Decomposed reach tubes, safety checking, and output projection.

The recurrence X(k+1) = Phi X(k) + V(k) is evaluated block-wise: the
initial set is decomposed into two-dimensional blocks once, and step k is
assembled from the powers Phi^k applied to those blocks plus an input
accumulation, in closed form under the box scheme (``_box_steps``) and
collapsed to a concrete low-dimensional set every step otherwise
(``_steps``).  Computed step sets are never fed back into the recurrence,
so approximation errors do not compound (no wrapping effect) for constant
inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .approx import (
    BlockStructure,
    BoxDirections,
    _approximate_all,
    _box_bounds,
    _box_bounds_rows,
    _polygon_box_rows,
    approximate,
    decompose,
    overapproximate_box,
)
from .discretize import DENSE, DiscreteSystem, _step_set
from .errors import DimensionError, EngineError, InputError, NonFiniteError
from .linalg import (
    _CHUNK_ENTRIES,
    BlockMatrix,
    MatrixPowerState,
    _stacked,
    _unique,
    row_products,
)
from .sets import (
    CartesianProduct,
    HPolygon,
    Hyperrectangle,
    LinearMap,
    MinkowskiSum,
    Singleton,
    VertexImageSum,
    _Matrix,
    _Polygons,
    vertex_table,
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
        return float(self.support_batch(k, l[None])[0])

    def support_batch(self, k, directions):
        """Supports as in ``support`` for each row of an (m, n) array."""
        L = self._checked_directions(directions, 2)
        return self._step_supports(k, _direction_parts(L, self.bs, self.tracked),
                                   len(L))

    def supports(self, directions):
        """``support_batch(k, directions)`` for k = 0, 1, ..., n_steps - 1
        in turn, with the directions checked once."""
        L = self._checked_directions(directions, 2)
        parts = _direction_parts(L, self.bs, self.tracked)
        for k in range(self.n_steps):
            yield self._step_supports(k, parts, len(L))

    def _block_supports(self, k, block, L_b, L_b_abs):
        """The supports of the set of ``block`` at step k in the rows of
        L_b (``_direction_parts``)."""
        raise NotImplementedError

    def _step_supports(self, k, parts, m):
        return _support_sum(parts, m, lambda i, L_b, L_b_abs:
                            self._block_supports(k, i, L_b, L_b_abs))


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

    def box_bounds(self):
        """As ``ReachTube.box_bounds``, with the hulls of a block's
        polygons from one query of them all in +-e_i
        (``_polygon_box_rows``), bitwise each step's ``box_hull``.  The
        other steps, and all the steps of a block for which that query
        declines, take their own hull, in turn, so an error is the one of
        the first step that raises it."""
        out = {}
        for i in self.tracked:
            sets = [step[i] for step in self.steps]
            ks = [k for k, X in enumerate(sets) if isinstance(X, HPolygon)]
            rows = _polygon_box_rows([sets[k] for k in ks]) if ks else None
            hulls = {} if rows is None else dict(zip(ks, zip(*rows)))
            bounds = [hulls[k] if k in hulls else _box_bounds(X)
                      for k, X in enumerate(sets)]
            out[i] = (np.array([c for c, _ in bounds]), np.array([r for _, r in bounds]))
        return out

    def supports(self, directions):
        """As ``ReachTube.supports``, with the polygons of each block
        queried for all their steps at once (``_Polygons.supports``),
        bitwise each one's batch query.  A step whose rows meet a
        near-parallel vertex pair, which a query solves again, takes its
        own batch query instead, so it raises what that query raises, in
        step order."""
        L = self._checked_directions(directions, 2)
        parts = _direction_parts(L, self.bs, self.tracked)
        found = {}
        for i, _, L_b, _ in parts:
            ks = [k for k, step in enumerate(self.steps) if isinstance(step[i], HPolygon)]
            if ks:
                vals, _, plain = _Polygons([self.steps[k][i] for k in ks]).supports(
                    np.repeat(np.arange(len(ks)), len(L_b)), np.tile(L_b, (len(ks), 1)))
                plain = plain.reshape(len(ks), -1).all(axis=1)
                found[i] = {k: v for k, v, ok in zip(ks, vals.reshape(len(ks), -1), plain)
                            if ok}
        for k, step in enumerate(self.steps):
            yield _support_sum(parts, len(L), lambda i, L_b, _abs: (
                found[i][k] if k in found.get(i, ()) else step[i].support_batch(L_b)))


class BoxTube(ReachTube):
    """A box-scheme tube, held as arrays.

    Row k of ``centers`` and of ``radii`` is the box of step k over the
    rows of the tracked blocks, block after block; row 0 is the initial
    box, or point (``point0``).  Supports are read from the arrays; a
    block's set is built, once, only when it is asked for.
    """

    def __init__(self, delta, model, bs, tracked, centers, radii, point0):
        super().__init__(delta, model, bs, tracked)
        self.centers, self.radii, self.point0 = centers, radii, point0
        self._slices = bs.row_slices(self.tracked)
        self._sets = {}

    @property
    def n_steps(self):
        return self.centers.shape[0]

    def set_at(self, k, block):
        k = range(self.n_steps)[k]
        key = (k, block)
        if key not in self._sets:
            s = self._slices[block]
            self._sets[key] = (
                Singleton(self.centers[0, s]) if k == 0 and self.point0 else
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
        s = self._slices[block]
        return _box_supports(L_b, L_b_abs, self.centers[k, s], self.radii[k, s])


def _direction_parts(L, bs, blocks):
    """(block, rows, L_b, |L_b|) for each of ``blocks`` that some row of L
    reads: ``rows`` marks the rows of L that are nonzero on the block (a
    zero slice contributes 0), and L_b holds their slices on it."""
    parts = []
    for i in blocks:
        sub = L[:, bs.slice(i)]
        rows = np.any(sub != 0.0, axis=1)
        if rows.any():
            sub = sub[rows]
            parts.append((i, rows, sub, np.abs(sub)))
    return parts


def _support_sum(parts, m, block_supports):
    """The supports in the m rows of L of a step, summed block after block
    over the ``parts`` of L: ``block_supports(block, L_b, |L_b|)``."""
    total = np.zeros(m)
    for i, rows, sub, sub_abs in parts:
        total[rows] += block_supports(i, sub, sub_abs)
    return total


def _box_supports(L_b, L_b_abs, c, r):
    """The supports in the rows of L_b of the box (c, r) of a block."""
    return L_b @ c + L_b_abs @ r


# ----------------------------------------------------------------------
# the decomposed recurrence
# ----------------------------------------------------------------------

def _checked_run(sys, N, tracked=None):
    """(N, bs, tracked) of a run, checked against the system: at least one
    step, known tracked blocks (all when None) of the system's block
    structure bs, and an input sequence covering every step."""
    N = int(N)
    if N < 1:
        raise InputError(f"step count must be at least 1, got {N}", module="reach")
    bs = BlockStructure(sys.n)
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


def _row_image_box(R, V):
    """(center, radius) of the box hull of the image of V under the rows
    of the array R, by ``row_products`` for a box or a point and
    otherwise from one axis-support walk of V under R: each row's bounds
    are then the same whatever other rows R holds.  An entry that
    overflows is left non-finite, for the check of the step that takes it
    (``_box_tube``, ``_lazy_supports``)."""
    if isinstance(V, Hyperrectangle):
        return row_products(R, V.center), row_products(np.abs(R), V.radius)
    if isinstance(V, Singleton):
        c = row_products(R, V.point)
        return c, np.zeros_like(c)
    hi, nlo = V._axis_supports(_Matrix(R))
    return (hi - nlo) / 2.0, (hi + nlo) / 2.0


def _set_inputs(sys, bs, blocks, scheme):
    """Input accumulation collapsed through ``scheme``, as a function of
    (k, P) -- P the rows of Phi^(k-1) in ``blocks``, stacked as
    ``BlockStructure.row_slices`` places them -- that returns the
    accumulated input set of each block at step k.

    A constant input adds Phi^(k-1) V to each block and collapses the sum.
    An input sequence cannot be kept apart from the dynamics: it is
    propagated through the nonzero blocks of Phi (sliced once) for all
    blocks, W_j <- collapse(sum_jj Phi[j, jj] W_jj + V_j(k-1)), and
    therefore wraps.  The sum is a ``VertexImageSum`` of the vertices of
    the collapsed W_jj under Phi[j, jj] and of the decomposed V_j(k-1)
    under the identity."""
    if sys.constant_input:
        W = {i: zero_set(bs.size(i)) for i in blocks}
        rows = bs.row_slices(blocks)

        def step(_k, P):
            for i, s in rows.items():
                W[i] = approximate(MinkowskiSum(W[i], LinearMap(P[s], sys.v)),
                                   scheme)
            return W
        return step

    W = [zero_set(bs.size(j)) for j in range(bs.b)]
    phi = sys.phi
    phi_blocks = [[(jj, phi.block(j, jj)) for jj in phi.nonzero_col_blocks(j)]
                  for j in range(bs.b)]
    eye = [np.eye(bs.size(j)) for j in range(bs.b)]

    def step(k, _P):
        nonlocal W
        vhat = decompose(sys.v_at(k - 1), bs, scheme)
        W = [approximate(VertexImageSum.of_maps(
                 [(M, W[jj]) for jj, M in row] + [(eye[j], vhat[j])]), scheme)
             for j, row in enumerate(phi_blocks)]
        return W
    return step


def _input_boxes(sys, steps):
    """(V_c, V_r, error): the box hulls of the input sets V(j - 1) of the
    consecutive ``steps`` j of a sequence, one row per step, from one
    ``_box_bounds_rows`` call, for the steps before the first whose set
    fails or is missing from a short sequence; ``error`` is what that
    step raises (``DiscreteSystem.v_at``), or None."""
    held = sys.v[steps[0] - 1:steps[-1]]
    V_c, V_r, error = _box_bounds_rows(held)
    if error is None and len(held) < len(steps):
        try:
            sys.v_at(steps[len(held)] - 1)
        except EngineError as exc:
            error = exc
    return V_c, V_r, error


def _box_start(sys):
    """(x, x0): the initial point or the box of the initial set, and x0,
    that box or the point as a box of radius 0."""
    x = sys.x_init
    if isinstance(x, Singleton):
        return x, Hyperrectangle(x.point, np.zeros(x.dim))
    box = overapproximate_box(x)
    return box, box


def _box_steps(sys, N, bs, blocks):
    """The loop of the box scheme over the row blocks ``blocks``, a chunk
    of steps at a time: yield (k, R, w_c, w_r) for consecutive chunks of
    the steps 1..N-1, with k the chunk's first step, R an (m, rows, n)
    array whose entry j holds the rows of Phi^(k+j) in ``blocks``, block
    after block, and w_c, w_r (m, rows) arrays whose row j is the
    accumulated input box of step k+j over them.  Step k+j is R[j] x0 plus
    that box, for the box (or point) x0 of the initial set
    (``_box_start``).

    Only the recurrences run step by step: the power advance and, for an
    input sequence, w <- Phi w + V(k-1), carried in full dimension with
    |Phi| acting on the radii and V(k-1) replaced by its box hull.  The
    box hulls of a chunk's input sets come from one ``_box_bounds_rows``
    call: for the maps of boxes by Phi1 (or Phi1 B) that
    ``discretize_discrete`` builds, two stacked products, bitwise the hull
    of each set.  A
    constant input adds the box hull of Phi^(k-1) V: one
    ``_row_image_box`` call over the chunk's stacked rows of Phi^(k-1),
    then a running sum from the last box of the previous chunk, the
    additions of w <- w + c in the same order.  Chunks hold 1, 2, 4, ...
    steps, at most ``_CHUNK_ENTRIES`` entries of R but never fewer than
    one step, so a consumer that stops at step k has formed at most about
    2k powers, and the input hulls held are bounded by the chunk too.  A
    power that overflows is yielded as it is, for the consumer's check of
    the steps that read it.  An error in forming a step's input (a set
    whose hull fails, or a sequence too short for the step) ends the
    chunk: the steps before it are yielded, and the error is raised when
    the next chunk is asked for, after the consumer has checked them."""
    if N == 1:
        return
    power = MatrixPowerState(sys.phi, blocks)
    constant = sys.constant_input
    w_c = w_r = np.zeros(bs.coords(blocks).size if constant else bs.n)
    cols = slice(None) if constant else bs.coords(blocks)
    phi_abs = None if constant else sys.phi.abs()
    cap = max(1, _CHUNK_ENTRIES // power.Q.data.size)
    k, size = 1, 1
    while k < N:
        prev, Q, W_c, W_r, error = power.P.data, [], [], [], None
        steps = range(k, min(k + size, N))
        if not constant:
            V_c, V_r, error = _input_boxes(sys, steps)
            steps = steps[:len(V_c)]
        for j in steps:
            if not constant:
                w_c = sys.phi @ w_c + V_c[j - k]
                w_r = phi_abs @ w_r + V_r[j - k]
                W_c.append(w_c[cols])
                W_r.append(w_r[cols])
            Q.append(power.Q.data)
            power.advance()
        if Q:
            R = _stacked(Q)
            if constant:
                m, rows, n = R.shape
                c, r = _row_image_box(_stacked([prev] + Q[:-1]).reshape(-1, n),
                                      sys.v)
                W_c = np.add.accumulate(
                    np.concatenate([w_c[None], c.reshape(m, rows)]))[1:]
                W_r = np.add.accumulate(
                    np.concatenate([w_r[None], r.reshape(m, rows)]))[1:]
                w_c, w_r = W_c[-1], W_r[-1]
            else:
                W_c, W_r = _stacked(W_c), _stacked(W_r)
            yield k, R, W_c, W_r
        if error is not None:
            raise error
        k += len(Q)
        size = min(2 * size, cap)


def _box_tube(sys, N, bs, tracked):
    """The ``BoxTube`` of the box scheme over the tracked blocks.

    Row k is the box hull of step k of ``_box_steps``, center R c0 + w_c
    and radius |R| r0 + w_r for x0 = (c0, r0), written a chunk of steps
    at a time from one ``row_products`` over the chunk's stacked rows.
    Each chunk is checked as it is written, and the first non-finite step
    named: its parts are sums of products of finite data, and of
    nonnegative ones for the radius, so a non-finite entry is an overflow
    (the tube builders run with numpy's overflow warnings off)."""
    x, x0 = _box_start(sys)
    cols = bs.coords(tracked)
    centers, radii = np.empty((N, cols.size)), np.empty((N, cols.size))
    centers[0], radii[0] = x0.center[cols], x0.radius[cols]
    for k, R, w_c, w_r in _box_steps(sys, N, bs, tracked):
        m = len(R)
        R = R.reshape(-1, R.shape[2])
        c, r = centers[k:k + m], radii[k:k + m]
        np.add(row_products(R, x0.center).reshape(m, -1), w_c, out=c)
        np.add(row_products(np.abs(R), x0.radius).reshape(m, -1), w_r, out=r)
        bad = ~(np.isfinite(c).all(axis=1) & np.isfinite(r).all(axis=1))
        if bad.any():
            raise NonFiniteError(f"the box of step {k + int(bad.argmax())} "
                                 "overflowed", module="reach")
    centers.setflags(write=False)
    radii.setflags(write=False)
    return BoxTube(sys.delta, sys.model, bs, tracked, centers, radii,
                   isinstance(x, Singleton))


def _steps(sys, N, bs, blocks, scheme):
    """The set engine, for any scheme (the box scheme has ``_box_steps``):
    yield {block: set} for the steps k = 0..N-1 of the recurrence, for the
    row blocks ``blocks``: step 0 the decomposed initial blocks, and every
    later step lazy, for the tube to collapse (``_reach``) or the checker
    to query (``_lazy_supports``).

    Step k is Phi^k applied to the decomposed initial blocks plus the
    inputs, accumulated and collapsed through ``scheme`` every step
    (``_set_inputs``); only the rows of Phi^k and Phi^(k-1) in ``blocks``
    are carried.  A lazy step of block i is M + W: M = R_i X0, for the
    product X0 of the decomposed initial blocks and the block's rows R_i
    of Phi^k, and W its input accumulation.  M is the sum over the blocks
    j of X0 of their vertex images under the 2 x 2 blocks of R_i, formed
    in one product from the vertex table of X0, built once per run
    (``VertexImageSum``): a support query is one product with these
    points and a maximum per block, with no search.
    """
    blocks0 = decompose(sys.x_init, bs, scheme)
    yield {i: blocks0[i] for i in blocks}
    if N == 1:
        return
    table = vertex_table(blocks0)
    inputs = _set_inputs(sys, bs, blocks, scheme)
    rows = bs.row_slices(blocks)
    power = MatrixPowerState(sys.phi, blocks)
    for k in range(1, N):
        W = inputs(k, power.P.data)
        yield {i: MinkowskiSum(VertexImageSum.of_columns(table, power.Q.data[s]), W[i])
               for i, s in rows.items()}
        power.advance()


def _step_chunks(steps):
    """Lists of consecutive lazy steps of ``_steps``, each of as many steps
    as fit in ``_CHUNK_ENTRIES`` entries of image points, and never fewer
    than one.  An error in forming a step ends its chunk: the steps
    before it are yielded, and the error is raised when the next chunk is
    asked for, so that a consumer meets errors in step order."""
    chunk, error = [], None
    try:
        for step in steps:
            chunk.append(step)
            entries = sum(X.left._points.size for X in chunk[0].values())
            if (len(chunk) + 1) * entries > _CHUNK_ENTRIES:
                yield chunk
                chunk = []
    except EngineError as exc:
        error = exc
    if chunk:
        yield chunk
    if error is not None:
        raise error


def _reach(sys, N, tracked, scheme):
    """The tube of a run: the box engine's arrays under the box scheme
    (``_box_tube``); otherwise the set engine's steps, each lazy step
    collapsed through ``scheme``, a chunk of steps at a time
    (``_step_chunks``), by one call for all the blocks of the chunk's
    steps (``approx._approximate_all``), which refines the planar ones
    of the ε-close scheme in one breadth-first walk.  The steps, their
    sets and their errors, in step order, are those of collapsing each
    set in turn."""
    N, bs, tracked = _checked_run(sys, N, tracked)
    with np.errstate(over="ignore", invalid="ignore"):     # see _box_tube
        if isinstance(scheme, BoxDirections):
            return _box_tube(sys, N, bs, tracked)
        lazy = _steps(sys, N, bs, tracked, scheme)
        steps = [next(lazy)]
        for chunk in _step_chunks(lazy):
            done = iter(_approximate_all([X for step in chunk for X in step.values()],
                                         scheme))
            steps += [{i: next(done) for i in step} for step in chunk]
    return SetTube(sys.delta, sys.model, bs, tracked, steps)


def reach_decomposed(sys: DiscreteSystem, N, tracked=None,
                     scheme=BoxDirections()):
    """Reach tube of a constant-input recurrence over N steps.

    Step k is built from Phi^k applied to the decomposed initial blocks
    plus an input accumulation: a box in closed form under the box scheme
    (a ``BoxTube``), collapsed through ``scheme`` each step otherwise.  A
    tube holds collapsed steps; the safety checker and ``bounds`` read the
    uncollapsed steps as a stream of supports instead (``_lazy_supports``).
    """
    if not sys.constant_input:
        raise InputError("reach_decomposed expects a constant input set; "
                         "use reach_decomposed_varying for sequences",
                         module="reach")
    return _reach(sys, N, tracked, scheme)


def reach_decomposed_varying(sys: DiscreteSystem, N, tracked=None,
                             scheme=BoxDirections()):
    """Reach tube for a per-step input sequence.

    The input accumulation cannot be kept separate here: it is propagated
    through Phi every step (and therefore wraps) -- under the box scheme
    as one full-dimensional box, w <- Phi w + box(V(k)), otherwise through
    the block rows of Phi with the per-step input sets decomposed on the
    fly.  All blocks of the accumulation are maintained even when only a
    subset is tracked.  The box scheme takes the hulls box(V(k)) a chunk
    of steps at a time, from one batched call per chunk
    (``_box_bounds_rows``), bitwise the hull of each set.
    """
    if sys.constant_input:
        raise InputError("reach_decomposed_varying expects an input sequence; "
                         "use reach_decomposed for constant inputs", module="reach")
    return _reach(sys, N, tracked, scheme)


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
        if not (np.isfinite(c).all() and np.isfinite(self.bound)):
            raise InputError("Atom: coefficients and bound must be finite",
                             module="reach")
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
    """The directions over the state of the atoms of ``prop``, one row per
    atom: the coefficients pulled back through the output matrix C, or
    taken as they are when y = x."""
    C = _as_matrix(prop.C)
    size, what = (bs.n, "state") if C is None else (C.shape[0], "output")
    rows = []
    for a in prop.atoms():
        if a.coeffs.shape[0] != size:
            raise DimensionError(f"atom has {a.coeffs.shape[0]} coefficients, "
                                 f"{what} dimension is {size}", module="reach")
        rows.append(a.coeffs if C is None else
                    np.asarray(C.data.T @ a.coeffs, dtype=float).ravel())
    return np.array(rows)


def _blocks_read(L, bs):
    """The sorted blocks on which some row of L is nonzero."""
    return _unique(bs.block_of(np.flatnonzero(np.any(L != 0.0, axis=0)))).tolist()


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


def _finite_step(k, values):
    """The supports ``values`` of step k, checked to be finite."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"the support of step {k} overflowed", module="reach")
    return values


def _lazy_supports(sys, N, L, scheme=BoxDirections()):
    """Yield, for k = 0..N-1, the supports of lazy step k in the rows of the
    (m, n) array L, running the engine (``_box_steps`` or ``_steps``) only
    for the blocks that L reads.  Lazy step k of block i is R_i X0 plus its
    input accumulation, R_i the block's rows of Phi^k, uncollapsed: under
    the box scheme X0 is the box (or point) of the initial set and the
    accumulation a box, so a support is rho(R_i^T d, X0) plus that of the
    box; otherwise X0 is the product of the decomposed initial blocks, and
    a support is the sum over its blocks of the maxima of d over their
    vertex images under R_i (``VertexImageSum``), plus the support of the
    collapsed accumulation.  The box engine's chunks of steps are read one
    step at a time, with the supports of each step taken block by block.
    A support that is not finite is an overflow, and raises
    ``NonFiniteError``; the caller turns numpy's overflow warnings off."""
    bs = BlockStructure(sys.n)
    blocks = _blocks_read(L, bs)
    parts = _direction_parts(L, bs, blocks)
    m = len(L)
    if not blocks:
        yield from (np.zeros(m) for _ in range(N))
        return
    if not isinstance(scheme, BoxDirections):
        for k, sets in enumerate(_steps(sys, N, bs, blocks, scheme)):
            yield _finite_step(k, _support_sum(parts, m, lambda i, L_b, _:
                                               sets[i].support_batch(L_b)))
        return
    _, x0 = _box_start(sys)
    cols = bs.coords(blocks)
    local = bs.row_slices(blocks)
    first = (0, [None], x0.center[cols][None], x0.radius[cols][None])
    for k0, Rs, cs, rs in itertools.chain([first], _box_steps(sys, N, bs, blocks)):
        for k, R, c, r in zip(itertools.count(k0), Rs, cs, rs):
            def block_supports(i, L_b, L_b_abs):
                s = local[i]
                out = _box_supports(L_b, L_b_abs, c[s], r[s])
                if R is None:
                    return out
                M = L_b @ R[s]
                return _box_supports(M, np.abs(M), x0.center, x0.radius) + out
            yield _finite_step(k, _support_sum(parts, m, block_supports))


def check_property(sys: DiscreteSystem, prop: SafetyProperty, N,
                   scheme=BoxDirections()):
    """Certify a safety formula along the recurrence.

    The supports of all atoms are read at once from the lazy per-step sets
    (``_lazy_supports``), so only the blocks appearing in some atom
    direction are ever computed, and no tube is held.  Returns Verified, or
    Violated at the first step where certification fails (which is not a
    proven counterexample).  A support that is not finite is an overflow,
    and raises ``NonFiniteError``.
    """
    N, bs, _ = _checked_run(sys, N)
    atoms = prop.atoms()
    if not atoms:
        raise InputError("safety property has no atoms", module="reach")
    L = _state_directions(prop, bs)
    D = _as_matrix(prop.D)
    F = np.array([np.zeros(0) if D is None else
                  np.asarray(D.data.T @ a.coeffs, dtype=float).ravel() for a in atoms])
    feed = np.any(F != 0.0, axis=1)
    F = F[feed]
    if feed.any() and sys.u_sets is None:
        raise InputError("property uses feedthrough but the system "
                         "carries no input sets", module="reach")

    with np.errstate(over="ignore", invalid="ignore"):
        for k, values in enumerate(_lazy_supports(sys, N, L, scheme)):
            if feed.any():
                values[feed] += _step_set(sys.u_sets, k, "reach").support_batch(F)
                _finite_step(k, values)
            cert = {id(a): a.holds(v) for a, v in zip(atoms, values)}
            if not _formula_certified(prop.formula, cert):
                j = next(j for j, a in enumerate(atoms) if not cert[id(a)])
                return CheckResult(False, step=k, atom=atoms[j].describe(),
                                   value=float(values[j]))
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
    needed_blocks = _blocks_read(M, tube.bs)
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
