"""Reference computations and analytic error bounds.

Everything here exists to check the decomposed engine against something
independent: supports of the exact (non-decomposed) recurrence evaluated
lazily, sampled Hausdorff distances, a-priori bounds on the decomposition
error, and plain trajectory simulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .approx import BlockStructure
from .discretize import ContinuousSystem, DiscreteSystem, _step_set
from .errors import ContainmentError, DimensionError, InputError, NonFiniteError
from .linalg import _CHUNK_ENTRIES, BlockMatrix, _stacked
from .sets import (
    FactoredRows,
    Hyperrectangle,
    LinearMap,
    Singleton,
    _common_matrix,
    minkowski_sum_all,
    zero_set,
)

__all__ = [
    "sample_directions",
    "dual_exponent",
    "support_gaps",
    "hausdorff_estimate",
    "set_diameter",
    "reach_nondecomposed",
    "decomposed_image",
    "decomposed_map_error_bound",
    "DecompositionErrorReport",
    "make_error_report",
    "recurrence_error_bound",
    "recurrence_error_bound_uniform",
    "simulate",
    "support_membership",
]


# ----------------------------------------------------------------------
# direction sampling
# ----------------------------------------------------------------------

def sample_directions(dim, count, seed=0):
    """Unit (2-norm) directions covering the sphere.

    2D uses evenly spaced angles; higher dimensions use a scrambled
    low-discrepancy sequence pushed through the Gaussian quantile and
    normalized, which spreads points more evenly than i.i.d. sampling.
    """
    dim, count = int(dim), int(count)
    if dim < 1 or count < 1:
        raise InputError(f"need dim >= 1 and count >= 1, got {dim}, {count}",
                         module="oracle")
    if dim == 1:
        return np.array([[1.0], [-1.0]])[:count]
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # imported here: scipy.stats loads scipy.optimize and scipy.spatial,
    # which nothing else in the package needs
    from scipy.stats import norm as _gaussian
    from scipy.stats import qmc

    u = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
    g = _gaussian.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-12] = 1.0
    return g / norms[:, None]


def dual_exponent(p):
    """Exponent q with 1/p + 1/q = 1."""
    if p == np.inf:
        return 1.0
    p = float(p)
    if p < 1.0:
        raise InputError(f"norm exponent must be >= 1, got {p}", module="oracle")
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def _dual_normalize(directions, p):
    D = np.asarray(directions, dtype=float)
    if D.ndim != 2 or D.shape[0] == 0:
        raise InputError("need a nonempty 2D array of directions", module="oracle")
    q = dual_exponent(p)
    norms = np.linalg.norm(D, ord=q, axis=1)
    if np.any(norms < 1e-12):
        raise InputError("zero direction in sample", module="oracle")
    return D / norms[:, None]


# ----------------------------------------------------------------------
# sampled Hausdorff distance and diameters
# ----------------------------------------------------------------------

def _gap_rule(outer, inner):
    """(g, bad, i, allowance): the rule of ``support_gaps``, decided over
    the last axis of the equal-shape arrays ``outer`` and ``inner``.

    g = outer - inner, and allowance = 1e-9 * max(1, |outer|, |inner|).
    i is the index where g is lowest relative to the allowance, and
    ``bad`` whether some g is not finite or g at i lies below minus the
    allowance there; both drop the last axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = outer - inner
        allowance = 1e-9 * np.maximum(1.0, np.maximum(np.abs(outer), np.abs(inner)))
        i = np.argmin(g / allowance, axis=-1)[..., None]
        low = np.take_along_axis(g, i, -1) < -np.take_along_axis(allowance, i, -1)
    bad = ~np.isfinite(g).all(axis=-1) | low[..., 0]
    return g, bad, i[..., 0], allowance


def support_gaps(outer, inner, what, module):
    """The gaps g = outer - inner between the support values ``outer`` of
    a set and ``inner`` of a set it is to contain, two arrays over the
    same directions.

    A g that is not finite is an overflow, and raises ``NonFiniteError``
    ("<what> is not finite").  A g below -1e-9 * max(1, |outer|, |inner|)
    contradicts the containment beyond the rounding of values of that
    size, and raises ``ContainmentError`` for the direction where g is
    lowest relative to that allowance (``_gap_rule``).
    """
    g, bad, i, allowance = _gap_rule(outer, inner)
    if not bad:
        return g
    if not np.isfinite(g).all():
        raise NonFiniteError(f"{what} is not finite", module=module)
    i = int(i)
    raise ContainmentError(
        f"{what} is {g[i]:.3e} in direction {i}, below the rounding "
        f"allowance {-allowance[i]:.3e}", module=module)


def _first_failing_row(outer, inner):
    """The first row k of the (N, m) arrays of support values at which
    ``support_gaps(outer[k], inner[k], ...)`` raises, or N: the rule of
    ``_gap_rule``, decided for all rows at once."""
    bad = _gap_rule(outer, inner)[1]
    return int(bad.argmax()) if bad.any() else len(bad)


def hausdorff_estimate(X, Y, p=np.inf, directions=None, count=4096, seed=0):
    """Sampled p-norm Hausdorff distance between X and Y, assuming X is
    contained in Y.

    Maximizes rho_Y - rho_X over directions scaled to unit *dual* norm,
    which makes each sampled gap a valid lower bound of the distance; the
    estimate converges from below as directions densify.  A gap that is
    not finite is an overflow, and a gap below the rounding allowance of
    ``support_gaps`` contradicts the containment assumption; both raise.
    """
    if X.dim != Y.dim:
        raise DimensionError(f"sets have dimensions {X.dim} and {Y.dim}",
                             module="oracle")
    if directions is None:
        directions = sample_directions(X.dim, count, seed)
    D = _dual_normalize(directions, p)
    with np.errstate(over="ignore", invalid="ignore"):
        outer, inner = Y.support_batch(D), X.support_batch(D)
    gaps = support_gaps(outer, inner, "hausdorff_estimate: support gap", "oracle")
    return max(0.0, float(gaps.max()))


def set_diameter(X, p=np.inf, count=1024, seed=0):
    """Diameter of X in the p-norm.

    Exact for boxes and singletons; exact for p = inf generally (the
    widest axis width) and for p = 1 in low dimension (sign directions);
    otherwise a sampled lower bound that is tight in 2D.
    """
    if isinstance(X, Singleton):
        return 0.0
    if isinstance(X, Hyperrectangle):
        return 2.0 * float(np.linalg.norm(X.radius, ord=p))
    if p == np.inf:
        eye = np.eye(X.dim)
        widths = X.support_batch(eye) + X.support_batch(-eye)
        return float(widths.max())
    if p == 1.0 and X.dim <= 10:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=X.dim)))
        vals = X.support_batch(signs) + X.support_batch(-signs)
        return float(vals.max())
    D = _dual_normalize(sample_directions(X.dim, count, seed), p)
    vals = X.support_batch(D) + X.support_batch(-D)
    return float(vals.max())


# ----------------------------------------------------------------------
# exact recurrence supports (no decomposition, no collapse)
# ----------------------------------------------------------------------

def reach_nondecomposed(sys: DiscreteSystem, N, directions):
    """Supports of the exact recurrence sets, one row per step.

    Uses the closed form of step k -- the k-th matrix power applied to
    the initial set plus the accumulated inputs -- evaluated through
    transposed directions, so nothing is ever collapsed and the values
    carry no approximation error beyond floating point.

    With L_k = L Phi^k, step k is rho(L_k, X(0)) + sum over s < k of
    rho(L_{k-1-s}, V(s)).  The levels are formed a chunk at a time
    (``_level_chunks``), as many as fit in ``_CHUNK_ENTRIES`` entries of
    m x n levels, and X(0) is queried once per chunk over its stacked
    levels.  A constant input is queried once per chunk too, over the
    chunk's levels among L_0 .. L_{N-2}, and its terms are summed in a
    running sum carried from chunk to chunk.

    With a constant input, the recurrence runs on the rows it needs.
    When L reads only the columns C, L = D E with D = L[:, C] (m x |C|)
    and E the |C| unit rows of C, so L_k = D (E Phi^k).  If one product
    of the |C| rows E Phi^k by Phi and one expansion by D cost fewer flops
    than the product of the m rows, |C| (nnz(Phi) + m n) < m nnz(Phi)
    with nnz(Phi) = n^2 for a dense Phi, the recurrence advances the |C|
    rows and the sets are queried through ``LazySet.support_batch`` on
    the factors (D, R) of a chunk (``FactoredRows``): a ``LinearMap`` in
    X(0) or V maps the |C| rows by its matrix, and each chunk's expansion
    by D is formed once per map and shared by the operands of sums and
    hulls.  The levels then differ from the direct products by rounding
    only.  Otherwise, as for the L of ``bounds``, which reads every
    column, the m rows of L are advanced, and the sets are queried on the
    levels themselves.

    An input sequence advances the m rows of L and is queried once per
    set, V(s) over the levels L_0 .. L_{N-2-s} stacked, so a run makes
    N - 1 queries on the inputs and one on X(0) per chunk: 2N - 1 when
    every chunk holds one level.  When every V(s) is a ``LinearMap`` over
    one matrix object M (``sets._common_matrix``; ``discretize_discrete``
    builds them so), each chunk of levels is mapped once, L_k M, and the
    operands are queried on those rows, since rho(l, M U) = rho(l M, U).
    The queries read prefixes of one ``FactoredRows`` over all the held
    rows (``head``), so the absolute rows that box operands read are
    formed once, by the query of V(0).  Each step adds its terms in the
    order X(0), V(0), V(1), ..., as a sum of per-pair queries would; only
    a query over stacked rows may round a row differently in the last
    bit.
    """
    N = int(N)
    if N < 1:
        raise InputError(f"step count must be at least 1, got {N}", module="oracle")
    L = np.asarray(directions, dtype=float)
    if L.ndim != 2 or L.shape[0] == 0:
        raise InputError("need a nonempty 2D array of directions", module="oracle")
    if L.shape[1] != sys.n:
        raise DimensionError(f"directions have dimension {L.shape[1]}, "
                             f"state dimension is {sys.n}", module="oracle")
    if not np.all(np.isfinite(L)):
        raise InputError("directions must be finite", module="oracle")
    m, n = L.shape
    out = np.empty((N, m))
    D, start = None, L
    if sys.constant_input:
        acc = np.zeros((1, m))
        cols = _read_columns(sys.phi, L)
        if cols is not None:
            D, start = L[:, cols], np.zeros((len(cols), n))
            start[np.arange(len(cols)), cols] = 1.0
    else:
        seq = [sys.v_at(s) for s in range(N - 1)]
        shared = _common_matrix(seq)
        if shared is not None:
            seq = [V.operand for V in seq]
        p = n if shared is None else shared.M.shape[1]
        rows = np.empty((N - 1, m, p))
    size = max(1, _CHUNK_ENTRIES // (m * n))
    for k, R in _level_chunks(sys.phi, start, N, size):
        count = len(R) // len(start)
        levels = FactoredRows(D, R, count)
        out[k:k + count] = sys.x_init.support_batch(levels).reshape(count, m)
        h = min(count, N - 1 - k)   # the levels of L_0 .. L_{N-2}
        if sys.constant_input:
            if h:       # the input sums of steps k .. k + h
                acc = np.add.accumulate(np.concatenate(
                    [acc, sys.v.support_batch(levels.head(h)).reshape(-1, m)]))
            # step 0 is X(0) alone: adding the empty sum would turn -0.0
            # into 0.0
            first = 1 if k == 0 else 0
            out[k + first:k + count] += acc[first:count]
            acc = acc[-1:]
        elif h:
            held = R[:h * m]
            mapped = held if shared is None else shared.map_rows(held)
            rows[k:k + h] = mapped.reshape(-1, m, p)
    if sys.constant_input:
        return out
    levels = FactoredRows(None, rows.reshape(-1, p), N - 1)
    for s, V in enumerate(seq):
        out[s + 1:] += V.support_batch(levels.head(N - 1 - s)).reshape(-1, m)
    return out


def _read_columns(phi, L):
    """The columns C that the directions L read, when advancing their |C|
    unit rows and expanding them by L[:, C] costs fewer flops than
    advancing the m rows of L: |C| (nnz(Phi) + m n) < m nnz(Phi), with
    nnz(Phi) = n^2 for a dense Phi.  Else None."""
    m, n = L.shape
    cols = np.flatnonzero(L.any(axis=0))
    nnz = phi.data.nnz if phi.is_sparse else n * n
    return cols if 0 < len(cols) and len(cols) * (nnz + m * n) < m * nnz else None


def _level_chunks(phi, start, N, size):
    """Yield (k, levels) for consecutive chunks of ``size`` levels
    start Phi^k, k = 0 .. N - 1: ``levels`` holds the rows of the chunk's
    levels one level after another.  Each level is formed once from the
    one before it, and none past start Phi^(N-1)."""
    n = start.shape[1]
    level = start
    for k in range(0, N, size):
        chunk = [level]
        for _ in range(min(size, N - k) - 1):
            chunk.append(phi.left_product(chunk[-1]))
        if k + len(chunk) < N:
            level = phi.left_product(chunk[-1])
        yield k, _stacked(chunk).reshape(-1, n)


# ----------------------------------------------------------------------
# decomposition error bounds
# ----------------------------------------------------------------------

def _column_alphas(phi: BlockMatrix, bs: BlockStructure, p):
    """Per column block: (second-largest block norm, index of the largest,
    ties as ``argsort`` has them).  The p-norms of the occupied blocks of
    Phi are taken with one call per block shape; the others are 0."""
    if p not in (1.0, 2.0, np.inf):
        raise InputError(f"matrix norm only for p in {{1, 2, inf}}, got {p}",
                         module="oracle")
    keys, values = phi._block_table()[0], phi._block_values()
    rows, cols, last = keys // bs.b, keys % bs.b, bs.size(bs.b - 1)
    h, w = np.where(rows == bs.b - 1, last, 2), np.where(cols == bs.b - 1, last, 2)
    norms = np.zeros((bs.b, bs.b))          # norms[j, i]: block (i, j)
    for r, c in {(2, 2), (2, last), (last, 2), (last, last)}:
        at = (h == r) & (w == c)
        S = values[at, :r, :c]      # largest singular value, row or column sum
        norms[cols[at], rows[at]] = (
            np.linalg.norm(S, 2, axis=(1, 2)) if p == 2.0
            else np.abs(S).sum(axis=2 if p == np.inf else 1).max(axis=1))
    order = np.argsort(norms, axis=1)
    alphas = norms[np.arange(bs.b), order[:, -2]] if bs.b > 1 else np.zeros(1)
    return alphas, order[:, -1]


def decomposed_image(phi: BlockMatrix, blocks):
    """Lazy per-block image of a decomposed set: block row i maps to the
    Minkowski sum of the block entries applied to the source blocks."""
    bs = BlockStructure(phi.n)
    if len(blocks) != bs.b:
        raise DimensionError(f"{len(blocks)} blocks for a structure with {bs.b}",
                             module="oracle")
    out = []
    for i in range(bs.b):
        terms = [LinearMap(phi.block(i, j), blocks[j])
                 for j in phi.nonzero_col_blocks(i)]
        out.append(minkowski_sum_all(terms) if terms else zero_set(bs.size(i)))
    return out


def decomposed_map_error_bound(phi: BlockMatrix, blocks, eps_x=0.0, p=np.inf):
    """A-priori bound on the Hausdorff distance between the exact image of
    a set and the blockwise image of its decomposition.

    The cross-block contribution is (b - 1) * sum_j alpha_j * Delta_j with
    alpha_j the second-largest block norm in column j and Delta_j the
    block diameter; the decomposition error of the source adds the matrix
    norm times eps_x.
    """
    bs = BlockStructure(phi.n)
    if len(blocks) != bs.b:
        raise DimensionError(f"{len(blocks)} blocks for a structure with {bs.b}",
                             module="oracle")
    alphas, _ = _column_alphas(phi, bs, p)
    deltas = np.array([set_diameter(x, p) for x in blocks])
    return float((bs.b - 1) * np.dot(alphas, deltas) + phi.norm(p) * float(eps_x))


@dataclass(frozen=True)
class DecompositionErrorReport:
    """Inputs of the per-step decomposition error bound.

    Per column block j: ``alpha[j]`` is the second-largest block norm in
    that column, ``largest[j]`` the row index of the largest, ``delta_x``
    and ``delta_v`` the diameters of the decomposed initial and input
    blocks.  ``K`` and ``alpha_phi`` bound the matrix powers as
    norm(Phi^k) <= K * alpha_phi^k.  For dense-time systems the true decay
    is governed by the spectral abscissa of the drift matrix and its
    logarithmic norm; neither is computed here, and the always-valid
    choice K = 1, alpha_phi = norm(Phi) is the default.
    """

    alpha: np.ndarray
    largest: np.ndarray
    delta_x: np.ndarray
    delta_v: np.ndarray
    eps_x: float
    eps_v: float
    K: float
    alpha_phi: float
    p: float

    def __post_init__(self):
        for name in ("alpha", "delta_x", "delta_v"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(a)) or np.any(a < 0.0):
                raise InputError(f"report field {name} must be finite and "
                                 "nonnegative", module="oracle")
            object.__setattr__(self, name, a)
        if not (np.isfinite(self.K) and self.K > 0.0):
            raise InputError(f"growth constant K must be positive, got {self.K}",
                             module="oracle")
        if not (np.isfinite(self.alpha_phi) and self.alpha_phi >= 0.0):
            raise InputError(f"growth factor must be nonnegative, got "
                             f"{self.alpha_phi}", module="oracle")

    @property
    def b(self):
        return len(self.alpha)


def make_error_report(phi: BlockMatrix, x_blocks, v_blocks=None,
                      eps_x=0.0, eps_v=0.0, p=np.inf, K=1.0, alpha_phi=None):
    """Build the error-bound report from a transition matrix and the
    decomposed initial/input blocks; the growth factor defaults to the
    matrix p-norm (always a valid choice)."""
    bs = BlockStructure(phi.n)
    alphas, largest = _column_alphas(phi, bs, p)
    dx = np.array([set_diameter(x, p) for x in x_blocks])
    if v_blocks is None:
        dv = np.zeros(bs.b)
    else:
        dv = np.array([set_diameter(v, p) for v in v_blocks])
    if alpha_phi is None:
        alpha_phi = phi.norm(p)
    return DecompositionErrorReport(alphas, largest, dx, dv,
                                    float(eps_x), float(eps_v),
                                    float(K), float(alpha_phi), float(p))


def _geometric_tail(alpha, k):
    """sum_{s=1}^{k-1} alpha^s, with the removable singularity at 1.  The
    quotient, sum_{s=0}^{k-2} alpha^s, is formed before the product, so no
    intermediate exceeds the sum."""
    if k <= 1:
        return 0.0
    if abs(alpha - 1.0) < 1e-9:
        return float(k - 1)
    return alpha * ((alpha ** (k - 1) - 1.0) / (alpha - 1.0))


def _finite_bound(bound, what):
    """``bound``, or ``NonFiniteError`` when it overflowed."""
    if not np.isfinite(bound):
        raise NonFiniteError(f"{what} is not finite", module="oracle")
    return bound


def recurrence_error_bound(report: DecompositionErrorReport, k):
    """Bound on the Hausdorff distance between the decomposed and exact
    recurrence sets at step k, or ``NonFiniteError`` if it overflows."""
    k = int(k)
    if k < 0:
        raise InputError(f"step index must be nonnegative, got {k}", module="oracle")
    b = report.b
    x_term = b * float(report.delta_x.sum()) + report.eps_x
    v_term = b * float(report.delta_v.sum()) + report.eps_v
    a = report.alpha_phi
    try:
        # a zero initial term stays zero, however far a^k would overflow
        x_part = a ** k * x_term if x_term else 0.0
        bound = report.K * (x_part + v_term * _geometric_tail(a, k)) + report.eps_v
    except OverflowError:       # a float power beyond the float range
        bound = np.inf
    return _finite_bound(bound, f"recurrence_error_bound: the bound at step {k}")


def recurrence_error_bound_uniform(report: DecompositionErrorReport):
    """Uniform-in-k version of the step bound; requires a contracting
    growth factor.  A bound that overflows raises ``NonFiniteError``."""
    a = report.alpha_phi
    if a >= 1.0:
        raise InputError(f"uniform bound requires growth factor < 1, got {a}",
                         module="oracle")
    x_term = report.b * float(report.delta_x.sum()) + report.eps_x
    v_term = report.b * float(report.delta_v.sum()) + report.eps_v
    return _finite_bound(report.K * (x_term + v_term * a / (1.0 - a)) + report.eps_v,
                         "recurrence_error_bound_uniform: the bound")


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

def support_membership(X, point, count=100, seed=0, slack=1e-7):
    """Necessary membership test: the point stays on the inner side of the
    supporting halfplanes in sampled plus axis directions."""
    x = np.asarray(point, dtype=float)
    if x.shape != (X.dim,):
        raise DimensionError(f"point has shape {x.shape}, set dimension is "
                             f"{X.dim}", module="oracle")
    eye = np.eye(X.dim)
    D = np.vstack([eye, -eye, sample_directions(X.dim, count, seed)])
    margins = X.support_batch(D) - D @ x
    return bool(margins.min() >= -slack)


def _check_start(X, x0, what):
    if not support_membership(X, x0, seed=7):
        raise InputError(f"{what} is outside the corresponding set",
                         module="oracle")


def simulate(sys, x0, inputs=None, N=None, delta=None):
    """Trajectory of a single realization.

    Discrete systems step the recurrence with one additive input point
    per step; continuous systems integrate the ODE with a piecewise-constant
    input per interval of length ``delta`` (high-order adaptive scheme,
    local tolerance 1e-10).  The start state and every supplied input are
    membership-checked against their sets.  Returns the N+1 states at the
    step boundaries.
    """
    if N is None or int(N) < 1:
        raise InputError(f"need a positive step count, got {N}", module="oracle")
    N = int(N)
    x0 = np.asarray(x0, dtype=float)
    if isinstance(sys, DiscreteSystem):
        return _simulate_discrete(sys, x0, inputs, N)
    if isinstance(sys, ContinuousSystem):
        return _simulate_continuous(sys, x0, inputs, N, delta)
    raise InputError(f"cannot simulate a {type(sys).__name__}", module="oracle")


def _simulate_discrete(sys: DiscreteSystem, x0, inputs, N):
    _check_start(sys.x_init, x0, "initial state")
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (N, sys.n):
            raise DimensionError(f"inputs must have shape ({N}, {sys.n}), "
                                 f"got {inputs.shape}", module="oracle")
    states = np.empty((N + 1, sys.n))
    states[0] = x0
    phi = sys.phi.data
    for k in range(N):
        if inputs is None:
            vk = np.zeros(sys.n)
        else:
            vk = inputs[k]
        if not support_membership(sys.v_at(k), vk, seed=11):
            raise InputError(f"input at step {k} is outside the input set",
                             module="oracle")
        states[k + 1] = np.asarray(phi @ states[k]).ravel() + vk
    return states


def _simulate_continuous(sys: ContinuousSystem, x0, inputs, N, delta):
    if delta is None or float(delta) <= 0.0:
        raise InputError(f"continuous simulation needs a positive interval "
                         f"length, got {delta}", module="oracle")
    from scipy.integrate import solve_ivp  # loads scipy.optimize: keep it here

    delta = float(delta)
    _check_start(sys.X0, x0, "initial state")
    A = sys.A.to_dense()
    m = sys.input_dim
    if inputs is not None:
        if sys.U is None:
            raise InputError("system has no input set", module="oracle")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (N, m):
            raise DimensionError(f"inputs must have shape ({N}, {m}), "
                                 f"got {inputs.shape}", module="oracle")
        B = sys.B.to_dense() if sys.B is not None else np.eye(sys.n)
    states = np.empty((N + 1, sys.n))
    states[0] = x0
    for k in range(N):
        if inputs is None:
            forcing = np.zeros(sys.n)
        else:
            Uk = _step_set(sys.U, k, "oracle")
            if not support_membership(Uk, inputs[k], seed=11):
                raise InputError(f"input at step {k} is outside the input set",
                                 module="oracle")
            forcing = B @ inputs[k]
        sol = solve_ivp(lambda _t, x: A @ x + forcing, (0.0, delta), states[k],
                        method="DOP853", rtol=1e-10, atol=1e-12)
        if not sol.success:
            raise InputError(f"integration failed on step {k}: {sol.message}",
                             module="oracle")
        states[k + 1] = sol.y[:, -1]
    return states
