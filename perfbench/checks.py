"""Output checks against references computed apart from `reachdec`.

The references use the generated values held in a `scenarios.Workload`
and scipy's matrix exponential only:

* trajectories from vertices and random points of X0 under random
  admissible inputs (a random vertex of the input box on every half step
  for dense time, on every step for discrete time), which must lie in the
  tube's box hulls and in every `tube.poly` halfplane;
* on nonnegative dynamics, the exact coordinate hull of the reach set,
  which the box tube must equal;
* the property, which no sampled trajectory may cross.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

#: relative tolerance of every containment and equality check
TOL = 1e-9

#: above this state dimension the propagator is a sparse exponential
DENSE_LIMIT = 400


@dataclass
class Tube:
    """Rows of a tube CSV as arrays; ``lo``/``hi`` have one column per
    variable of the block."""

    k: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    block: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def read_tube(path):
    """Parse `tube.csv` (k,t_lo,t_hi,block,var_lo_1,var_hi_1,...)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = [[float(v) for v in r if v != ""] for r in rows[1:]]
    if not body or len({len(r) for r in body}) != 1:
        raise ValueError(f"{path}: no rows or ragged rows")
    a = np.array(body)
    return Tube(a[:, 0].astype(int), a[:, 1], a[:, 2], a[:, 3].astype(int),
                a[:, 4::2], a[:, 5::2])


def read_poly(path):
    """Parse `tube.poly` into {k: (normals, offsets)}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out = {}
    for _block, k, a1, a2, b in rows:
        out.setdefault(int(k), []).append((float(a1), float(a2), float(b)))
    return {k: (np.array(v)[:, :2], np.array(v)[:, 2]) for k, v in out.items()}


def tube_width(tube):
    """Mean width hi - lo over all steps and tracked variables."""
    return float(np.mean(tube.hi - tube.lo))


def check_shape(tube, w):
    """N rows for the one tracked block, finite ordered bounds, and times
    matching the model and step."""
    problems = []
    if len(tube.k) != w.N or not np.array_equal(tube.k, np.arange(w.N)):
        return [f"expected steps 0..{w.N - 1}, got {len(tube.k)} rows"]
    if np.any(tube.block != w.block):
        problems.append(f"rows for blocks other than {w.block}")
    if tube.lo.shape[1] != len(w.coords):
        problems.append(f"expected {len(w.coords)} variables per row")
    if not (np.all(np.isfinite(tube.lo)) and np.all(np.isfinite(tube.hi))):
        problems.append("non-finite bounds")
    elif np.any(tube.lo > tube.hi):
        problems.append("lower bound above upper bound")
    start = tube.k * w.delta
    end = start + w.delta if w.model == "dense" else start
    scale = TOL * np.maximum(1.0, end)
    if np.any(np.abs(tube.t_lo - start) > scale) or \
            np.any(np.abs(tube.t_hi - end) > scale):
        problems.append(f"times do not match the {w.model} model with "
                        f"delta={w.delta}")
    return problems


def _propagator(w, h):
    """Top block row of exp([[A, I], [0, 0]] h): x(t+h) from [x(t); u]."""
    n = w.n
    if n <= DENSE_LIMIT:
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = w.A.toarray()
        M[:n, n:] = np.eye(n)
        return scipy.linalg.expm(M * h)[:n]
    M = sp.bmat([[w.A, sp.identity(n)], [None, sp.csr_array((n, n))]],
                format="csc")
    return sp.csr_array(scipy.sparse.linalg.expm(M * h))[:n]


def simulate(w, rng, count=16):
    """Sampled trajectories, restricted to the tracked block.

    Returns an array (N, S, len(coords), count): for dense time S = 3
    samples per step at k delta, (k + 1/2) delta and (k + 1) delta, for
    discrete time S = 1 at k delta.  Half the trajectories start at random
    vertices of X0 (including the all-upper and all-lower corners), half
    at random points inside it.
    """
    n, N = w.n, w.N
    sub = 2 if w.model == "dense" else 1
    E = _propagator(w, w.delta / sub)
    signs = rng.choice([-1.0, 1.0], size=(n, count))
    signs[:, 0], signs[:, 1] = 1.0, -1.0
    signs[:, count // 2:] = rng.uniform(-1.0, 1.0, (n, count - count // 2))
    x = w.x0_c[:, None] + w.x0_r[:, None] * signs
    grid = [x[w.coords]]
    for j in range(2 * N if sub == 2 else N - 1):
        k = j // sub
        u = w.u_c[k][:, None] + w.u_r[k][:, None] * rng.choice(
            [-1.0, 1.0], size=(n, count))
        x = np.asarray(E @ np.vstack([x, u]))
        grid.append(x[w.coords])
    grid = np.array(grid)
    if sub == 1:
        return grid[:, None]
    return np.stack([grid[0:-1:2], grid[1::2], grid[2::2]], axis=1)


def check_contains(tube, samples):
    """Every sample of step k lies in the box hull of step k."""
    lo = tube.lo[:, None, :, None]
    hi = tube.hi[:, None, :, None]
    tol = TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    out = (samples < lo - tol) | (samples > hi + tol)
    if not out.any():
        return []
    k = int(np.argwhere(out)[0][0])
    return [f"{int(out.sum())} trajectory samples outside the box hull, "
            f"first at step {k}"]


def check_polygons(polys, samples):
    """Every sample of step k satisfies every halfplane of polygon k."""
    if sorted(polys) != list(range(len(samples))):
        return [f"polygons for {len(polys)} steps, expected {len(samples)}"]
    for k, (A, b) in polys.items():
        pts = samples[k].transpose(1, 0, 2).reshape(2, -1)
        excess = A @ pts - (b + TOL * (1.0 + np.abs(b)))[:, None]
        if np.any(excess > 0.0):
            return [f"trajectory sample outside a tube.poly halfplane at "
                    f"step {k} by {excess.max():.3e}"]
    return []


def exact_hull(w):
    """Exact coordinate hull (lo, hi) of the tracked block per step, for a
    discrete-time system whose exp(A delta) and input integral are
    nonnegative, so that box propagation loses nothing."""
    n = w.n
    E = _propagator(w, w.delta)
    E = E.toarray() if sp.issparse(E) else E
    phi, gamma = E[:, :n], E[:, n:]
    floor = -1e-15 * np.abs(E).max()
    if phi.min() < floor or gamma.min() < floor:
        raise ValueError("exact hull needs nonnegative Phi and Phi1")
    phi, gamma = np.abs(phi), np.abs(gamma)
    c, r = w.x0_c.copy(), w.x0_r.copy()
    lo, hi = [], []
    for k in range(w.N):
        lo.append(c[w.coords] - r[w.coords])
        hi.append(c[w.coords] + r[w.coords])
        c = phi @ c + gamma @ w.u_c[k]
        r = phi @ r + gamma @ w.u_r[k]
    return np.array(lo), np.array(hi)


def check_exact_hull(tube, ref_lo, ref_hi):
    """The box hull contains the exact hull and equals it within TOL
    relative."""
    tol_lo = TOL * np.maximum(1.0, np.abs(ref_lo))
    tol_hi = TOL * np.maximum(1.0, np.abs(ref_hi))
    problems = []
    if np.any(tube.lo > ref_lo + tol_lo) or np.any(tube.hi < ref_hi - tol_hi):
        problems.append("box hull does not contain the exact hull")
    gap = np.maximum(np.abs(tube.lo - ref_lo) / tol_lo,
                     np.abs(tube.hi - ref_hi) / tol_hi)
    if np.any(gap > 1.0):
        k = int(np.argwhere(gap > 1.0)[0][0])
        problems.append(f"box hull differs from the exact hull by more than "
                        f"{TOL:g} relative, first at step {k}")
    return problems


def check_property_samples(w, samples):
    """No sample crosses an atom c . x < bound of the property."""
    for coeffs, bound in w.atoms:
        c = coeffs[w.coords]
        if np.any(np.delete(coeffs, w.coords)):
            return ["property touches variables outside the tracked block"]
        vals = np.einsum("i,ksit->kst", c, samples)
        if np.any(vals >= bound):
            return [f"a sampled trajectory crosses the property bound "
                    f"{bound!r}"]
    return []


def check_reach_output(code, stdout, w):
    want = f"tube N={w.N} blocks={w.block} -> tube.csv"
    if code != 0 or not stdout or not stdout[0].startswith(want):
        return [f"reach: exit {code}, output {stdout!r}"]
    return []


def check_verdict(code, stdout, w):
    if code != 0 or stdout[:1] != [f"verified N={w.N}"]:
        return [f"check: exit {code}, output {stdout!r}"]
    return []


def check_compare_output(code, stdout):
    if code != 0 or not stdout or not stdout[-1].startswith("max_gap="):
        return [f"compare: exit {code}, output {stdout!r}"]
    return []
