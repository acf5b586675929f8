"""Shared generators for randomized tests.

Everything takes an explicit numpy Generator so individual tests stay
reproducible with their own seeds.
"""

import json

import numpy as np

from reachdec import (
    BallP,
    BlockMatrix,
    BoxDirections,
    HPolygon,
    Hyperrectangle,
    Singleton,
)
from reachdec.approx import approximate
from reachdec.reach import SetTube, _checked_run, _steps


def random_box(rng, dim, scale=2.0):
    center = rng.uniform(-scale, scale, dim)
    radius = rng.uniform(0.1, scale, dim)
    return Hyperrectangle(center, radius)


def random_ball(rng, dim, p=2.0):
    return BallP(rng.uniform(-2, 2, dim), rng.uniform(0.2, 2.0), p)


def random_singleton(rng, dim):
    return Singleton(rng.uniform(-2, 2, dim))


def spanning_angles(rng, m):
    """m angles whose cyclic gaps are all below pi (bounded polygon)."""
    while True:
        angles = np.sort(rng.uniform(-np.pi, np.pi, m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.max() < np.pi - 0.05:
            return angles


def random_polygon(rng, m_min=3, m_max=40):
    """Bounded polygon with the origin in the interior; the raw constraint
    list may contain redundant rows (canonicalization handles them)."""
    m = int(rng.integers(m_min, m_max + 1))
    angles = spanning_angles(rng, max(m, 3))
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    offsets = rng.uniform(0.5, 2.0, len(angles))
    return HPolygon(normals, offsets)


def random_set(rng, dim):
    kind = rng.integers(0, 4 if dim == 2 else 3)
    if kind == 0:
        return random_box(rng, dim)
    if kind == 1:
        p = float(rng.choice([1.0, 2.0, np.inf]))
        return random_ball(rng, dim, p)
    if kind == 2:
        return random_singleton(rng, dim)
    return random_polygon(rng, 4, 10)


def random_stable_matrix(rng, n, cap=0.95, sparse=False):
    """Matrix with infinity norm at most cap."""
    M = rng.standard_normal((n, n))
    norm = np.abs(M).sum(axis=1).max()
    M *= rng.uniform(0.3, 1.0) * cap / norm
    if sparse:
        import scipy.sparse as sp

        return BlockMatrix(sp.csr_array(M))
    return BlockMatrix(M)


def unsorted_csr(M):
    """M as a CSR array with each row's entries in reverse column order
    and its first entry stored again as a zero: not canonical."""
    import scipy.sparse as sp

    S = sp.csr_array(M)
    indices, data, indptr = [], [], [0]
    for i in range(S.shape[0]):
        row = slice(S.indptr[i], S.indptr[i + 1])
        indices += S.indices[row][::-1].tolist() + S.indices[row][:1].tolist()
        data += S.data[row][::-1].tolist() + [0.0] * min(1, row.stop - row.start)
        indptr.append(len(indices))
    return sp.csr_array((data, indices, indptr), shape=S.shape)


def generic_tube(sys, N, tracked=None, scheme=BoxDirections(), lazy=False):
    """The tube of `reach_decomposed` (or `reach_decomposed_varying`) as the
    set engine `reachdec.reach._steps` builds it for any scheme: step sets,
    with the inputs collapsed through ``scheme`` every step, and the lazy
    steps too unless ``lazy``, each set in turn by `approximate`.  Under
    the box scheme it is the generic reference for the closed-form box
    engine, and under the ε-close scheme the per-step reference for the
    tube's walk over a chunk of steps."""
    N, bs, tracked = _checked_run(sys, N, tracked)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _steps(sys, N, bs, tracked, scheme)
        out = [next(steps)]
        for step in steps:
            out.append(step if lazy else
                       {i: approximate(X, scheme) for i, X in step.items()})
    return SetTube(sys.delta, sys.model, bs, tracked, out)


def augmented_exponential(A, delta):
    """(Phi, Phi1, Phi2) of A and delta read off scipy's exponential of the
    3n x 3n augmented matrix [[A, I, 0], [0, 0, I], [0, 0, 0]] delta: an
    independent reference for the Taylor kernel of `reachdec.linalg`."""
    import scipy.linalg

    if isinstance(A, BlockMatrix):
        A = A.to_dense()
    A = A.toarray() if hasattr(A, "toarray") else np.asarray(A, dtype=float)
    n = A.shape[0]
    aug = np.zeros((3 * n, 3 * n))
    aug[:n, :n] = A
    aug[:n, n:2 * n] = np.eye(n)
    aug[n:2 * n, 2 * n:] = np.eye(n)
    E = scipy.linalg.expm(aug * delta)
    return E[:n, :n], E[:n, n:2 * n], E[:n, 2 * n:]


def polygon_vertices_bruteforce(normals, offsets, tol=1e-9):
    """All feasible intersection points of constraint pairs -- an
    independent vertex enumeration for small polygons."""
    A = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    m = len(b)
    vertices = []
    for i in range(m):
        for j in range(i + 1, m):
            det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(det) < 1e-12:
                continue
            x = (b[i] * A[j, 1] - b[j] * A[i, 1]) / det
            y = (A[i, 0] * b[j] - A[j, 0] * b[i]) / det
            v = np.array([x, y])
            if np.all(A @ v <= b + tol):
                vertices.append(v)
    return np.array(vertices)


def write_large_decoupled(tmp_path, n):
    """A scenario of n states in damped rotations, where block 0 reads
    block 1 and every other block reads its left neighbour."""
    b = n // 2
    rows, cols, vals = [], [], []
    for r, c, v in ((0, 0, -0.1), (0, 1, -1.0), (1, 0, 1.0), (1, 1, -0.1)):
        rows.append(2 * np.arange(b) + r)
        cols.append(2 * np.arange(b) + c)
        vals.append(np.full(b, v))
    rows.append(2 * np.arange(2, b))
    cols.append(2 * np.arange(2, b) - 2)
    vals.append(np.full(b - 2, 0.01))
    rows.append([1])
    cols.append([2])
    vals.append([0.01])
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{n} {n} {rows.size}"]
    lines += [f"{r + 1} {c + 1} {float(v)!r}" for r, c, v in zip(rows, cols, vals)]
    (tmp_path / "A.mtx").write_text("\n".join(lines) + "\n")
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0] * n, "radius": [0.1] * n}},
           "U": {"box": {"center": [0.0] * n, "radius": [0.01] * n}},
           "delta": 0.05, "N": 40, "model": "dense",
           "property": "x1 < 2 and x2 < 2"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path
