"""Workload generators: one scenario (JSON plus Matrix Market files) per seed.

Each generator draws every value from ``numpy.random.default_rng`` seeded
with the workload's salt and the run seed, writes the files `reachdec`
reads, and returns a `Workload` holding the same values in memory for the
independent reference checks.  The seed moves values (centres, radii,
rates, coupling weights and the source profile), never sizes or sparsity
counts or the sparsity pattern, so the amount of work stays the same
from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: problem sizes; README.md gives the reasons for each
SIZES = {
    "diffusion": {"n": 128, "N": 200, "delta": 0.01},
    "sparse-500": {"n": 500, "N": 250, "delta": 0.01},
    "oscillators-eps": {"n": 8, "N": 100, "delta": 0.02, "eps": 1e-2},
    "varying-inputs": {"n": 32, "N": 90, "delta": 0.05},
}

_SALT = {"diffusion": 11, "sparse-500": 23, "oscillators-eps": 37,
         "varying-inputs": 53}


@dataclass
class Workload:
    """A generated scenario and the values it was written from."""

    name: str
    path: Path
    A: sp.csr_array
    x0_c: np.ndarray
    x0_r: np.ndarray
    #: (N, n) per-step input centres and radii; a constant input repeats
    #: one row
    u_c: np.ndarray
    u_r: np.ndarray
    delta: float
    N: int
    model: str
    scheme: str
    block: int
    #: exp(A delta) and its input integral are nonnegative, so the box
    #: tube must equal the exact coordinate hull
    exact_hull: bool
    #: conjunction of atoms coeffs . x < bound, as written in the property
    atoms: list = field(default_factory=list)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def coords(self):
        """0-based state coordinates of the tracked block."""
        return list(range(2 * self.block, min(2 * self.block + 2, self.n)))


def _write_mtx(path, A):
    """Coordinate Matrix Market with repr() values, so the file holds the
    in-memory matrix exactly."""
    coo = sp.coo_array(A)
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{A.shape[0]} {A.shape[1]} {coo.nnz}"]
    lines += [f"{int(r) + 1} {int(c) + 1} {float(v)!r}"
              for r, c, v in zip(coo.row, coo.col, coo.data)]
    path.write_text("\n".join(lines) + "\n")


def _box(c, r):
    return {"box": {"center": [float(v) for v in c],
                    "radius": [float(v) for v in r]}}


def _tridiagonal(n, diag, off):
    return sp.diags_array([np.full(n - 1, off), np.full(n, diag),
                           np.full(n - 1, off)], offsets=[-1, 0, 1],
                          format="csr")


#: property directions of a block unless a generator gives its own
_AXES = ((1.0, 0.0), (0.0, 1.0))


def _block_property(block, bound, directions):
    """Conjunction of atoms a*x_i + b*x_j < bound over the two variables of
    one block, one atom per direction (a, b); text and (coord, coeff)
    lists."""
    texts, atoms = [], []
    for coeffs in directions:
        terms = []
        for var, c in enumerate(coeffs):
            if c != 0.0:
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign} {abs(c)!r}*x{2 * block + var + 1}")
        texts.append(" ".join(terms).strip() + f" < {bound!r}")
        atoms.append(([2 * block, 2 * block + 1], list(coeffs), bound))
    return " and ".join(texts), atoms


def _jitter(rng, count):
    """Factors within 1 % of one: the seed moves rates, radii and weights
    this little, so the tube width stays comparable from seed to seed."""
    return 1.0 + 0.01 * rng.uniform(-1.0, 1.0, count)


def _diffusion(rng, size):
    n, N = size["n"], size["N"]
    A = _tridiagonal(n, -2.0, 1.0)
    c0 = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, n)
    r0 = 0.05 * _jitter(rng, n)
    uc = 0.01 * rng.uniform(-1.0, 1.0, n)
    ur = 0.01 * _jitter(rng, n)
    block = n // 4
    return dict(A=A, x0=(c0, r0), u=(uc, ur),
                constant=True, N=N, delta=size["delta"], model="dense",
                scheme="box", block=block, bound=10.0)


def _sparse(rng, size):
    n, N = size["n"], size["N"]
    nb = n // 2
    # spread over the blocks by a fixed sequence, jittered by the seed
    spread = (np.arange(nb) * 0.6180339887) % 1.0
    damp = (0.05 + 0.15 * spread) * _jitter(rng, nb)
    freq = (0.5 + 1.5 * spread[::-1]) * _jitter(rng, nb)
    rows = np.repeat(2 * np.arange(nb), 4) + np.tile([0, 0, 1, 1], nb)
    cols = np.repeat(2 * np.arange(nb), 4) + np.tile([0, 1, 0, 1], nb)
    vals = np.column_stack([-damp, -freq, freq, -damp]).ravel()
    # the coupling pattern and base weights are the same for every seed
    layout = np.random.default_rng(_SALT["sparse-500"])
    extra = n // 4
    cr = layout.integers(0, n, extra)
    cc = layout.integers(0, n, extra)
    cv = layout.uniform(-1e-2, 1e-2, extra) * _jitter(rng, extra)
    A = sp.csr_array((np.concatenate([vals, cv]),
                      (np.concatenate([rows, cr]), np.concatenate([cols, cc]))),
                     shape=(n, n))
    c0 = rng.uniform(-1.0, 1.0, n)
    r0 = 0.15 * _jitter(rng, n)
    ur = 1e-3 * _jitter(rng, n)
    return dict(A=A, x0=(c0, r0), u=(np.zeros(n), ur), constant=True, N=N,
                delta=size["delta"], model="dense", scheme="box", block=0,
                bound=10.0)


def _oscillators(rng, size):
    n, N = size["n"], size["N"]
    m = n // 2
    stiff = 4.0 * _jitter(rng, m)
    damp = 0.15 * _jitter(rng, m)
    couple = 0.5
    A = np.zeros((n, n))
    for i in range(m):
        A[2 * i, 2 * i + 1] = 1.0
        A[2 * i + 1, 2 * i] = -stiff[i] - couple * (2 if 0 < i < m - 1 else 1)
        A[2 * i + 1, 2 * i + 1] = -damp[i]
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                A[2 * i + 1, 2 * j] = couple
    c0 = np.zeros(n)
    c0[0::2] = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, m)
    r0 = 0.05 * _jitter(rng, n)
    ur = np.zeros(n)
    ur[1::2] = 0.05 * _jitter(rng, m)
    # a polygonal safe region: one atom per direction of a 16-gon
    angles = 2.0 * np.pi * np.arange(16) / 16
    directions = [(round(float(np.cos(a)), 4), round(float(np.sin(a)), 4))
                  for a in angles]
    return dict(A=sp.csr_array(A), x0=(c0, r0), u=(np.zeros(n), ur),
                constant=True, N=N, delta=size["delta"], model="dense",
                scheme=f"eps:{size['eps']!r}", block=0, bound=10.0,
                directions=directions)


def _varying(rng, size):
    n, N = size["n"], size["N"]
    kappa = float(_jitter(rng, 1)[0])
    A = _tridiagonal(n, -2.0 * kappa - 0.05, kappa)   # Metzler: Phi >= 0
    c0 = 0.5 + 0.1 * rng.uniform(-1.0, 1.0, n)
    r0 = 0.05 * _jitter(rng, n)
    # a heat source sweeping along the rod, with a bounded disturbance
    x = np.arange(n)
    speed = (n - 1) / (N - 1) * float(_jitter(rng, 1)[0])
    amp = float(_jitter(rng, 1)[0])
    width = n / 8.0
    pos = (speed * np.arange(N))[:, None]
    uc = amp * np.exp(-((x[None, :] - pos) / width) ** 2)
    ur = 0.02 + 0.1 * uc
    return dict(A=A, x0=(c0, r0), u=(uc, ur),
                constant=False, N=N, delta=size["delta"], model="discrete",
                scheme="box", block=n // 4, bound=50.0, exact_hull=True)


_GENERATORS = {"diffusion": _diffusion, "sparse-500": _sparse,
               "oscillators-eps": _oscillators, "varying-inputs": _varying}

WORKLOADS = tuple(_GENERATORS)


def generate(name, seed, out_dir, size=None):
    """Write workload ``name`` for ``seed`` into ``out_dir`` and return it.

    ``size`` overrides entries of `SIZES` (the self-tests use small sizes).
    """
    size = {**SIZES[name], **(size or {})}
    rng = np.random.default_rng([_SALT[name], int(seed)])
    g = _GENERATORS[name](rng, size)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_mtx(out_dir / "A.mtx", g["A"])
    prop, atoms = _block_property(g["block"], g["bound"],
                                  g.get("directions", _AXES))
    n, N = g["A"].shape[0], g["N"]
    x0_c, x0_r = g["x0"]
    u_c, u_r = (np.atleast_2d(v) for v in g["u"])
    doc = {"name": name, "A": "A.mtx", "X0": _box(x0_c, x0_r),
           "delta": g["delta"], "N": N, "model": g["model"],
           "scheme": g["scheme"], "property": prop, "seed": int(seed)}
    if g["constant"]:
        doc["U"] = _box(u_c[0], u_r[0])
        u_c, u_r = np.repeat(u_c, N, axis=0), np.repeat(u_r, N, axis=0)
    else:
        doc["U"] = {"sequence": [_box(c, r) for c, r in zip(u_c, u_r)]}
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(doc))
    coeffs = []
    for coords, values, bound in atoms:
        c = np.zeros(n)
        c[coords] = values
        coeffs.append((c, bound))
    return Workload(name, path, sp.csr_array(g["A"]), x0_c, x0_r, u_c,
                    u_r, float(g["delta"]), N, g["model"],
                    g["scheme"], g["block"], g.get("exact_hull", False),
                    coeffs)
