"""Differential properties of the engine paths on random small systems.

Every path of the decomposed recurrence -- the closed-form box path, the
generic collapsed path, the lazy path with closed-form or collapsed
inputs, the varying-input recurrence and the safety checker -- must
agree with the others and stay sound against the non-decomposed oracle.  Systems have n <= 8, dense or CSR Phi, and
initial and input sets drawn from boxes, p-balls, singletons and
products of constraint polygons, with constant inputs or per-step
sequences.
"""

import numpy as np
import numpy.testing as npt
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spanning_angles
from reachdec import (
    And,
    Atom,
    BallP,
    BlockMatrix,
    BlockStructure,
    BoxDirections,
    CartesianProduct,
    DiscreteSystem,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    SafetyProperty,
    Singleton,
    check_property,
    reach_decomposed,
    reach_decomposed_varying,
    reach_nondecomposed,
)

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

KINDS = ("box", "ball", "point", "polygon")


def random_polygons(rng, n, scale):
    """A product of one random polygon per 2D block, with an interval for
    an odd last coordinate; some polygons carry redundant halfplanes."""
    parts = []
    for lo, hi in BlockStructure(n).blocks:
        center = rng.uniform(-scale, scale, hi - lo)
        if hi - lo == 1:
            parts.append(Hyperrectangle(center, rng.uniform(0.0, scale, 1)))
            continue
        angles = spanning_angles(rng, int(rng.integers(3, 9)))
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        offsets = normals @ center + rng.uniform(0.1, 1.0, len(angles)) * scale
        parts.append(HPolygon(normals, offsets))
    return CartesianProduct(parts)


def random_set(rng, kind, n, scale):
    if kind == "polygon":
        return random_polygons(rng, n, scale)
    center = rng.uniform(-scale, scale, n)
    if kind == "box":
        return Hyperrectangle(center, rng.uniform(0.0, scale, n))
    if kind == "ball":
        return BallP(center, rng.uniform(0.0, scale),
                     float(rng.choice([1.0, 2.0, np.inf])))
    return Singleton(center)


def random_phi(rng, n, sparse):
    """A matrix of infinity norm below one, in half of the draws with
    about 60 % zero entries.  A CSR one occupies at most a quarter of its
    2x2 blocks, so `DiscreteSystem` keeps it sparse."""
    M = rng.standard_normal((n, n))
    if rng.random() < 0.5:
        M[rng.random((n, n)) < 0.6] = 0.0
    if sparse:
        b = BlockStructure(n).b
        keep = rng.choice(b * b, size=b * b // 4, replace=False)
        mask = np.zeros((n, n), dtype=bool)
        for key in keep:
            i, j = divmod(int(key), b)
            mask[2 * i:2 * i + 2, 2 * j:2 * j + 2] = True
        M = np.where(mask, M, 0.0)
    norm = np.abs(M).sum(axis=1).max()
    if norm > 0.0:
        M *= rng.uniform(0.3, 1.0) * 0.95 / norm
    return BlockMatrix(sp.csr_array(M)) if sparse else BlockMatrix(M)


@st.composite
def systems(draw):
    """(system, step count) for a random small recurrence."""
    sparse = draw(st.booleans())
    n = draw(st.integers(3 if sparse else 1, 8))
    N = draw(st.integers(1, 8))
    sequence = draw(st.booleans())
    x_kind = draw(st.sampled_from(KINDS))
    v_kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1,
                            max_size=N if sequence else 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = random_phi(rng, n, sparse)
    X0 = random_set(rng, x_kind, n, 1.0)
    if sequence:
        V = [random_set(rng, v_kinds[k % len(v_kinds)], n, 0.1)
             for k in range(N + draw(st.integers(0, 2)))]
    else:
        V = random_set(rng, v_kinds[0], n, 0.1)
    sys = DiscreteSystem(phi, X0, V, 0.1)
    if sparse and BlockStructure(n).b > 1:
        assert sys.phi.is_sparse
    return sys, N


def run(sys, N, **kw):
    if sys.constant_input:
        return reach_decomposed(sys, N, **kw)
    return reach_decomposed_varying(sys, N, **kw)


def directions(sys, seed, count=24):
    rng = np.random.default_rng(seed)
    return np.vstack([np.eye(sys.n), -np.eye(sys.n),
                      rng.standard_normal((count, sys.n))])


def boxes(tube, k, i):
    hull = tube.box_hull(k, i)
    return np.asarray(hull.center), np.asarray(hull.radius)


@PROPERTY
@given(systems())
def test_box_fast_path_matches_generic_path(case):
    sys, N = case
    fast = run(sys, N, fast=True)
    slow = run(sys, N, fast=False)
    for k in range(N):
        for i in fast.tracked:
            (fc, fr), (sc, sr) = boxes(fast, k, i), boxes(slow, k, i)
            npt.assert_allclose(fc, sc, rtol=0.0, atol=1e-12)
            npt.assert_allclose(fr, sr, rtol=0.0, atol=1e-12)


@PROPERTY
@given(systems())
def test_lazy_box_inputs_match_set_inputs(case):
    # lazy box-scheme steps take their inputs in closed form, and with
    # fast=False collapsed through the scheme every step
    sys, N = case
    L = directions(sys, N)
    fast = run(sys, N, lazy=True)
    slow = run(sys, N, lazy=True, fast=False)
    for k in range(N):
        npt.assert_allclose(fast.support_batch(k, L), slow.support_batch(k, L),
                            rtol=1e-12, atol=1e-12)


@PROPERTY
@given(systems(), st.sampled_from([BoxDirections(), EpsilonClose(0.05)]))
def test_oracle_below_lazy_below_collapsed(case, scheme):
    sys, N = case
    L = directions(sys, N)
    lazy = run(sys, N, scheme=scheme, lazy=True)
    collapsed = run(sys, N, scheme=scheme)
    exact = reach_nondecomposed(sys, N, L)
    for k in range(N):
        lazy_k = lazy.support_batch(k, L)
        collapsed_k = collapsed.support_batch(k, L)
        assert np.all(exact[k] <= lazy_k + 1e-9)
        assert np.all(lazy_k <= collapsed_k + 1e-12 * (1.0 + np.abs(collapsed_k)))


@PROPERTY
@given(systems(), st.data())
def test_tracked_subset_is_bitwise_the_full_run(case, data):
    sys, N = case
    b = BlockStructure(sys.n).b
    subset = data.draw(st.sets(st.integers(0, b - 1), min_size=1))
    fast = data.draw(st.sampled_from([None, False]))
    full = run(sys, N, fast=fast)
    part = run(sys, N, tracked=subset, fast=fast)
    assert part.tracked == tuple(sorted(subset))
    for k in range(N):
        for i in part.tracked:
            for got, want in zip(boxes(part, k, i), boxes(full, k, i)):
                npt.assert_array_equal(got, want)


@PROPERTY
@given(systems(), st.data())
def test_check_verdict_matches_lazy_tube_supports(case, data):
    sys, N = case
    tube = run(sys, N, lazy=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    atoms, values = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = rng.standard_normal(sys.n)
        coeffs[rng.random(sys.n) < 0.5] = 0.0
        if not coeffs.any():
            coeffs[rng.integers(sys.n)] = 1.0
        vals = np.array([tube.support(k, coeffs) for k in range(N)])
        # a bound inside the range of the supports: some runs fail late
        bound = float(np.quantile(vals, data.draw(st.floats(0.0, 1.0))))
        atoms.append(Atom(coeffs, bound, strict=data.draw(st.booleans())))
        values.append(vals)

    fails = [k for k in range(N)
             if not all(a.holds(v[k]) for a, v in zip(atoms, values))]
    res = check_property(sys, SafetyProperty(And(atoms)), N)
    assert res.verified == (not fails)
    if fails:
        k = fails[0]
        bad = next(j for j, a in enumerate(atoms) if not a.holds(values[j][k]))
        assert res.step == k
        assert res.atom == atoms[bad].describe()
        assert res.value == values[bad][k]
