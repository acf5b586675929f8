"""Differential properties of the engine paths on random small systems.

Every path of the decomposed recurrence -- the closed-form box engine,
the set engine (``conftest.generic_tube`` runs it under the box scheme as
well), the lazy steps streamed as supports (``reach._lazy_supports``),
the varying-input recurrence and the safety checker -- must agree with
the others and stay sound against the non-decomposed oracle.  Systems have n <= 8, dense or CSR Phi, and
initial and input sets drawn from boxes, p-balls, singletons and
products of constraint polygons, and input sets also from maps of boxes
through dense or CSR matrices, with constant inputs or per-step
sequences.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_tube, spanning_angles
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
    LazySet,
    LinearMap,
    SafetyProperty,
    Singleton,
    check_property,
    decompose,
    reach_decomposed,
    reach_decomposed_varying,
    reach_nondecomposed,
)
from reachdec.reach import _lazy_supports

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

KINDS = ("box", "ball", "point", "polygon")
#: input sets may also be a map of a box ("map"), whose box hull under
#: rows of Phi^k is the walk of the composed matrix
INPUT_KINDS = KINDS + ("map",)


def random_polygons(rng, n, scale):
    """A product of one random polygon per 2D block, with an interval for
    an odd last coordinate; some polygons carry redundant halfplanes."""
    parts = []
    bs = BlockStructure(n)
    for i in range(bs.b):
        center = rng.uniform(-scale, scale, bs.size(i))
        if bs.size(i) == 1:
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
    if kind == "map":
        # a box of 1 to n + 1 dimensions through a dense or a CSR matrix
        m = int(rng.integers(1, n + 2))
        M = rng.standard_normal((n, m))
        M[rng.random((n, m)) < 0.5] = 0.0
        M /= max(1.0, np.abs(M).sum(axis=1).max())
        box = random_set(rng, "box", m, scale)
        return LinearMap(sp.csr_array(M) if rng.random() < 0.5 else M, box)
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
    v_kinds = draw(st.lists(st.sampled_from(INPUT_KINDS), min_size=1,
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
    fast = run(sys, N)
    slow = generic_tube(sys, N)
    for k in range(N):
        for i in fast.tracked:
            (fc, fr), (sc, sr) = boxes(fast, k, i), boxes(slow, k, i)
            npt.assert_allclose(fc, sc, rtol=0.0, atol=1e-12)
            npt.assert_allclose(fr, sr, rtol=0.0, atol=1e-12)


@PROPERTY
@given(systems())
def test_lazy_box_inputs_match_set_inputs(case):
    # lazy box-scheme steps take their inputs in closed form, and in the
    # generic tube collapsed through the scheme every step
    sys, N = case
    L = directions(sys, N)
    fast = list(_lazy_supports(sys, N, L))
    slow = generic_tube(sys, N, lazy=True)
    assert len(fast) == N
    for k in range(N):
        npt.assert_allclose(fast[k], slow.support_batch(k, L),
                            rtol=1e-12, atol=1e-12)


@PROPERTY
@given(systems(), st.sampled_from([BoxDirections(), EpsilonClose(0.05)]))
def test_oracle_below_lazy_below_collapsed(case, scheme):
    sys, N = case
    L = directions(sys, N)
    lazy = list(_lazy_supports(sys, N, L, scheme))
    collapsed = run(sys, N, scheme=scheme)
    exact = reach_nondecomposed(sys, N, L)
    for k, lazy_k in enumerate(lazy):
        collapsed_k = collapsed.support_batch(k, L)
        assert np.all(exact[k] <= lazy_k + 1e-9)
        assert np.all(lazy_k <= collapsed_k + 1e-12 * (1.0 + np.abs(collapsed_k)))


@PROPERTY
@given(systems())
def test_tube_supports_are_bitwise_the_step_queries(case):
    # the polygons of a block are searched for all its steps at once, and
    # each step must still read what its own batch query reads
    sys, N = case
    tube = run(sys, N, scheme=EpsilonClose(0.05))
    L = directions(sys, N)
    for k, got in enumerate(tube.supports(L)):
        assert got.tobytes() == tube.support_batch(k, L).tobytes()


@PROPERTY
@given(systems(), st.data())
def test_tracked_subset_is_bitwise_the_full_run(case, data):
    sys, N = case
    b = BlockStructure(sys.n).b
    subset = data.draw(st.sets(st.integers(0, b - 1), min_size=1))
    fast = data.draw(st.sampled_from([None, False]))   # False: generic_tube
    build = run if fast is None else generic_tube
    full = build(sys, N)
    part = build(sys, N, tracked=subset)
    assert part.tracked == tuple(sorted(subset))
    for k in range(N):
        for i in part.tracked:
            for got, want in zip(boxes(part, k, i), boxes(full, k, i)):
                npt.assert_array_equal(got, want)


@PROPERTY
@given(systems(), st.sampled_from([BoxDirections(), EpsilonClose(0.05)]),
       st.data())
def test_check_verdict_matches_lazy_tube_supports(case, scheme, data):
    sys, N = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    C = []
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = rng.standard_normal(sys.n)
        coeffs[rng.random(sys.n) < 0.5] = 0.0
        if not coeffs.any():
            coeffs[rng.integers(sys.n)] = 1.0
        C.append(coeffs)
    # the checker asks for all atoms at once, and a set's batch may round
    # a direction differently in a stack of one row than in a stack of m,
    # so the reference is the stream of one batch over all the atoms' rows
    values = np.array(list(_lazy_supports(sys, N, np.array(C), scheme))).T
    atoms = []
    for coeffs, vals in zip(C, values):
        # a bound inside the range of the supports: some runs fail late
        bound = float(np.quantile(vals, data.draw(st.floats(0.0, 1.0))))
        atoms.append(Atom(coeffs, bound, strict=data.draw(st.booleans())))

    fails = [k for k in range(N)
             if not all(a.holds(v[k]) for a, v in zip(atoms, values))]
    res = check_property(sys, SafetyProperty(And(atoms)), N, scheme=scheme)
    assert res.verified == (not fails)
    if fails:
        k = fails[0]
        bad = next(j for j, a in enumerate(atoms) if not a.holds(values[j][k]))
        assert res.step == k
        assert res.atom == atoms[bad].describe()
        assert res.value == values[bad][k]


@PROPERTY
@given(systems(), st.sampled_from([BoxDirections(), EpsilonClose(0.05)]),
       st.data())
def test_streamed_supports_do_not_depend_on_unread_blocks(case, scheme, data):
    # the stream runs the engine for the blocks that L reads only (none,
    # some or all), and must give bit for bit the supports of a run over
    # every block
    sys, N = case
    bs = BlockStructure(sys.n)
    L = directions(sys, N)
    read = data.draw(st.sets(st.integers(0, bs.b - 1)))
    L[:, np.setdiff1d(np.arange(sys.n), bs.coords(sorted(read)))] = 0.0
    cut = list(_lazy_supports(sys, N, L, scheme=scheme))
    with pytest.MonkeyPatch.context() as m:
        m.setattr("reachdec.reach._blocks_read", lambda L, bs: list(range(bs.b)))
        full = list(_lazy_supports(sys, N, L, scheme=scheme))
    assert len(cut) == len(full) == N
    for got, want in zip(cut, full):
        npt.assert_array_equal(got, want)


def test_streamed_supports_of_no_block_form_no_power(monkeypatch):
    def no_power(*args):
        raise AssertionError("directions that read no block formed a power")

    monkeypatch.setattr("reachdec.reach.MatrixPowerState", no_power)
    X0 = Hyperrectangle(np.ones(3), np.full(3, 0.1))
    sys = DiscreteSystem(0.9 * np.eye(3), X0, X0, 0.1)
    for scheme in (BoxDirections(), EpsilonClose(0.1)):
        streamed = list(_lazy_supports(sys, 5, np.zeros((4, 3)), scheme=scheme))
        npt.assert_array_equal(streamed, np.zeros((5, 4)))


def test_check_asks_each_read_block_once_per_step(monkeypatch):
    # 16 atoms over blocks 0 and 2 of four, under the eps scheme: one
    # support batch per read block and step, and no single-direction query
    rng = np.random.default_rng(41)
    n, N = 8, 6
    phi = 0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    sys = DiscreteSystem(phi, Hyperrectangle(rng.uniform(-1, 1, n), np.full(n, 0.1)),
                         Hyperrectangle(np.zeros(n), np.full(n, 0.01)), 0.1)
    C = rng.standard_normal((16, n))
    C[:, [2, 3, 6, 7]] = 0.0
    prop = SafetyProperty(And([Atom(c, 1e6) for c in C]))
    calls = {"support_batch": 0, "support_function": 0}
    for name in calls:
        def counted(self, *args, _name=name, _real=getattr(LazySet, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(LazySet, name, counted)
    assert check_property(sys, prop, N, scheme=EpsilonClose(0.05)).verified
    assert calls == {"support_batch": 2 * N, "support_function": 0}


def lazy_step_phis():
    """(name, Phi) pairs, each with an all-zero row block: a dense 7 x 7
    with zero rows 2-3, and a CSR 8 x 8 that cycles blocks 0 -> 1 -> 2
    -> 0 with zero rows 6-7 (3 of 16 blocks occupied, so it stays CSR)."""
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((7, 7))
    dense[2:4] = 0.0
    cyc = np.zeros((8, 8))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        cyc[2 * i:2 * i + 2, 2 * j:2 * j + 2] = rng.standard_normal((2, 2))
    out = []
    for name, M, zero_block in (("dense", dense, 1), ("csr", cyc, 3)):
        M = M * 0.9 / np.abs(M).sum(axis=1).max()
        phi = BlockMatrix(sp.csr_array(M) if name == "csr" else M)
        out.append(pytest.param(phi, M, zero_block, id=name))
    return out


@pytest.mark.parametrize("phi, M, zero_block", lazy_step_phis())
@pytest.mark.parametrize("kind", ["box", "ball", "polygon"])
@pytest.mark.parametrize("scheme, fast", [(BoxDirections(), None),
                                          (BoxDirections(), False),
                                          (EpsilonClose(0.05), None)],
                         ids=["box", "box-generic", "eps"])   # False: generic_tube
def test_lazy_step_is_the_map_of_the_decomposed_initial_set(phi, M, zero_block,
                                                             kind, scheme, fast):
    # with V = {0}, the support of block i's lazy step k in direction d is
    # sum_j rho(((Phi^k)_i^T d)_j, X0_j) over the decomposed initial blocks;
    # row r of L holds the direction d of (k, i, d) = asked[r]
    n, N = M.shape[0], 6
    rng = np.random.default_rng(32)
    sys = DiscreteSystem(phi, random_set(rng, kind, n, 1.0),
                         Singleton(np.zeros(n)), 0.1)
    assert sys.phi.is_sparse == phi.is_sparse
    bs = BlockStructure(n)
    X0 = decompose(sys.x_init, bs, scheme)
    asked = [(k, i, di) for k in range(N) for i in range(bs.b)
             for di in rng.standard_normal((3, bs.size(i)))]
    L = np.zeros((len(asked), n))
    for d, (_, i, di) in zip(L, asked):
        d[bs.slice(i)] = di
    if fast is None:
        supports = list(_lazy_supports(sys, N, L, scheme))
    else:
        supports = list(generic_tube(sys, N, scheme=scheme, lazy=True).supports(L))
    for r, (k, i, di) in enumerate(asked):
        g = np.linalg.matrix_power(M, k)[bs.slice(i)].T @ di
        want = sum(X0[j].support_function(g[bs.slice(j)]) for j in range(bs.b))
        got = supports[k][r]
        if k > 0 and i == zero_block:
            assert got == 0.0
        else:
            npt.assert_allclose(got, want, rtol=1e-12, atol=0.0)
