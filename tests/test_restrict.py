"""Runs cut to the block closure of the blocks a command reads.

`linalg.block_closure` walks A's pattern from rows to columns,
`discretize.restrict` cuts the continuous system to the closure and
`scenario.restrict_property` cuts the property.  The cut run must agree
with the run on the whole system: box hulls, verdicts and oracle supports
alike.  `reach`, `check` and `compare` take the cut run, and on a coupled
system, whose closure is every block, they run the whole system as it is.
"""

import contextlib
import io
import json
import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reachdec.cli
import reachdec.reach
from reachdec import (
    And,
    Atom,
    BallP,
    BlockMatrix,
    BlockStructure,
    BoxDirections,
    ContinuousSystem,
    DimensionError,
    EpsilonClose,
    Hyperrectangle,
    InputError,
    Or,
    SafetyProperty,
    Singleton,
    check_property,
    discretize,
    reach_decomposed,
    reach_decomposed_varying,
    reach_nondecomposed,
    zero_set,
)
from reachdec.discretize import restrict
from reachdec.linalg import block_closure
from reachdec.scenario import property_blocks, restrict_property

from conftest import write_large_decoupled
from test_emit_cli import STABLE_A, stable_scenario, write_scenario

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)


def tube_of(dsys, N, tracked, scheme):
    run = reach_decomposed if dsys.constant_input else reach_decomposed_varying
    return run(dsys, N, tracked=tracked, scheme=scheme)


def system_scale(dsys, N):
    """The largest bound of the box tube of every block.  The dense-time
    bloat is widened by 1e-12 of the largest radius of the system it is
    computed on (``discretize.BLOAT_MARGIN``), so the cut and the whole
    runs agree to 1e-12 of this scale, not of each bound."""
    tube = tube_of(dsys, N, None, BoxDirections())
    return max(float(np.abs(np.concatenate([h.low, h.high])).max())
               for k in range(N) for i in tube.tracked
               for h in [tube.box_hull(k, i)])


def assert_hulls_agree(full, cut, kept, scale):
    """The hulls of every tracked block of ``full`` and of its number in
    ``cut`` agree to 1e-12, relative to each bound and to ``scale``."""
    for k in range(full.n_steps):
        for i in full.tracked:
            want, got = full.box_hull(k, i), cut.box_hull(k, kept.index(i))
            for a, b in ((got.low, want.low), (got.high, want.high)):
                npt.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


# ----------------------------------------------------------------------
# the closure
# ----------------------------------------------------------------------

def test_block_closure_walks_rows_to_columns():
    # block 0 reads block 1, block 1 reads block 3, block 2 reads block 0
    # and block 4 (one coordinate) reads nothing else
    A = np.diag(-np.ones(9))
    A[1, 2] = A[3, 7] = A[4, 0] = 0.5
    for M in (A, sp.csr_array(A)):
        assert block_closure(M, [0]) == (0, 1, 3)
        assert block_closure(M, [2]) == (0, 1, 2, 3)
        assert block_closure(M, [4]) == (4,)
        assert block_closure(M, [3, 4]) == (3, 4)
        assert block_closure(M, [2, 4]) == (0, 1, 2, 3, 4)
        assert block_closure(M, []) == ()
    # a stored zero of a CSR matrix counts as read, a dense zero does not
    rows, cols = np.nonzero(A)
    S = sp.csr_array((np.append(A[rows, cols], 0.0),
                      (np.append(rows, 4), np.append(cols, 8))), shape=A.shape)
    assert S.nnz == 13
    assert block_closure(S, [2]) == (0, 1, 2, 3, 4)
    assert block_closure(S.toarray(), [2]) == (0, 1, 2, 3)



def test_block_closure_refuses_blocks_out_of_range():
    # a negative index would wrap to a block from the end, and one past the
    # last block would index nothing: both are refused, whatever else is
    # asked for alongside them
    A = np.diag(-np.ones(6))
    for M in (A, sp.csr_array(A)):
        for blocks in ([-1], [-3], [3], [0, 3]):
            with pytest.raises(DimensionError) as err:
                block_closure(M, blocks)
            assert (err.value.tag(), str(err.value)) == (
                "error:linalg:dimension",
                f"block_closure: block {blocks[-1]} out of range (3 blocks)")
        assert block_closure(M, [2, 0]) == (0, 2)

def test_restrict_keeps_the_order_and_the_trailing_block():
    A = np.diag(-np.ones(5))
    A[0, 4] = 1.0                       # block 0 reads the one-coordinate block 2
    X0 = Hyperrectangle(np.arange(5.0), np.full(5, 0.1))
    sys = ContinuousSystem(A, X0, U=Singleton(np.arange(5.0) / 10))
    cut, kept = restrict(sys, [0])
    assert kept == (0, 2)
    npt.assert_array_equal(cut.A.to_dense(), [[-1, 0, 1], [0, -1, 0], [0, 0, -1]])
    npt.assert_array_equal(cut.X0.center, [0.0, 1.0, 4.0])
    npt.assert_array_equal(cut.U.point, [0.0, 0.1, 0.4])
    # with B, the inputs stay and B loses the rows outside the closure
    B = np.arange(10.0).reshape(5, 2)
    sys = ContinuousSystem(A, X0, B=B, U=[Singleton([1.0, 2.0])] * 3)
    cut, kept = restrict(sys, [0])
    npt.assert_array_equal(cut.B.to_dense(), B[[0, 1, 4]])
    assert all(a is b for a, b in zip(cut.U, sys.U))
    # the closure of every block is the system itself
    assert restrict(sys, [1, 2])[0] is not sys
    assert restrict(sys, [0, 1])[0] is sys
    # boxes and points are cut by slicing; other sets are not cut
    ball = ContinuousSystem(A, BallP(np.zeros(5), 1.0, 2.0))
    assert restrict(ball, [0, 1])[0] is ball
    with pytest.raises(InputError, match="cannot cut a BallP"):
        restrict(ball, [0])


# ----------------------------------------------------------------------
# the cut run against the whole run
# ----------------------------------------------------------------------

def random_set(rng, kind, dim, scale):
    if kind == "zero":
        return zero_set(dim)
    center = rng.uniform(-scale, scale, dim)
    if kind == "point":
        return Singleton(center)
    return Hyperrectangle(center, rng.uniform(0.0, scale, dim))


@st.composite
def cases(draw):
    """A block-sparse system whose tracked block c0 reads c1, which reads
    c2 (the closure is two levels deep); the other blocks may read any
    block, but no block of the chain reads them.  With a property on the
    chain's state or through an output matrix, with or without a
    feedthrough."""
    n = draw(st.integers(7, 12))
    bs = BlockStructure(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chain = [int(i) for i in rng.permutation(bs.b)[:3]]
    last = bs.b - 1
    if n % 2:       # the one-coordinate block inside or outside the closure
        inside = draw(st.booleans())
        if inside and last not in chain:
            chain[int(rng.integers(3))] = last
        elif not inside and last in chain:
            chain[chain.index(last)] = next(i for i in range(bs.b)
                                            if i not in chain)
    rest = [i for i in range(bs.b) if i not in chain]
    A = np.zeros((n, n))

    def couple(i, j, scale):
        A[bs.slice(i), bs.slice(j)] = scale * rng.standard_normal(
            (bs.size(i), bs.size(j)))

    for i in range(bs.b):
        couple(i, i, 0.5)
        A[bs.slice(i), bs.slice(i)] -= np.eye(bs.size(i))
    couple(chain[0], chain[1], 1.0)
    couple(chain[1], chain[2], 1.0)
    if draw(st.booleans()):
        couple(chain[2], chain[0], 1.0)
    for i in rest:
        for j in rng.choice(bs.b, size=2, replace=False):
            couple(i, int(j), 1.0)
    sparse = draw(st.booleans())

    with_b = draw(st.booleans())
    m = int(rng.integers(1, 4)) if with_b else n
    B = None
    if with_b:
        B = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.6)
    N = draw(st.integers(2, 6))
    u_kind = draw(st.sampled_from(["none", "box", "point", "zero"]))
    if u_kind == "none":
        U = None
    elif draw(st.booleans()):
        U = [random_set(rng, u_kind, m, 0.2) for _ in range(N)]
    else:
        U = random_set(rng, u_kind, m, 0.2)
    X0 = random_set(rng, draw(st.sampled_from(["box", "point", "zero"])), n, 1.0)
    sys = ContinuousSystem(BlockMatrix(sp.csr_array(A)) if sparse else A,
                           X0, B=B, U=U)

    tracked = (chain[0],) if draw(st.booleans()) else tuple(sorted(chain[:2]))
    coords = bs.coords([chain[0]])
    atoms = []
    C = D = None
    if draw(st.booleans()):        # y = x
        for _ in range(2):
            c = np.zeros(n)
            c[coords] = rng.standard_normal(coords.size)
            atoms.append(Atom(c, rng.uniform(-1.0, 2.0)))
    else:
        C = np.zeros((2, n))
        C[:, bs.coords(chain[:2])] = rng.standard_normal((2, bs.coords(chain[:2]).size))
        if U is not None and draw(st.booleans()):
            # without B the feedthrough reads a block outside the chain
            D = np.zeros((2, m))
            cols = rng.choice(m, size=min(m, 2), replace=False) if with_b \
                else bs.coords([rest[0]])
            D[:, cols] = rng.standard_normal((2, len(cols)))
        for _ in range(2):
            atoms.append(Atom(rng.standard_normal(2), rng.uniform(-1.0, 2.0)))
    formula = (And if draw(st.booleans()) else Or)(atoms)
    prop = SafetyProperty(formula, C=C, D=D)
    scheme = draw(st.sampled_from([BoxDirections(), EpsilonClose(1e-2)]))
    model = draw(st.sampled_from(["dense", "discrete"]))
    return sys, N, tracked, prop, scheme, model, chain


@PROPERTY
@given(cases())
def test_cut_run_agrees_with_the_whole_run(case):
    sys, N, tracked, prop, scheme, model, chain = case
    bs = BlockStructure(sys.n)
    whole = discretize(sys, 0.1, model)
    scale = system_scale(whole, N)

    cut_sys, kept = restrict(sys, tracked)
    assert set(chain) <= set(kept) and len(kept) < bs.b
    dsys = discretize(cut_sys, 0.1, model)
    local = tuple(kept.index(i) for i in tracked)
    assert_hulls_agree(tube_of(whole, N, tracked, scheme),
                       tube_of(dsys, N, local, scheme), kept, scale)

    rng = np.random.default_rng(0)
    L = np.zeros((12, sys.n))
    L[:, bs.coords(tracked)] = rng.standard_normal((12, bs.coords(tracked).size))
    want = reach_nondecomposed(whole, N, L)
    got = reach_nondecomposed(dsys, N, L[:, bs.coords(kept)])
    npt.assert_allclose(got, want, rtol=1e-12,
                        atol=1e-12 * scale * np.abs(L).sum(axis=1).max())

    inputs_are_states = sys.B is None
    cut_sys, kept = restrict(sys, property_blocks(prop, bs, inputs_are_states))
    assert set(chain) <= set(kept)
    cut_prop = restrict_property(prop, bs.coords(kept), inputs_are_states)
    want = check_property(whole, prop, N, scheme=scheme)
    got = check_property(discretize(cut_sys, 0.1, model), cut_prop, N,
                         scheme=scheme)
    assert (got.verified, got.step, got.atom) == (want.verified, want.step,
                                                   want.atom)
    if not want.verified:
        assert got.value == pytest.approx(want.value, rel=1e-12,
                                          abs=1e-12 * scale)


def test_the_walk_from_columns_to_rows_gives_a_wrong_tube():
    # x1' reads x3: block 0 reads block 1, and block 2 reads block 0.
    # Walked from columns to rows, the closure of block 0 would be {0, 2}:
    # it would keep a block that block 0 does not read and drop block 1,
    # whose states drive block 0.
    A = np.diag([-1.0, -1.0, -0.5, -0.5, -1.0])
    A[0, 2] = 2.0
    A[4, 0] = 1.0
    X0 = Hyperrectangle([0.0, 0.0, 1.0, 1.0, 0.0], [0.1] * 5)
    sys = ContinuousSystem(sp.csr_array(A), X0)
    cut, kept = restrict(sys, [0])
    for model in ("dense", "discrete"):
        whole = reach_decomposed(discretize(sys, 0.1, model), 20, tracked=[0])
        part = reach_decomposed(discretize(cut, 0.1, model), 20, tracked=[0])
        # block 1 pushes x1 up from zero
        assert whole.box_hull(19, 0).center[0] > 0.5
        assert_hulls_agree(whole, part, kept, 1.0)
    assert kept == (0, 1)


# ----------------------------------------------------------------------
# the commands
# ----------------------------------------------------------------------

def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = reachdec.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def outputs(scenario, out):
    """stdout and exit code of reach, check and compare, and tube.csv."""
    runs = {cmd: run_cli(cmd, "--scenario", scenario, "--out", out)
            for cmd in ("reach", "check", "compare")}
    return runs, (out / "tube.csv").read_text()


NUMBER = re.compile(r"-?\d+\.?\d*(?:e[-+]\d+)?")


def numbers(text):
    return [float(v) for v in NUMBER.findall(str(text))]


def whole_system(sys, blocks):
    return sys, tuple(range(BlockStructure(sys.n).b))


def test_coupled_scenario_runs_the_whole_system_as_it_is(tmp_path, monkeypatch):
    # STABLE_A couples its two blocks both ways: the closure of either
    # block is both, and the commands must be those of the whole system
    sc = stable_scenario(tmp_path, property="x2 < 0.5", model="dense",
                         U={"box": {"center": [0.0] * 4, "radius": [0.01] * 4}})
    parsed = reachdec.parse_scenario(sc)
    sys = parsed.continuous_system()
    assert restrict(sys, [0])[0] is sys
    assert restrict(sys, [1])[0] is sys
    cut = outputs(sc, tmp_path / "cut")
    monkeypatch.setattr(reachdec.cli, "restrict", whole_system)
    assert outputs(sc, tmp_path / "whole") == cut
    assert cut[0]["check"] == (1, "violated k=3 value=0.563051592 atom=x2 < 0.5\n")


def test_decoupled_scenario_agrees_with_the_whole_system(tmp_path, monkeypatch):
    # block 0 reads block 2 only: the commands run on 4 of 8 coordinates
    A = np.zeros((8, 8))
    for i in range(4):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = STABLE_A[:2, :2]
    A[1, 4] = 0.3
    A[6, 0] = 0.3
    doc = {"A": "A.mtx", "X0": {"box": {"center": np.linspace(-1, 1, 8).tolist(),
                                        "radius": [0.1] * 8}},
           "U": {"box": {"center": [0.0] * 8, "radius": [0.01] * 8}},
           "delta": 0.05, "N": 30, "model": "dense", "property": "x2 < 1.2"}
    sc = write_scenario(tmp_path, doc, {"A": sp.csr_array(A)})
    cut_runs, cut_csv = outputs(sc, tmp_path / "cut")
    monkeypatch.setattr(reachdec.cli, "restrict", whole_system)
    runs, csv = outputs(sc, tmp_path / "whole")
    assert cut_runs["reach"] == runs["reach"] == (0, f"tube N=30 blocks=0 -> "
                                                     "tube.csv\n")
    assert cut_runs["check"] == runs["check"] == (0, "verified N=30\n")
    for ours, theirs in ((cut_csv, csv), (cut_runs["compare"], runs["compare"])):
        assert NUMBER.sub("#", str(ours)) == NUMBER.sub("#", str(theirs))
        npt.assert_allclose(numbers(ours), numbers(theirs), rtol=1e-12,
                            atol=1e-15)


def test_large_decoupled_scenario_runs_on_the_closure(tmp_path, monkeypatch):
    # n = 20 000, but block 0 reads only block 1: the power rows and the
    # oracle must only ever see those 4 coordinates
    sc = write_large_decoupled(tmp_path, 20_000)
    seen = []

    class Powers(reachdec.reach.MatrixPowerState):
        def __init__(self, phi, blocks=None):
            seen.append(("powers", phi.n))
            super().__init__(phi, blocks)

    real_oracle = reachdec.cli.reach_nondecomposed

    def oracle(sys, N, directions):
        seen.append(("oracle", sys.n))
        return real_oracle(sys, N, directions)

    monkeypatch.setattr(reachdec.reach, "MatrixPowerState", Powers)
    monkeypatch.setattr(reachdec.cli, "reach_nondecomposed", oracle)
    runs, csv = outputs(sc, tmp_path / "out")
    assert runs["reach"] == (0, "tube N=40 blocks=0 -> tube.csv\n")
    assert runs["check"] == (0, "verified N=40\n")
    code, text = runs["compare"]
    assert code == 0 and text.splitlines()[-1].startswith("max_gap=")
    assert len(csv.splitlines()) == 41
    assert seen == [("powers", 4), ("powers", 4), ("powers", 4), ("oracle", 4)]


def test_entries_that_sum_past_the_float_range_are_refused_at_load(tmp_path):
    # A is CSR by the block rule and the run reads block 3 alone, so no
    # product ever sees block 0; its repeated entries still sum to inf
    (tmp_path / "A.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n8 8 3\n"
        "1 1 1e308\n1 1 1e308\n8 8 -1.0\n")
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0] * 8, "radius": [0.1] * 8}},
           "delta": 0.1, "N": 4, "model": "dense", "blocks": [3]}
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert run_cli("reach", "--scenario", sc, "--out", tmp_path / "out") == (
        3, "error:linalg:non-finite BlockMatrix: non-finite entries\n")
    assert not (tmp_path / "out").exists()


def test_compare_directions_are_the_one_draw_formula(tmp_path):
    # the rows are drawn one at a time, yet the directions are bitwise those
    # of one (64, n) draw, masked to the tracked coordinates and scaled to
    # unit 1-norm over the whole masked row
    n = 13
    A = np.diag(np.full(n, -0.5))
    A[0, 9] = A[5, 12] = 0.2
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0] * n, "radius": [0.1] * n}},
           "delta": 0.1, "N": 3, "model": "discrete", "blocks": [0, 2, 5],
           "seed": 11}
    sc = reachdec.parse_scenario(write_scenario(tmp_path, doc,
                                                {"A": sp.csr_array(A)}))
    bs = BlockStructure(n)
    tracked = sc.resolve_blocks(bs)
    _, kept = reachdec.cli._restricted(sc, tracked)
    assert tracked == (0, 2, 5) and kept == (0, 2, 4, 5, 6)

    coords, cols = bs.coords(tracked), bs.coords(kept)
    R = np.random.default_rng(11).standard_normal((64, n))
    mask = np.zeros(n, dtype=bool)
    mask[coords] = True
    R[:, ~mask] = 0.0
    norms = np.abs(R).sum(axis=1)
    want = R[norms > 1e-12][:, cols] / norms[norms > 1e-12, None]

    D, n_coord = reachdec.cli._compare_directions(sc, bs, tracked, kept)
    assert n_coord == 2 * coords.size
    npt.assert_array_equal(D[n_coord:], want)
