"""Scenario files: schema validation, set specs, and the property grammar."""

import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from reachdec import (
    And,
    Atom,
    BlockStructure,
    BoxDirections,
    EpsilonClose,
    Hyperrectangle,
    InputError,
    Or,
    SafetyProperty,
    Singleton,
    parse_property,
    parse_scenario,
    parse_scheme,
)
from reachdec.linalg import write_matrix_market
from reachdec import scenario
from reachdec.scenario import property_blocks, set_from_spec


DEFAULT_A = np.array([[0.0, -1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, -0.5, 0.0],
                      [0.0, 0.2, 0.0, -0.3]])


def write_scenario(tmp_path, doc, matrices=None):
    matrices = {"A": DEFAULT_A, **(matrices or {})}
    for key, M in matrices.items():
        if M is not None and isinstance(doc.get(key), str):
            write_matrix_market(tmp_path / doc[key], M)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def base_doc(**extra):
    doc = {"A": "A.mtx",
           "X0": {"box": {"center": [1.0, 0.0, 0.0, 0.0],
                          "radius": [0.1, 0.1, 0.1, 0.1]}},
           "delta": 0.05, "N": 10, "model": "dense"}
    doc.update(extra)
    return doc


def fails_with(tmp_path, doc, fragment, matrices=None):
    path = write_scenario(tmp_path, doc, matrices)
    with pytest.raises(InputError) as exc:
        parse_scenario(path)
    assert fragment in str(exc.value), str(exc.value)


# ----------------------------------------------------------------------
# whole scenarios
# ----------------------------------------------------------------------

def test_minimal_scenario(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, base_doc()))
    assert sc.name == "scenario"          # falls back to the file stem
    assert sc.n == 4
    npt.assert_allclose(sc.A.to_dense(), DEFAULT_A)
    assert sc.B is None and sc.C is None and sc.D is None and sc.U is None
    assert isinstance(sc.X0, Hyperrectangle)
    assert sc.delta == 0.05 and sc.N == 10 and sc.model == "dense"
    assert sc.blocks is None and sc.prop is None and sc.seed == 0
    assert isinstance(sc.scheme, BoxDirections)
    assert sc.resolve_blocks(BlockStructure(4)) == (0, 1)
    cs = sc.continuous_system()
    assert cs.n == 4 and cs.U is None


def test_full_scenario(tmp_path):
    doc = base_doc(
        name="spring",
        B="B.mtx",
        U={"box": {"center": [0.0], "radius": [0.5]}},
        C="C.mtx",
        D="D.mtx",
        property="y1 <= 2 and y2 < 1",
        blocks=[1, 0, 1],
        scheme="eps:0.01",
        seed=9,
        model="discrete",
    )
    mats = {"B": np.array([[1.0], [0.0], [0.0], [0.0]]),
            "C": np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
            "D": np.array([[0.5], [0.0]])}
    sc = parse_scenario(write_scenario(tmp_path, doc, mats))
    assert sc.name == "spring"
    assert sc.B.shape == (4, 1) and sc.C.shape == (2, 4) and sc.D.shape == (2, 1)
    assert isinstance(sc.U, Hyperrectangle) and sc.U.dim == 1
    assert sc.blocks == (0, 1)            # deduplicated and sorted
    assert isinstance(sc.scheme, EpsilonClose) and sc.scheme.eps == 0.01
    assert sc.seed == 9 and sc.model == "discrete"
    assert isinstance(sc.prop, SafetyProperty)
    atoms = sc.prop.atoms()
    assert [a.label for a in atoms] == ["y1 <= 2", "y2 < 1"]
    assert sc.resolve_blocks(BlockStructure(4)) == (0, 1)


def test_scenario_file_problems(tmp_path):
    with pytest.raises(InputError) as exc:
        parse_scenario(tmp_path / "nope.json")
    assert "cannot read scenario" in str(exc.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError) as exc:
        parse_scenario(bad)
    assert "not valid JSON" in str(exc.value)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InputError) as exc:
        parse_scenario(arr)
    assert "$: expected an object" in str(exc.value)


def test_scenario_schema_errors(tmp_path):
    fails_with(tmp_path, base_doc(turbo=True), "$.turbo: unknown field")
    doc = base_doc()
    del doc["delta"]
    fails_with(tmp_path, doc, "$.delta: required field missing")
    fails_with(tmp_path, base_doc(model="hybrid"), "$.model")
    fails_with(tmp_path, base_doc(delta=0), "$.delta: must be positive")
    fails_with(tmp_path, base_doc(delta="fast"), "$.delta: expected a number")
    fails_with(tmp_path, base_doc(delta=True), "$.delta: expected a number")
    fails_with(tmp_path, base_doc(N=0), "$.N: must be at least 1")
    fails_with(tmp_path, base_doc(N=2.5), "$.N: expected an integer")
    fails_with(tmp_path, base_doc(seed=-1), "$.seed")
    fails_with(tmp_path, base_doc(name=42), "$.name: expected a string")
    fails_with(tmp_path, base_doc(A=7), "$.A: expected a file path string")


def test_scenario_matrix_errors(tmp_path):
    fails_with(tmp_path, base_doc(), "$.A: must be square",
               matrices={"A": np.ones((2, 3))})
    fails_with(tmp_path, base_doc(B="B.mtx"), "$.B: has 2 rows",
               matrices={"B": np.ones((2, 1))})
    fails_with(tmp_path, base_doc(C="C.mtx"), "$.C: has 3 columns",
               matrices={"C": np.ones((1, 3))})
    fails_with(tmp_path, base_doc(D="D.mtx"),
               "$.D: feedthrough needs an output matrix C",
               matrices={"D": np.ones((1, 4))})
    fails_with(tmp_path, base_doc(C="C.mtx", D="D.mtx"), "$.D: has 2 rows",
               matrices={"C": np.ones((1, 4)), "D": np.ones((2, 4))})
    fails_with(tmp_path, base_doc(C="C.mtx", D="D.mtx"), "$.D: has 2 columns",
               matrices={"C": np.ones((1, 4)), "D": np.ones((1, 2)),
                         "B": None})
    ok_U = {"box": {"center": [0.0] * 4, "radius": [1.0] * 4}}
    fails_with(tmp_path, base_doc(C="C.mtx", D="D.mtx"),
               "$.D: feedthrough needs an input set U",
               matrices={"C": np.ones((1, 4)), "D": np.ones((1, 4))})
    doc = base_doc(C="C.mtx", D="D.mtx", U=ok_U)
    sc = parse_scenario(write_scenario(
        tmp_path, doc, {"C": np.ones((1, 4)), "D": np.ones((1, 4))}))
    assert sc.D.shape == (1, 4)


def test_scenario_set_dimension_checks(tmp_path):
    doc = base_doc()
    doc["X0"] = {"point": [1.0, 2.0]}
    fails_with(tmp_path, doc, "$.X0: has dimension 2")
    fails_with(tmp_path, base_doc(U={"point": [0.0, 0.0]}),
               "$.U: has dimension 2")     # no B: inputs live in state space
    doc = base_doc(B="B.mtx", U={"point": [0.0, 0.0]})
    fails_with(tmp_path, doc, "$.U: has dimension 2",
               matrices={"B": np.ones((4, 1))})


def test_scenario_input_sequences(tmp_path):
    entry = {"box": {"center": [0.0] * 4, "radius": [0.1] * 4}}
    doc = base_doc(N=3, U={"sequence": [entry, entry, entry]})
    sc = parse_scenario(write_scenario(tmp_path, doc))
    assert isinstance(sc.U, list) and len(sc.U) == 3
    assert all(isinstance(Uk, Hyperrectangle) for Uk in sc.U)

    doc = base_doc(N=3, U={"sequence": [entry, entry]})
    fails_with(tmp_path, doc, "$.U.sequence: has 2 entries")
    doc = base_doc(N=1, U={"sequence": [entry], "box": entry["box"]})
    fails_with(tmp_path, doc, "$.U: a sequence spec has no other fields")
    short = {"point": [0.0]}
    doc = base_doc(N=2, U={"sequence": [entry, short]})
    fails_with(tmp_path, doc, "$.U.sequence[1]: has dimension 1")
    doc = base_doc(N=2, U={"sequence": []})
    fails_with(tmp_path, doc, "$.U.sequence: expected a nonempty list")


def test_scenario_blocks_and_variables(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, base_doc(blocks=[1])))
    assert sc.blocks == (1,)
    assert sc.resolve_blocks(BlockStructure(4)) == (1,)
    sc = parse_scenario(write_scenario(tmp_path, base_doc(variables=[3])))
    assert sc.blocks == (1,)              # variable x3 sits in block 1
    sc = parse_scenario(write_scenario(tmp_path,
                                       base_doc(variables=[1, 4, 2])))
    assert sc.blocks == (0, 1)

    fails_with(tmp_path, base_doc(blocks=[2]), "$.blocks[0]: block 2 out of")
    fails_with(tmp_path, base_doc(blocks=[-1]), "$.blocks[0]")
    fails_with(tmp_path, base_doc(blocks=[]), "$.blocks")
    fails_with(tmp_path, base_doc(variables=[5]),
               "$.variables[0]: variable 5 out of")
    fails_with(tmp_path, base_doc(variables=[0]), "$.variables[0]")
    fails_with(tmp_path, base_doc(blocks=[0], variables=[1]),
               "either blocks or variables")


def test_scenario_property_resolution(tmp_path):
    # without explicit blocks, the property picks them
    doc = base_doc(property="x3 < 5")
    sc = parse_scenario(write_scenario(tmp_path, doc))
    assert sc.blocks is None
    assert sc.resolve_blocks(BlockStructure(4)) == (1,)
    # explicit blocks win
    doc = base_doc(property="x3 < 5", blocks=[0])
    sc = parse_scenario(write_scenario(tmp_path, doc))
    assert sc.resolve_blocks(BlockStructure(4)) == (0,)
    # state variables are rejected when C is present, and vice versa
    fails_with(tmp_path, base_doc(C="C.mtx", property="x1 < 1"),
               "use y<i>", matrices={"C": np.ones((1, 4))})
    fails_with(tmp_path, base_doc(property="y1 < 1"),
               "output variables need an output matrix")


# ----------------------------------------------------------------------
# set specs
# ----------------------------------------------------------------------

def test_set_spec_kinds():
    box = set_from_spec({"box": {"center": [1.0, 2.0], "radius": [0.5, 0.0]}},
                        "$.X0")
    assert isinstance(box, Hyperrectangle)
    npt.assert_array_equal(box.center, [1.0, 2.0])
    iv = set_from_spec({"intervals": [[0.0, 1.0], [2.0, 2.0]]}, "$.X0")
    npt.assert_allclose(iv.center, [0.5, 2.0])
    npt.assert_allclose(iv.radius, [0.5, 0.0])
    pt = set_from_spec({"point": [3.0, -1.0]}, "$.X0")
    assert isinstance(pt, Singleton)
    npt.assert_array_equal(pt.point, [3.0, -1.0])
    z = set_from_spec({"zero": 3}, "$.U")
    assert z.dim == 3
    npt.assert_array_equal(z.support_batch(np.eye(3)), np.zeros(3))


def test_set_spec_errors():
    cases = [
        ({"box": {"center": [0.0]}, "point": [0.0]}, "exactly one of"),
        ({"blob": [1.0]}, "$.X0.blob: unknown field"),
        ({"box": {"center": [0.0]}}, "center and radius"),
        ({"box": {"center": [0.0, 0.0], "radius": [1.0]}},
         "center has length 2, radius 1"),
        ({"box": {"center": [0.0], "radius": [-1.0]}}, "nonnegative"),
        ({"intervals": [[0.0, 1.0], [2.0, 1.0]]},
         "$.X0.intervals[1]: lower bound 2.0 exceeds"),
        ({"intervals": [[0.0]]}, "expected a [lo, hi] pair"),
        ({"intervals": []}, "nonempty list"),
        ({"point": []}, "nonempty list of numbers"),
        ({"zero": 0}, "at least 1"),
        ({"zero": 2.5}, "expected an integer"),
        ([1.0], "expected an object"),
    ]
    for spec, fragment in cases:
        with pytest.raises(InputError) as exc:
            set_from_spec(spec, "$.X0")
        assert fragment in str(exc.value), (spec, str(exc.value))


def test_number_lists_convert_as_the_entry_loop():
    # one conversion of the whole list gives the floats that converting
    # entry by entry gives, integers beyond int64 included
    lists = [[0.5, -0.0, 5e-324, 1.7976931348623157e308],
             [3, -7, 2 ** 53 + 1, 2 ** 63 + 1, -(2 ** 70), 10 ** 300],
             [1, 2.5, -3, 1e-300], [0]]
    rng = np.random.default_rng(5)
    lists.append(rng.standard_normal(50).tolist())
    lists.append(rng.integers(-10 ** 9, 10 ** 9, 50).tolist())
    for val in lists:
        got = scenario._vector(val, "$.v")
        want = np.array([scenario._number(v, f"$.v[{i}]")
                         for i, v in enumerate(val)])
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_number_lists_name_the_first_bad_entry(tmp_path):
    cases = [
        ([1.0, True, 0.0, 0.0], "$.X0.box.center[1]: expected a number, got bool"),
        ([1.0, 2.0, "x", 4.0], "$.X0.box.center[2]: expected a number, got str"),
        ([float("nan"), 1.0, 2.0, 3.0], "$.X0.box.center[0]: must be finite"),
        ([1.0, float("inf"), 2.0, 3.0], "$.X0.box.center[1]: must be finite"),
        ([1.0, 2.0, -10 ** 400, 3.0], "$.X0.box.center[2]: must be finite"),
        ([1, 2, 3, None], "$.X0.box.center[3]: expected a number, got NoneType"),
        ([1.0, [2.0], 3.0, 4.0], "$.X0.box.center[1]: expected a number, got list"),
    ]
    for center, message in cases:
        doc = base_doc()
        doc["X0"]["box"]["center"] = center
        with pytest.raises(InputError) as exc:
            parse_scenario(write_scenario(tmp_path, doc))
        assert str(exc.value) == message
    # the JSON words NaN and Infinity, which Python's json reads as floats
    path = write_scenario(tmp_path, base_doc())
    text = path.read_text()
    for word in ("NaN", "Infinity", "-Infinity"):
        path.write_text(text.replace("[0.1, 0.1, 0.1, 0.1]",
                                     f"[0.1, 0.1, {word}, 0.1]"))
        with pytest.raises(InputError) as exc:
            parse_scenario(path)
        assert str(exc.value) == "$.X0.box.radius[2]: must be finite"


def test_scalar_beyond_the_float_range_is_not_finite(tmp_path):
    for field, value in (("delta", 10 ** 400), ("delta", -10 ** 400)):
        with pytest.raises(InputError) as exc:
            parse_scenario(write_scenario(tmp_path, base_doc(**{field: value})))
        assert str(exc.value) == f"$.{field}: must be finite"
    with pytest.raises(InputError) as exc:
        set_from_spec({"intervals": [[0.0, 1.0], [0.0, 10 ** 400]]}, "$.U")
    assert str(exc.value) == "$.U.intervals[1][1]: must be finite"


def box_entry(center, radius):
    return {"box": {"center": center, "radius": radius}}


def test_box_sequence_is_the_entry_by_entry_parse(tmp_path):
    # one conversion of all centers and radii gives, bit for bit, the boxes
    # that parsing entry by entry gives, as read-only rows
    rng = np.random.default_rng(17)
    sequences = [
        [box_entry([0.5, -0.0, 5e-324, 1.7976931348623157e308],
                   [0.0, -0.0, 1e-300, 0.0]),
         box_entry([3, -7, 2 ** 53 + 1, 2 ** 63 + 1],
                   [1, 0, 10 ** 300, 2 ** 70])],
        # beyond the quick bound on |c| + r, within the entrywise one
        [box_entry([1.7e308, -1.7e308, 0.0], [0.0, 1e292, 1.7e308]),
         box_entry([1, 2.5, 3], [0, 1e-300, 4])],
        [box_entry(rng.standard_normal(6).tolist(),
                   rng.uniform(0.0, 1.0, 6).tolist()) for _ in range(20)],
    ]
    for seq in sequences:
        got = scenario._box_sequence(seq)
        want = [set_from_spec(s, f"$.U.sequence[{i}]") for i, s in enumerate(seq)]
        assert len(got) == len(want)
        for G, W in zip(got, want):
            assert isinstance(G, Hyperrectangle)
            assert G.center.tobytes() == W.center.tobytes()
            assert G.radius.tobytes() == W.radius.tobytes()
            assert not (G.center.flags.writeable or G.radius.flags.writeable)
    # and parse_scenario holds those boxes
    seq = [box_entry([0.1, 2, -0.0, 1e-3], [0.5, 0, 0.25, 3])] * 3
    sc = parse_scenario(write_scenario(tmp_path, base_doc(N=3, U={"sequence": seq})))
    for Uk in sc.U:
        assert Uk.center.tobytes() == np.array([0.1, 2.0, -0.0, 1e-3]).tobytes()
        assert Uk.radius.tobytes() == np.array([0.5, 0.0, 0.25, 3.0]).tobytes()


def test_box_sequence_leaves_any_other_sequence_to_the_entry_parse(tmp_path):
    good = box_entry([0.0, 0.0], [0.1, 0.1])
    others = [
        box_entry([0.0, True], [0.1, 0.1]),                 # a bool
        box_entry([0.0, "1"], [0.1, 0.1]),                  # a string
        box_entry([0.0, [1.0]], [0.1, 0.1]),                # a nested list
        box_entry([0.0, 0.0], [0.1, -0.1]),                 # a negative radius
        box_entry([0.0, 0.0, 0.0], [0.1, 0.1, 0.1]),        # another length
        box_entry([0.0, 0.0], [0.1]),                       # center vs radius
        box_entry([], []),                                  # empty
        box_entry([0.0, 10 ** 400], [0.1, 0.1]),            # beyond a float
        box_entry([0.0, float("nan")], [0.1, 0.1]),
        box_entry([0.0, 0.0], [0.1, float("inf")]),
        box_entry([1e308, 0.0], [1e308, 0.1]),              # c + r overflows
        box_entry((0.0, 0.0), [0.1, 0.1]),                  # not a list
        {"box": {"center": [0.0, 0.0], "radius": [0.1, 0.1], "x": 1}},
        {"box": good["box"], "point": [0.0, 0.0]},
        {"point": [0.0, 0.0]},
        {"intervals": [[0.0, 1.0], [0.0, 1.0]]},
        [0.0, 0.0],
    ]
    for other in others:
        assert scenario._box_sequence([good, other, good]) is None, other
    # a mixed sequence of boxes and points is parsed entry by entry
    seq = [box_entry([0.0] * 4, [0.1] * 4), {"point": [1.0, 2.0, 3.0, 4.0]},
           box_entry([1.0] * 4, [0.0] * 4)]
    sc = parse_scenario(write_scenario(tmp_path, base_doc(N=3, U={"sequence": seq})))
    assert [type(Uk) for Uk in sc.U] == [Hyperrectangle, Singleton, Hyperrectangle]
    npt.assert_array_equal(sc.U[1].point, [1.0, 2.0, 3.0, 4.0])


def test_scheme_strings():
    assert isinstance(parse_scheme("box"), BoxDirections)
    es = parse_scheme("eps:0.25")
    assert isinstance(es, EpsilonClose) and es.eps == 0.25
    for bad, fragment in [("eps:abc", "cannot parse epsilon"),
                          ("eps:-1", "must be positive"),
                          ("eps:inf", "must be positive"),
                          ("eps:1e400", "must be positive"),
                          ("eps:nan", "must be positive"),
                          ("polytope", "unknown scheme"),
                          (42, "expected a string")]:
        with pytest.raises(InputError) as exc:
            parse_scheme(bad)
        assert fragment in str(exc.value)


# ----------------------------------------------------------------------
# property grammar
# ----------------------------------------------------------------------

def test_property_single_atom():
    a = parse_property("x1 < 2", 3)
    assert isinstance(a, Atom)
    npt.assert_array_equal(a.coeffs, [1.0, 0.0, 0.0])
    assert a.bound == 2.0 and a.strict and a.label == "x1 < 2"
    assert a.holds(1.999) and not a.holds(2.0)

    b = parse_property("2*x1 - 3*x2 <= 10", 2)
    npt.assert_array_equal(b.coeffs, [2.0, -3.0])
    assert not b.strict and b.holds(10.0)


def test_property_flipped_comparisons():
    a = parse_property("x1 >= -1", 2)
    npt.assert_array_equal(a.coeffs, [-1.0, 0.0])
    assert a.bound == 1.0 and not a.strict
    b = parse_property("x2 > 0.5", 2)
    npt.assert_array_equal(b.coeffs, [0.0, -1.0])
    assert b.bound == -0.5 and b.strict


def test_property_coefficient_forms():
    a = parse_property("1.5e-2*x1 + .5*x2 - x3 < +4", 3)
    npt.assert_allclose(a.coeffs, [0.015, 0.5, -1.0])
    assert a.bound == 4.0
    b = parse_property("2 x1 < 3", 1)        # the star is optional
    npt.assert_array_equal(b.coeffs, [2.0])
    c = parse_property("x1 + x1 < 1", 1)     # repeated terms accumulate
    npt.assert_array_equal(c.coeffs, [2.0])
    d = parse_property("x1 < -2.5", 1)
    assert d.bound == -2.5


def test_property_label_whitespace_normalized():
    a = parse_property("  2*x1  \t -  1*x2 <    3  ", 2)
    assert a.label == "2*x1 - 1*x2 < 3"


def test_property_boolean_structure():
    f = parse_property("x1 < 1 and x2 < 2 or x1 < 0", 2)
    assert isinstance(f, Or) and len(f.children) == 2
    assert isinstance(f.children[0], And)
    assert isinstance(f.children[1], Atom)
    g = parse_property("(x1 < 1 or x2 < 1) and x1 < 5", 2)
    assert isinstance(g, And) and len(g.children) == 2
    assert isinstance(g.children[0], Or)


def test_property_output_variables():
    a = parse_property("y2 <= 0", 3, output_vars=True)
    npt.assert_array_equal(a.coeffs, [0.0, 1.0, 0.0])
    with pytest.raises(InputError) as exc:
        parse_property("x1 < 1", 3, output_vars=True)
    assert "use y<i>" in str(exc.value)
    with pytest.raises(InputError):
        parse_property("y1 < 1", 3, output_vars=False)


def test_property_grammar_errors():
    cases = [
        ("", 2, "nonempty string"),
        ("   ", 2, "nonempty string"),
        ("x1 <", 2, "right-hand side"),
        ("x1 ? 2", 2, "cannot read"),
        ("x1 + < 2", 2, "expected a term"),
        ("2 < 3", 2, "expected a variable"),
        ("x1 < 2 x2", 2, "unexpected"),
        ("x1 - x1 < 1", 2, "nonzero coefficient"),
        ("(x1 < 1", 2, "expected ')'"),
        ("x3 < 1", 2, "out of range 1..2"),
        ("x0 < 1", 2, "out of range"),
        ("x1 and", 2, "expected a comparison"),
        ("x1 < 1 or", 2, "expected a term"),
    ]
    for text, dim, fragment in cases:
        with pytest.raises(InputError) as exc:
            parse_property(text, dim)
        assert fragment in str(exc.value), (text, str(exc.value))


def test_property_refuses_numbers_that_overflow():
    # a number beyond the float range is bad input at its position, as for
    # the other scenario fields; terms that overflow only when summed are
    # refused by Atom, without a numpy warning on the way
    for text, pos in (("1e999*x1 < 10", 0), ("x1 < 1e999", 5),
                      ("x1 < 1 or x2 > -1e400", 16)):
        with pytest.raises(InputError) as exc:
            parse_property(text, 2)
        number = text[pos:].split()[0].split("*")[0]
        assert (exc.value.tag(), str(exc.value)) == (
            "error:cli:schema",
            f"property: number {number!r} is not finite at position {pos}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as exc:
            parse_property("1e308*x1 + 1e308*x1 < 1", 2)
    assert (exc.value.tag(), str(exc.value)) == (
        "error:reach:schema", "Atom: coefficients and bound must be finite")
    assert parse_property("1e308*x1 < 1.7e308", 1).bound == 1.7e308


def test_property_blocks_pullback():
    bs = BlockStructure(6)
    direct = SafetyProperty(parse_property("x1 < 1 and x5 < 2", 6))
    assert property_blocks(direct, bs) == (0, 2)
    C = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    through = SafetyProperty(parse_property("y1 < 1", 1, output_vars=True), C=C)
    assert property_blocks(through, bs) == (1,)
    # a zero output matrix touches nothing: fall back to all blocks
    none = SafetyProperty(parse_property("y1 < 1", 1, output_vars=True),
                          C=np.zeros((1, 6)))
    assert property_blocks(none, bs) == (0, 1, 2)
