"""Tube serialization and the command-line driver."""

import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

import reachdec
from reachdec import (
    DiscreteSystem,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    InputError,
    discretize,
    reach_decomposed,
)
from reachdec.cli import main
from reachdec.emit import (
    CSV_COLUMNS,
    read_tube_csv,
    tube_has_polygons,
    write_tube_csv,
    write_tube_poly,
    write_tube_svg,
)
from reachdec.linalg import read_matrix_market, write_matrix_market

from conftest import write_large_decoupled


STABLE_A = np.array([[-0.5, -1.0, 0.1, 0.0],
                     [1.0, -0.5, 0.0, 0.0],
                     [0.0, 0.0, -0.3, -0.8],
                     [0.05, 0.0, 0.8, -0.3]])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def demo_tube(n=4, N=6, model="discrete", scheme=None, rotate=True):
    phi = np.eye(n) * 0.9
    if rotate:
        phi[:2, :2] = 0.95 * rotation(0.4)
    X0 = Hyperrectangle(np.linspace(1.0, 2.0, n), np.full(n, 0.25))
    sys = DiscreteSystem(phi, X0, None, 0.1, model=model)
    kwargs = {} if scheme is None else {"scheme": scheme}
    return reach_decomposed(sys, N, **kwargs)


def write_scenario(tmp_path, doc, matrices):
    for key, M in matrices.items():
        write_matrix_market(tmp_path / doc[key], M)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def stable_scenario(tmp_path, **extra):
    doc = {"A": "A.mtx",
           "X0": {"box": {"center": [1.0, 0.0, -0.5, 0.5],
                          "radius": [0.2, 0.2, 0.1, 0.1]}},
           "delta": 0.1, "N": 8, "model": "discrete"}
    doc.update(extra)
    return write_scenario(tmp_path, doc, {"A": STABLE_A})


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def test_csv_round_trip_is_bitwise(tmp_path):
    tube = demo_tube()
    out = tmp_path / "tube.csv"
    write_tube_csv(tube, out)
    times, boxes = read_tube_csv(out)
    assert set(times) == set(range(tube.n_steps))
    for k in range(tube.n_steps):
        assert times[k] == tube.time_interval(k)
        for i in tube.tracked:
            ref = tube.box_hull(k, i)
            lo, hi = boxes[(k, i)]
            npt.assert_array_equal(lo, ref.low)
            npt.assert_array_equal(hi, ref.high)


def test_csv_layout_and_dense_times(tmp_path):
    tube = demo_tube(N=5, model="dense")
    out = tmp_path / "tube.csv"
    write_tube_csv(tube, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 5 * len(tube.tracked)
    for row in rows[1:]:
        assert float(row[2]) - float(row[1]) == pytest.approx(0.1, abs=1e-12)
    times, _ = read_tube_csv(out)
    assert times[3] == tube.time_interval(3) == (pytest.approx(0.3),
                                                 pytest.approx(0.4))


def test_csv_one_dimensional_block(tmp_path):
    tube = demo_tube(n=3, rotate=False)       # blocks of size 2 and 1
    out = tmp_path / "tube.csv"
    write_tube_csv(tube, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    tail = [r for r in rows[1:] if r[3] == "1"]
    assert tail and all(r[6] == "" and r[7] == "" for r in tail)
    _, boxes = read_tube_csv(out)
    assert len(boxes[(0, 1)][0]) == 1
    assert len(boxes[(0, 0)][0]) == 2


def test_csv_read_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    with pytest.raises(InputError):
        read_tube_csv(bad)
    header = ",".join(CSV_COLUMNS)
    bad.write_text(f"{header}\n0,0.0,0.0,0\n")
    with pytest.raises(InputError) as exc:
        read_tube_csv(bad)
    assert "line 2" in str(exc.value)
    bad.write_text(f"{header}\n0,0.0,0.0,0,zero,1.0,,\n")
    with pytest.raises(InputError) as exc:
        read_tube_csv(bad)
    assert "line 2" in str(exc.value)


# ----------------------------------------------------------------------
# polygon sidecar
# ----------------------------------------------------------------------

def test_poly_sidecar_reconstructs_sets(tmp_path):
    tube = demo_tube(scheme=EpsilonClose(0.01))
    assert tube_has_polygons(tube)
    out = tmp_path / "tube.poly"
    write_tube_poly(tube, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["block", "k", "a1", "a2", "b"]
    groups = {}
    for block, k, a1, a2, b in rows[1:]:
        groups.setdefault((int(block), int(k)), []).append(
            (float(a1), float(a2), float(b)))
    rng = np.random.default_rng(300)
    L = rng.standard_normal((100, 2))
    for (i, k), cons in groups.items():
        stored = tube.set_at(k, i)
        assert isinstance(stored, HPolygon)
        # the floats read back are the stored constraints, bit for bit
        normals, offsets = np.array(cons)[:, :2], np.array(cons)[:, 2]
        assert normals.tobytes() == stored.normals.tobytes()
        assert offsets.tobytes() == stored.offsets.tobytes()
        rebuilt = HPolygon(np.array([c[:2] for c in cons]),
                           np.array([c[2] for c in cons]))
        npt.assert_allclose(rebuilt.support_batch(L),
                            stored.support_batch(L), atol=1e-12)
    # every polygon-valued entry shows up
    expect = {(i, k) for k in range(tube.n_steps) for i in tube.tracked
              if isinstance(tube.set_at(k, i), HPolygon)}
    assert set(groups) == expect


def test_box_tube_has_no_polygons():
    assert not tube_has_polygons(demo_tube())


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

def test_svg_structure(tmp_path):
    tube = demo_tube(model="dense")
    out = tmp_path / "block_0.svg"
    write_tube_svg(tube, 0, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 640 400"' in text
    assert text.count("<path") == 2        # one band per variable
    assert ">x1</text>" in text and ">x2</text>" in text
    assert ">t</text>" in text
    write_tube_svg(tube, 1, tmp_path / "block_1.svg")
    b1 = (tmp_path / "block_1.svg").read_text()
    assert ">x3</text>" in b1 and ">x4</text>" in b1


def test_svg_discrete_time_bars(tmp_path):
    tube = demo_tube(model="discrete")
    out = tmp_path / "bars.svg"
    write_tube_svg(tube, 0, out)
    # time points become bars of width 0.8 * delta, so the axis starts at
    # -0.4 * delta
    assert ">-0.04<" in out.read_text()
    with pytest.raises(InputError):
        write_tube_svg(tube, 7, tmp_path / "nope.svg")


# ----------------------------------------------------------------------
# CLI commands (in-process)
# ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_reach_writes_csv(tmp_path, capsys):
    sc = stable_scenario(tmp_path)
    out = tmp_path / "artifacts"
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--out", str(out))
    assert code == 0
    assert "tube N=8 blocks=0,1 -> tube.csv" in text
    times, boxes = read_tube_csv(out / "tube.csv")
    assert len(times) == 8 and len(boxes) == 16   # one row per step and block
    assert not (out / "tube.poly").exists()


def test_cli_reach_formats_and_scheme_override(tmp_path, capsys):
    sc = stable_scenario(tmp_path)
    out = tmp_path / "svg_out"
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--out", str(out), "--format", "svg")
    assert code == 0
    assert (out / "block_0.svg").exists() and (out / "block_1.svg").exists()
    assert not (out / "tube.csv").exists()

    out2 = tmp_path / "both_out"
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--out", str(out2), "--format", "both",
                         "--scheme", "eps:0.001")
    assert code == 0
    for name in ("tube.csv", "tube.poly", "block_0.svg", "block_1.svg"):
        assert (out2 / name).exists(), name
    assert "tube.poly" in text


def test_cli_check_verified_and_violated(tmp_path, capsys):
    zeros = np.zeros((2, 2))
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0, 0.0],
                                        "radius": [0.1, 0.1]}},
           "delta": 0.1, "N": 5, "model": "discrete",
           "property": "x1 < 2"}
    sc = write_scenario(tmp_path, doc, {"A": zeros})
    code, text = run_cli(capsys, "check", "--scenario", str(sc))
    assert code == 0 and "verified N=5" in text

    doc["property"] = "x1 < 0.5"
    sc = write_scenario(tmp_path, doc, {"A": zeros})
    code, text = run_cli(capsys, "check", "--scenario", str(sc))
    assert code == 1
    m = re.search(r"violated k=(\d+) value=([^ ]+) atom=(.*)", text)
    assert m
    assert int(m.group(1)) == 0
    assert float(m.group(2)) == pytest.approx(1.1, abs=1e-12)
    assert m.group(3).strip() == "x1 < 0.5"


def test_cli_check_needs_property(tmp_path, capsys):
    sc = stable_scenario(tmp_path)
    code, text = run_cli(capsys, "check", "--scenario", str(sc))
    assert code == 2
    assert text.startswith("error:cli:schema")
    assert "no property" in text


def test_cli_compare_coordinate_gaps_vanish(tmp_path, capsys):
    # box initial and input sets: the one-shot recurrence loses nothing in
    # coordinate directions, so the reported max gap is numerical noise
    sc = stable_scenario(tmp_path,
                         U={"box": {"center": [0.0] * 4,
                                    "radius": [0.05] * 4}})
    code, text = run_cli(capsys, "compare", "--scenario", str(sc))
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 9                 # 8 steps + summary
    for line in lines[:-1]:
        assert re.fullmatch(
            r"k=\d+ gap=\d\.\d{6}e[+-]\d+ hausdorff=\d\.\d{6}e[+-]\d+", line)
    m = re.fullmatch(r"max_gap=(\d\.\d{6}e[+-]\d+)", lines[-1])
    assert m and float(m.group(1)) <= 1e-9


def test_cli_compare_eps_tube_with_two_blocks(tmp_path, capsys):
    # a coordinate direction of one block is zero on the other, whose
    # polygon has no support in the zero direction: that block adds 0
    sc = stable_scenario(tmp_path, scheme="eps:0.01")
    code, text = run_cli(capsys, "compare", "--scenario", str(sc))
    assert code == 0, text
    m = re.fullmatch(r"max_gap=(\S+)", text.strip().splitlines()[-1])
    assert m
    gap = float(m.group(1))
    assert np.isfinite(gap) and gap >= 0.0


def test_cli_bounds_dominate_measured_gaps(tmp_path, capsys):
    sc = stable_scenario(tmp_path,
                         U={"box": {"center": [0.01] * 4,
                                    "radius": [0.02] * 4}})
    code, text = run_cli(capsys, "bounds", "--scenario", str(sc))
    assert code == 0
    lines = text.strip().splitlines()
    # box X(0) decomposes exactly; the discrete-model input set is a mapped
    # box, so its decomposition error is a small positive number
    head = re.fullmatch(
        r"b=2 K=1 alpha_phi=([\d.eE+-]+) eps_x=0\.000e\+00 "
        r"eps_v=([\d.e+-]+)", lines[0])
    assert head, lines[0]
    assert 0.0 <= float(head.group(2)) < 0.01
    mm = re.fullmatch(r"map bound=([\d.e+-]+) gap=([\d.e+-]+)", lines[1])
    assert mm and float(mm.group(2)) <= float(mm.group(1)) + 1e-9
    assert len(lines) == 2 + 8
    for line in lines[2:]:
        m = re.fullmatch(r"k=\d+ bound=([\d.e+-]+) gap=([\d.e+-]+)", line)
        assert m, line
        assert float(m.group(2)) <= float(m.group(1)) + 1e-9


def test_cli_bounds_needs_constant_input(tmp_path, capsys):
    entry = {"box": {"center": [0.0] * 4, "radius": [0.1] * 4}}
    sc = stable_scenario(tmp_path, U={"sequence": [entry] * 8})
    code, text = run_cli(capsys, "bounds", "--scenario", str(sc))
    assert code == 2
    assert "constant input" in text


def test_cli_discretize_artifacts(tmp_path, capsys):
    doc = {"A": "A.mtx",
           "X0": {"box": {"center": [0.0] * 4, "radius": [1.0] * 4}},
           "U": {"box": {"center": [0.5] * 4, "radius": [0.5] * 4}},
           "delta": 0.1, "N": 3, "model": "discrete"}
    sc = write_scenario(tmp_path, doc, {"A": STABLE_A})
    out = tmp_path / "disc"
    code, text = run_cli(capsys, "discretize", "--scenario", str(sc),
                         "--out", str(out))
    assert code == 0
    assert "discretized n=4 model=discrete delta=0.1" in text
    phi = read_matrix_market(out / "phi.mtx")
    npt.assert_allclose(phi.to_dense(), scipy.linalg.expm(0.1 * STABLE_A),
                        atol=1e-12)
    with open(out / "v_bounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["var", "lo", "hi"]
    assert len(rows) == 5
    # the discrete-model input set integrates U over one step: its box
    # bounds follow from M = A^-1 (e^{A delta} - I) applied to the U box
    M = np.linalg.solve(STABLE_A, scipy.linalg.expm(0.1 * STABLE_A) - np.eye(4))
    c = M @ (0.5 * np.ones(4))
    r = np.abs(M) @ (0.5 * np.ones(4))
    got = np.array([[float(row[1]), float(row[2])] for row in rows[1:]])
    npt.assert_allclose(got[:, 0], c - r, atol=1e-12)
    npt.assert_allclose(got[:, 1], c + r, atol=1e-12)


def test_cli_discretize_sequence_inputs(tmp_path, capsys):
    entry = {"box": {"center": [0.5] * 4, "radius": [0.5] * 4}}
    doc = {"A": "A.mtx",
           "X0": {"box": {"center": [0.0] * 4, "radius": [1.0] * 4}},
           "U": {"sequence": [entry, entry]},
           "delta": 0.1, "N": 2, "model": "discrete"}
    sc = write_scenario(tmp_path, doc, {"A": np.zeros((4, 4))})
    out = tmp_path / "disc_seq"
    code, _ = run_cli(capsys, "discretize", "--scenario", str(sc),
                      "--out", str(out))
    assert code == 0
    with open(out / "v_bounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "var", "lo", "hi"]
    assert len(rows) == 1 + 2 * 4
    assert {r[0] for r in rows[1:]} == {"0", "1"}
    # with A = 0 the integral weight is plain delta: [0, 1] -> [0, 0.1]
    for row in rows[1:]:
        assert float(row[2]) == pytest.approx(0.0, abs=1e-15)
        assert float(row[3]) == pytest.approx(0.1, abs=1e-15)


def test_cli_input_error_paths(tmp_path, capsys):
    code, text = run_cli(capsys, "reach", "--scenario",
                         str(tmp_path / "missing.json"))
    assert code == 2
    assert text.startswith("error:cli:schema")

    sc = stable_scenario(tmp_path)
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--scheme", "fancy")
    assert code == 2 and "--scheme" in text
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--seed", "-3")
    assert code == 2 and "--seed" in text


def test_cli_rejects_an_infinite_epsilon(tmp_path, capsys):
    sc = stable_scenario(tmp_path)
    code, text = run_cli(capsys, "reach", "--scenario", str(sc),
                         "--scheme", "eps:inf")
    assert code == 2
    assert text == ("error:cli:schema --scheme: epsilon must be positive "
                    "and finite, got inf\n")


def test_cli_integer_beyond_the_float_range_is_a_schema_error(tmp_path, capsys):
    # an integer too large for a float reads as the float 1e400 reads
    sc = stable_scenario(tmp_path, delta=10 ** 400)
    code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 2
    assert text == "error:cli:schema $.delta: must be finite\n"
    sc = stable_scenario(tmp_path, X0={"box": {"center": [10 ** 400, 0.0, 0.0, 0.0],
                                               "radius": [0.1] * 4}})
    code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 2
    assert text == "error:cli:schema $.X0.box.center[0]: must be finite\n"


def test_cli_numerical_error_exit_code(tmp_path, capsys):
    # exp(1000) overflows while discretizing: a mid-computation numerical
    # failure, distinct from schema problems
    doc = {"A": "A.mtx", "X0": {"box": {"center": [0.0], "radius": [1.0]}},
           "delta": 1.0, "N": 2, "model": "discrete"}
    sc = write_scenario(tmp_path, doc, {"A": np.array([[1000.0]])})
    with np.errstate(over="ignore", invalid="ignore"):
        code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 3
    assert text.startswith("error:linalg:non-finite")


def test_cli_huge_step_overflows_to_a_non_finite_error(tmp_path, capsys):
    # delta^2 of delta = 1e300 is beyond the float range: it must overflow
    # to inf and end in the numerical error, not in an OverflowError
    box = {"box": {"center": [0.5] * 4, "radius": [0.5] * 4}}
    sc = stable_scenario(tmp_path, delta=1e300, U=box)
    code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 3
    assert text == ("error:linalg:non-finite discretization_matrices: "
                    "result overflowed\n")
    sc = stable_scenario(tmp_path, delta=1e300, model="dense")
    code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 3
    assert text == "error:linalg:non-finite phi2_action: result overflowed\n"


def test_cli_box_recurrence_overflow_is_a_non_finite_error(tmp_path, capsys):
    # Phi X0 = e * 1e308 overflows at step 1 of the closed-form box path
    # (at step 0 of the dense-time first set): a numerical failure, and no
    # RuntimeWarning on the way
    expected = {
        "discrete": "error:reach:non-finite the box of step 1 overflowed\n",
        "dense": "error:approx:unbounded-set overapproximate_box: "
                 "non-finite support value\n"}
    for model, line in expected.items():
        doc = {"A": "A.mtx", "X0": {"point": [1e308, 1.0]}, "delta": 1.0,
               "N": 3, "model": model, "scheme": "box"}
        sc = write_scenario(tmp_path, doc, {"A": sp.csr_array(np.eye(2))})
        for cmd in ("reach", "compare"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([cmd, "--scenario", str(sc), "--out", str(tmp_path)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (3, line, "")


def test_cli_input_image_overflow_is_a_non_finite_error(tmp_path, capsys):
    # the box of Phi^4 V, V = Phi1 U with U of radius 1e306, has finite
    # bounds near -+1e308 but a width beyond the float range: the step's
    # overflow, as for a box input, and not an invalid set
    lines = {"reach": "error:reach:non-finite the box of step 5 overflowed\n",
             "check": "error:reach:non-finite the support of step 5 overflowed\n",
             "compare": "error:reach:non-finite the box of step 5 overflowed\n"}
    for model in ("dense", "discrete"):
        doc = {"A": "A.mtx", "X0": {"point": [1.0] * 4},
               "U": {"box": {"center": [0.0] * 4, "radius": [1e306] * 4}},
               "delta": 1.0, "N": 40, "model": model, "property": "x1 < 1.7e308"}
        sc = write_scenario(tmp_path, doc, {"A": np.eye(4)})
        for cmd, line in lines.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([cmd, "--scenario", str(sc), "--out", str(tmp_path)])
            captured = capsys.readouterr()
            assert (model, code, captured.out, captured.err) == (model, 3, line, "")
    assert not (tmp_path / "tube.csv").exists()


def test_cli_box_overflow_at_a_later_step_ends_the_run_there(tmp_path, capsys):
    # Phi = 1e100 I: Phi^3 is finite, but Phi^3 x0 with x0 = 1e10 is not,
    # so the box of step 3 is the first to overflow, before the matrix
    # power Phi^4 does
    doc = {"A": "A.mtx", "X0": {"point": [1e10, 1.0]}, "delta": 1.0,
           "N": 6, "model": "discrete", "scheme": "box"}
    sc = write_scenario(tmp_path, doc,
                        {"A": sp.csr_array(np.log(1e100) * np.eye(2))})
    for cmd in ("reach", "compare"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([cmd, "--scenario", str(sc), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3, "error:reach:non-finite the box of step 3 overflowed\n", "")
    assert not (tmp_path / "tube.csv").exists()


def test_cli_input_failure_in_a_chunk_ends_the_run_after_its_earlier_steps(
        tmp_path, capsys):
    # Phi = 1e50 I and x0 = 1e110: the box of step 4 overflows.  The input
    # box of step 5, Phi1 U(4) with U(4) centered at 1e300, is not finite
    # either, and the box engine forms it in the same chunk as step 4:
    # step 4 must still be checked, and end the run, first
    tiny = {"box": {"center": [0.0, 0.0], "radius": [1e-300, 1e-300]}}
    seq = [tiny] * 8
    seq[4] = {"box": {"center": [1e300, 0.0], "radius": [1e-300, 1e-300]}}
    doc = {"A": "A.mtx", "X0": {"point": [1e110, 1.0]}, "U": {"sequence": seq},
           "delta": 1.0, "N": 8, "model": "discrete", "scheme": "box",
           "property": "x1 < 1e300"}
    sc = write_scenario(tmp_path, doc, {"A": np.log(1e50) * np.eye(2)})
    lines = {"reach": "error:reach:non-finite the box of step 4 overflowed\n",
             "check": "error:reach:non-finite the support of step 4 overflowed\n",
             "compare": "error:reach:non-finite the box of step 4 overflowed\n"}
    for cmd, line in lines.items():
        code, out = run_quiet(capsys, cmd, "--scenario", str(sc),
                              "--out", str(tmp_path))
        assert (cmd, code, out) == (cmd, 3, [line.rstrip("\n")])
    assert not (tmp_path / "tube.csv").exists()


def test_cli_power_that_no_step_reads_may_overflow(tmp_path, capsys):
    # Phi = 1e200: a two-step run reads Phi^0 and Phi^1 alone, so the
    # overflow of Phi^2, which the engines still form, ends nothing
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0], "radius": [0.5]}},
           "delta": 1.0, "N": 2, "model": "discrete"}
    for scheme in ("box", "eps:0.1"):
        doc["scheme"] = scheme
        sc = write_scenario(tmp_path, doc, {"A": np.array([[np.log(1e200)]])})
        for cmd in ("reach", "compare", "bounds"):
            code, lines = run_quiet(capsys, cmd, "--scenario", str(sc),
                                    "--out", str(tmp_path))
            assert (scheme, cmd, code) == (scheme, cmd, 0), lines
            assert not any(line.startswith("error:") for line in lines)


def test_cli_check_stops_at_a_violation_before_a_later_power_overflow(
        tmp_path, capsys, monkeypatch):
    # Phi = 1e100 I: step 2 violates x1 < 1e150, and Phi^4 overflows.  The
    # box engine forms steps 2 and 3 in one chunk, and Phi^4 with them:
    # check must report the violation, and the commands that read every
    # step the overflow of step 4, the first to read Phi^4
    doc = {"A": "A.mtx", "X0": {"point": [1.0, 1.0]}, "delta": 1.0, "N": 6,
           "model": "discrete", "property": "x1 < 1e150"}
    reach_line = {
        "box": "error:reach:non-finite the box of step 4 overflowed",
        "eps:0.1": "error:approx:unbounded-set overapproximate_eps: "
                   "non-finite support value"}
    for scheme, line in reach_line.items():
        doc["scheme"] = scheme
        sc = write_scenario(tmp_path, doc, {"A": np.log(1e100) * np.eye(2)})
        assert run_quiet(capsys, "check", "--scenario", str(sc)) == (
            1, ["violated k=2 value=1e+200 atom=x1 < 1e150"])
        for cmd in ("reach", "compare"):
            assert run_quiet(capsys, cmd, "--scenario", str(sc),
                             "--out", str(tmp_path)) == (3, [line])
        code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
        assert (code, lines[2:]) == (
            3, ["error:reach:non-finite the support of step 4 overflowed"])
    assert not (tmp_path / "tube.csv").exists()
    # a violation at step k forms at most 2k powers: the rows of Phi and
    # one power per advance
    advances = []
    advance = reachdec.linalg.MatrixPowerState.advance

    def counted(self):
        advances.append(None)
        return advance(self)

    monkeypatch.setattr(reachdec.linalg.MatrixPowerState, "advance", counted)
    doc = {"A": "A.mtx", "X0": {"point": [1.0, 1.0]}, "delta": 1.0, "N": 200,
           "model": "discrete", "scheme": "box"}
    for k in (1, 2, 3, 4, 5, 17, 64, 150):
        doc["property"] = f"x1 < {0.75 * 2.0 ** k!r}"
        sc = write_scenario(tmp_path, doc, {"A": np.log(2.0) * np.eye(2)})
        advances.clear()
        code, out = run_quiet(capsys, "check", "--scenario", str(sc))
        assert (code, out[0].split()[:2]) == (1, ["violated", f"k={k}"])
        assert 1 + len(advances) <= 2 * k


@pytest.mark.parametrize("scheme", ["box", "eps:0.1"])
@pytest.mark.parametrize("X0", [{"point": [1e10, 1.0]},
                                {"box": {"center": [1e10, 1.0],
                                         "radius": [0.0, 0.0]}}],
                         ids=["point", "box"])
def test_cli_check_overflow_at_a_later_step_ends_the_run_there(tmp_path, capsys,
                                                               scheme, X0):
    # the scenario above with a property: the support of step 3 overflows,
    # and check ends the run there as reach does, not with a violation
    doc = {"A": "A.mtx", "X0": X0, "delta": 1.0, "N": 6, "model": "discrete",
           "scheme": scheme, "property": "x1 < 1e300"}
    sc = write_scenario(tmp_path, doc,
                        {"A": sp.csr_array(np.log(1e100) * np.eye(2))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", "--scenario", str(sc), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "error:reach:non-finite the support of step 3 overflowed\n", "")


def run_quiet(capsys, *argv):
    """(exit code, stdout lines) of one in-process run with warnings as
    errors, which must write nothing to stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out.splitlines()


@pytest.mark.parametrize("scheme", ["box", "eps:0.1"])
def test_cli_bounds_ends_at_an_overflowing_support(tmp_path, capsys, scheme):
    # Phi = 1e10 I and x0 = 1e290: the supports of step 2 overflow, and
    # bounds stops there as check does, before the oracle and before
    # printing any step
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1e290, 1.0], "radius": [1.0, 1.0]}},
           "delta": 1.0, "N": 4, "model": "discrete", "scheme": scheme}
    sc = write_scenario(tmp_path, doc,
                        {"A": sp.csr_array(np.log(1e10) * np.eye(2))})
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 3
    assert [line.split()[0] for line in lines[:2]] == ["b=1", "map"]
    assert lines[2:] == ["error:reach:non-finite the support of step 2 overflowed"]
    # Phi = 1e100 I: the support of step 3 overflows before Phi^4 does
    doc = {"A": "A.mtx", "X0": {"point": [1e10, 1.0]}, "delta": 1.0, "N": 6,
           "model": "discrete", "scheme": scheme}
    sc = write_scenario(tmp_path, doc,
                        {"A": sp.csr_array(np.log(1e100) * np.eye(2))})
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 3
    assert lines[2:] == ["error:reach:non-finite the support of step 3 overflowed"]


def test_cli_bounds_ends_at_an_overflowing_map_gap(tmp_path, capsys):
    # Phi X0 with x0 = 1e300 and Phi = 1e10 I overflows: the sampled gap of
    # the map is not finite, and must not read as 0
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1e300, 1.0], "radius": [1.0, 1.0]}},
           "delta": 1.0, "N": 3, "model": "discrete", "scheme": "box"}
    sc = write_scenario(tmp_path, doc,
                        {"A": sp.csr_array(np.log(1e10) * np.eye(2))})
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 3
    assert lines[0].startswith("b=1 ")
    assert lines[1:] == ["error:oracle:non-finite hausdorff_estimate: "
                         "support gap is not finite"]


def test_cli_rejects_a_box_whose_bounds_overflow(tmp_path, capsys):
    sc = stable_scenario(tmp_path, X0={"box": {"center": [1e308] * 4,
                                               "radius": [1e308] * 4}})
    code, text = run_cli(capsys, "reach", "--scenario", str(sc))
    assert code == 2
    assert text == ("error:cli:schema $.X0.box: center - radius or "
                    "center + radius is not finite\n")
    assert not (tmp_path / "tube.csv").exists()


def sequence_with(i, entry):
    """A sequence of three input boxes over 4 states, entry i replaced."""
    seq = [{"box": {"center": [0.1, 0.0, -0.1, 0.2], "radius": [0.01] * 4}}
           for _ in range(3)]
    seq[i] = entry
    return seq


@pytest.mark.parametrize("seq, line", [
    (sequence_with(1, {"box": {"center": [0.1, True, 0.0, 0.0],
                               "radius": [0.01] * 4}}),
     "$.U.sequence[1].box.center[1]: expected a number, got bool"),
    (sequence_with(2, {"box": {"center": [0.0] * 4,
                               "radius": [0.01, -0.5, 0.01, 0.01]}}),
     "$.U.sequence[2].box.radius: must be nonnegative"),
    (sequence_with(1, {"box": {"center": [0.0] * 3, "radius": [0.01] * 4}}),
     "$.U.sequence[1].box: center has length 3, radius 4"),
    (sequence_with(2, {"box": {"center": [0, 0, 10 ** 400, 0],
                               "radius": [0.01] * 4}}),
     "$.U.sequence[2].box.center[2]: must be finite"),
    (sequence_with(1, {"box": {"center": [1e308] * 4, "radius": [1e308] * 4}}),
     "$.U.sequence[1].box: center - radius or center + radius is not finite"),
    (sequence_with(2, {"box": {"center": [0.0] * 2, "radius": [0.01] * 2}}),
     "$.U.sequence[2]: has dimension 2, inputs have dimension 4"),
    (sequence_with(1, {"point": [0.0] * 4})[:2] + [{"point": [0.0] * 3}],
     "$.U.sequence[2]: has dimension 3, inputs have dimension 4"),
    (sequence_with(1, {"point": [0.0] * 4})[:2] + [{"box": {"center": [],
                                                            "radius": []}}],
     "$.U.sequence[2].box.center: expected a nonempty list of numbers"),
])
def test_cli_input_sequence_names_its_first_bad_entry(tmp_path, capsys, seq, line):
    # a sequence of boxes is converted in one go; any bad entry is still
    # named, with its path, as the entry-by-entry parse names it
    sc = stable_scenario(tmp_path, U={"sequence": seq}, N=3)
    for cmd in ("reach", "check", "compare", "bounds", "discretize"):
        code, out = run_quiet(capsys, cmd, "--scenario", str(sc),
                              "--out", str(tmp_path))
        assert (code, out) == (2, [f"error:cli:schema {line}"])


def test_cli_compare_fails_on_a_non_finite_gap(tmp_path, capsys, monkeypatch):
    # max() skips a NaN gap, so compare must stop at the first one
    real = reachdec.cli.reach_nondecomposed

    def oracle_with_nan(*args):
        values = np.array(real(*args))
        values[2, 0] = np.nan
        return values

    monkeypatch.setattr(reachdec.cli, "reach_nondecomposed", oracle_with_nan)
    sc = stable_scenario(tmp_path)
    code, text = run_cli(capsys, "compare", "--scenario", str(sc))
    assert code == 3
    lines = text.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["k=0", "k=1"]
    assert lines[2:] == ["error:cli:non-finite support gap at step 2 is not finite"]


@pytest.mark.parametrize("fault", ["nan", "above"])
def test_cli_compare_stops_at_a_bad_oracle_gap_past_the_first_chunk(
        tmp_path, capsys, monkeypatch, fault):
    # a NaN oracle value, or one 1.0 above the tube's support, at step 20
    # of 40 (72 directions over 4 states: the oracle's chunks hold 14
    # levels, so step 20 is in the second): compare prints steps 0..19 as
    # a clean run does, then the error of step 20 and nothing after it
    sc = stable_scenario(tmp_path, N=40)
    code, clean = run_quiet(capsys, "compare", "--scenario", str(sc))
    assert code == 0 and len(clean) == 41
    code, _ = run_quiet(capsys, "reach", "--scenario", str(sc),
                        "--out", str(tmp_path / "tube"))
    _, boxes = read_tube_csv(tmp_path / "tube" / "tube.csv")
    outer = boxes[20, 0][1][0]      # direction 0 is +e_0, in block 0
    real = reachdec.cli.reach_nondecomposed
    raised = []

    def bad_oracle(*args):
        values = np.array(real(*args))
        values[20, 0] = np.nan if fault == "nan" else values[20, 0] + 1.0
        raised.append(values[20, 0])
        return values

    monkeypatch.setattr(reachdec.cli, "reach_nondecomposed", bad_oracle)
    code, lines = run_quiet(capsys, "compare", "--scenario", str(sc))
    assert code == 3
    if fault == "nan":
        want = "error:cli:non-finite support gap at step 20 is not finite"
    else:
        allowance = 1e-9 * max(1.0, abs(outer), abs(raised[0]))
        want = (f"error:cli:containment support gap at step 20 is "
                f"{outer - raised[0]:.3e} in direction 0, below the rounding "
                f"allowance {-allowance:.3e}")
    assert lines == clean[:20] + [want]


@pytest.mark.parametrize("model", ["discrete", "dense"])
def test_cli_gaps_allow_rounding_relative_to_large_supports(tmp_path, capsys, model):
    # inputs of radius 1e306: the supports round by about 1e290, 1e-16 of
    # themselves, which is no failure of containment
    doc = {"A": "A.mtx", "X0": {"point": [1.0] * 4},
           "U": {"box": {"center": [0.0] * 4, "radius": [1e306] * 4}},
           "delta": 1.0, "N": 3, "model": model}
    sc = write_scenario(tmp_path, doc, {"A": np.eye(4)})
    code, lines = run_quiet(capsys, "compare", "--scenario", str(sc))
    assert code == 0
    assert [line.split()[0] for line in lines[:3]] == ["k=0", "k=1", "k=2"]
    assert len(lines) == 4 and lines[3].startswith("max_gap=")
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 0
    assert [line.split()[0] for line in lines] == ["b=2", "map", "k=0", "k=1", "k=2"]


def test_cli_bounds_ends_at_an_overflowing_bound(tmp_path, capsys):
    # inputs of radius 1e306 under Phi = e I: the recurrence bound of step 3
    # overflows, and bounds ends there instead of printing bound=inf
    doc = {"A": "A.mtx", "X0": {"point": [1.0] * 4},
           "U": {"box": {"center": [0.0] * 4, "radius": [1e306] * 4}},
           "delta": 1.0, "N": 5, "model": "dense"}
    sc = write_scenario(tmp_path, doc, {"A": np.eye(4)})
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 3
    assert [line.split()[0] for line in lines[:2]] == ["b=2", "map"]
    assert lines[2:] == [
        "k=0 bound=1.374625e+307 gap=3.118500e+290",
        "k=1 bound=3.736619e+307 gap=1.247400e+291",
        "k=2 bound=1.389380e+308 gap=2.494800e+291",
        "error:oracle:non-finite recurrence_error_bound: the bound at step 3 "
        "is not finite"]


def test_cli_refused_allocation_is_a_memory_error(tmp_path, capsys):
    # N = 10^12 steps of a 2 x 2 system ask for a 14.6 TiB tube array,
    # which numpy refuses at once; check streams and is not run here
    doc = {"A": "A.mtx", "X0": {"box": {"center": [1.0, 0.0], "radius": [0.1, 0.1]}},
           "delta": 0.1, "N": 10 ** 12, "model": "discrete"}
    sc = write_scenario(tmp_path, doc, {"A": -np.eye(2)})
    for cmd in ("reach", "compare"):
        code, lines = run_quiet(capsys, cmd, "--scenario", str(sc),
                                "--out", str(tmp_path))
        assert (code, lines) == (3, [
            "error:cli:memory Unable to allocate 14.6 TiB for an array with "
            "shape (1000000000000, 2) and data type float64"])


@pytest.mark.parametrize("prop, pos", [("1e999*x1 < 10", 0), ("x1 < 1e999", 5)])
def test_cli_check_refuses_a_property_number_that_overflows(tmp_path, capsys,
                                                             prop, pos):
    # an overflowing coefficient is bad input, not an overflowing support,
    # and an overflowing bound does not certify a vacuous property
    doc = {"A": "A.mtx", "X0": {"point": [1.0] * 4},
           "U": {"box": {"center": [0.0] * 4, "radius": [1.0] * 4}},
           "delta": 1.0, "N": 5, "model": "discrete", "property": prop}
    sc = write_scenario(tmp_path, doc, {"A": np.eye(4)})
    code, lines = run_quiet(capsys, "check", "--scenario", str(sc))
    assert (code, lines) == (2, ["error:cli:schema property: number '1e999' "
                                 f"is not finite at position {pos}"])


@pytest.mark.parametrize("fault", ["nan", "raised"])
def test_cli_bounds_fails_on_a_bad_oracle_gap(tmp_path, capsys, monkeypatch, fault):
    # a NaN oracle value, or one 1.0 above the decomposed support, at step
    # 2 must end bounds there, not print a clipped gap
    real = reachdec.cli.reach_nondecomposed
    raised = []

    def bad_oracle(*args):
        values = np.array(real(*args))
        values[2, 0] = np.nan if fault == "nan" else values[2, 0] + 1.0
        raised.append(values[2, 0])
        return values

    monkeypatch.setattr(reachdec.cli, "reach_nondecomposed", bad_oracle)
    sc = stable_scenario(tmp_path)
    code, lines = run_quiet(capsys, "bounds", "--scenario", str(sc))
    assert code == 3
    assert [line.split()[0] for line in lines[:4]] == ["b=2", "map", "k=0", "k=1"]
    if fault == "nan":
        want = "error:cli:non-finite support gap at step 2 is not finite"
    else:
        want = ("error:cli:containment support gap at step 2 is -1.000e+00 in "
                f"direction 0, below the rounding allowance {-1e-9 * raised[0]:.3e}")
    assert lines[4:] == [want]


def child_env():
    """Environment of a child process that imports the same reachdec
    package as this test, whatever directory pytest was started from."""
    package_root = str(Path(reachdec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def run_reach_subprocess(command, tmp_path):
    """Run `reach` on the stable scenario in a child process started with
    `command` and check its output."""
    sc = stable_scenario(tmp_path)
    out = tmp_path / "sub"
    proc = subprocess.run(
        [*command, "reach", "--scenario", str(sc), "--out", str(out)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "tube N=8" in proc.stdout
    assert (out / "tube.csv").exists()


def test_cli_entry_point_subprocess(tmp_path):
    run_reach_subprocess([sys.executable, "-m", "reachdec"], tmp_path)


def scipy_modules_after(code, tmp_path):
    """The scipy modules a child process holds after running ``code``."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_loads_no_scipy_solvers(tmp_path):
    # the exponentials are our own Taylor series, so a CLI start pays for
    # neither scipy.linalg nor scipy.sparse.linalg
    code = ("import sys, reachdec.cli; print([m for m in "
            "('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # nor for any scipy module: the matrix files are read with numpy
    assert scipy_modules_after("import sys, reachdec.cli", tmp_path) == ["[]"]
    # reach and check on a dense-stored A keep it that way
    sc = stable_scenario(tmp_path, property="x1 < 2")
    code = ("import sys\nfrom reachdec.cli import main\n"
            f"for cmd in ('reach', 'check'):\n"
            f"    main([cmd, '--scenario', {str(sc)!r}, '--out', 'out'])")
    assert scipy_modules_after(code, tmp_path) == [
        "tube N=8 blocks=0 -> tube.csv", "verified N=8", "[]"]
    # and so does a one-block run of an A that is CSR by the block rule: A
    # is held as its file's entries, and the closure of block 0 (blocks 0
    # and 1) is stored dense
    here = tmp_path / "block-sparse"
    here.mkdir()
    sc = write_large_decoupled(here, 40)
    code = ("import sys\nimport reachdec\nfrom reachdec.cli import main\n"
            f"print(reachdec.parse_scenario({str(sc)!r}).A.is_sparse)\n"
            "for cmd in ('reach', 'check', 'compare'):\n"
            f"    main([cmd, '--scenario', {str(sc)!r}, '--out', 'out'])")
    lines = scipy_modules_after(code, here)
    assert lines[:3] == ["True", "tube N=40 blocks=0 -> tube.csv",
                         "verified N=40"]
    assert lines[-2].startswith("max_gap=")
    assert lines[-1] == "[]"


def test_parsing_a_csr_matrix_loads_no_numpy_ma(tmp_path):
    # the block tables and the blocks a property reads sort their keys
    # themselves: np.unique imports numpy.ma, about 20 ms of every process
    # that parses an A stored CSR by the block rule
    sc = write_large_decoupled(tmp_path, 40)
    code = ("import sys\nimport reachdec\n"
            f"sc = reachdec.parse_scenario({str(sc)!r})\n"
            "print(sc.A.is_sparse, sc.resolve_blocks(reachdec.BlockStructure(sc.n)))\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True (0,)", "False"]


def test_cli_discretize_writes_phi_with_numpy(tmp_path):
    # phi.mtx is written without scipy.io, and reads back bitwise, with
    # scipy's reader and with ours
    sc = stable_scenario(tmp_path, model="dense")
    code = ("import sys\nfrom reachdec.cli import main\n"
            f"main(['discretize', '--scenario', {str(sc)!r}, '--out', 'disc'])")
    lines = scipy_modules_after(code, tmp_path)
    assert lines[0].startswith("discretized n=4 model=dense delta=0.1")
    assert lines[1] == "[]"
    phi = discretize(reachdec.parse_scenario(sc).continuous_system(), 0.1,
                     "dense").phi.to_dense()
    path = tmp_path / "disc" / "phi.mtx"
    assert path.read_text().startswith(
        "%%MatrixMarket matrix array real general\n"
        "%transition matrix of scenario, delta=0.1, model=dense\n4 4\n")
    assert scipy.io.mmread(path).tobytes() == phi.tobytes()
    assert read_matrix_market(path).to_dense().tobytes() == phi.tobytes()


def test_cli_block_sparse_matrix_loads_scipy_sparse_and_runs(tmp_path):
    # 3 of the 16 blocks occupied: A is held as CSR, and the tube matches
    # the one of the same matrix read from an array file, held dense
    A = np.zeros((8, 8))
    A[0:2, 0:2] = STABLE_A[0:2, 0:2]
    A[2:4, 2:4] = STABLE_A[2:4, 2:4]
    A[6:8, 6:8] = -np.eye(2)
    A[5, 0] = 0.1
    doc = {"A": "A.mtx", "X0": {"box": {"center": np.linspace(-1.0, 1.0, 8).tolist(),
                                        "radius": [0.1] * 8}},
           "delta": 0.1, "N": 8, "model": "dense"}
    tubes = {}
    for name, M in (("csr", sp.csr_array(A)), ("dense", A)):
        here = tmp_path / name
        here.mkdir()
        sc = write_scenario(here, doc, {"A": M})
        assert reachdec.parse_scenario(sc).A.is_sparse == (name == "csr")
        code = ("import sys\nfrom reachdec.cli import main\n"
                f"main(['reach', '--scenario', {str(sc)!r}, '--out', 'out'])")
        lines = scipy_modules_after(code, here)
        assert lines[0] == "tube N=8 blocks=0,1,2,3 -> tube.csv"
        assert ("'scipy.sparse'" in lines[1]) == (name == "csr")
        tubes[name] = read_tube_csv(here / "out" / "tube.csv")
    assert tubes["csr"][0] == tubes["dense"][0]
    for key, (lo, hi) in tubes["dense"][1].items():
        npt.assert_allclose(tubes["csr"][1][key][0], lo, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(tubes["csr"][1][key][1], hi, rtol=1e-12, atol=1e-15)


@pytest.mark.skipif(shutil.which("reachdec") is None,
                    reason="reachdec console script not on PATH "
                           "(package not installed)")
def test_cli_installed_console_script(tmp_path):
    run_reach_subprocess(["reachdec"], tmp_path)


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    target = project["scripts"]["reachdec"]
    assert target == "reachdec.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
