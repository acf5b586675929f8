"""Tube serialization and the command-line driver."""

import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import reachdec
from reachdec import (
    DiscreteSystem,
    EpsilonClose,
    HPolygon,
    Hyperrectangle,
    InputError,
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


def run_reach_subprocess(command, tmp_path):
    """Run `reach` on the stable scenario in a child process started with
    `command` and check its output.  The child imports the same reachdec
    package as this test, whatever directory pytest was started from."""
    sc = stable_scenario(tmp_path)
    out = tmp_path / "sub"
    package_root = str(Path(reachdec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [*command, "reach", "--scenario", str(sc), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "tube N=8" in proc.stdout
    assert (out / "tube.csv").exists()


def test_cli_entry_point_subprocess(tmp_path):
    run_reach_subprocess([sys.executable, "-m", "reachdec"], tmp_path)


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
