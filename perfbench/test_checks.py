"""Self-tests of the benchmark: the output checks reject wrong outputs, the
tracer survives names that disappear from `reachdec`, and calibration
cancels a slower machine but not a slower command.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench/test_checks.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from reachdec import linalg  # noqa: E402
from reachdec.cli import main as cli_main  # noqa: E402

SMALL = {
    "diffusion": {"n": 16, "N": 40},
    "sparse-500": {"n": 40, "N": 30},
    "oscillators-eps": {"N": 40},
    "varying-inputs": {"n": 12, "N": 30},
}


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().splitlines()


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request, tmp_path_factory):
    """A small generated workload, its reach output and sampled runs."""
    name = request.param
    d = tmp_path_factory.mktemp(name)
    w = scenarios.generate(name, 5, d / "scenario", SMALL[name])
    code, out = run_cli("reach", "--scenario", str(w.path), "--out", str(d))
    assert checks.check_reach_output(code, out, w) == []
    tube = checks.read_tube(d / "tube.csv")
    polys = checks.read_poly(d / "tube.poly") \
        if (d / "tube.poly").exists() else None
    samples = checks.simulate(w, np.random.default_rng(3))
    return w, d, tube, polys, samples


def moved(tube, **changes):
    return checks.Tube(**{**vars(tube), **changes})


def moved_atoms(w, atoms):
    return scenarios.Workload(**{**vars(w), "atoms": atoms})


def test_true_output_passes(case):
    w, d, tube, polys, samples = case
    assert checks.check_shape(tube, w) == []
    assert checks.check_contains(tube, samples) == []
    assert checks.check_property_samples(w, samples) == []
    if polys is not None:
        assert checks.check_polygons(polys, samples) == []
    if w.exact_hull:
        assert checks.check_exact_hull(tube, *checks.exact_hull(w)) == []
    code, out = run_cli("check", "--scenario", str(w.path))
    assert checks.check_verdict(code, out, w) == []
    code, out = run_cli("compare", "--scenario", str(w.path))
    assert checks.check_compare_output(code, out) == []


def test_containment_rejects_bound_moved_past_a_sample(case):
    w, d, tube, polys, samples = case

    def tol(k, v):
        return checks.TOL * (1.0 + max(abs(tube.lo[k, v]), abs(tube.hi[k, v])))

    top = samples.max(axis=(1, 3))                      # (N, vars)
    k, v = np.unravel_index(np.argmax(top - tube.hi), top.shape)
    for shift, ok in ((0.5, True), (2.0, False)):
        hi = tube.hi.copy()
        hi[k, v] = top[k, v] - shift * tol(k, v)
        assert (checks.check_contains(moved(tube, hi=hi), samples) == []) is ok
    bottom = samples.min(axis=(1, 3))
    k, v = np.unravel_index(np.argmax(tube.lo - bottom), bottom.shape)
    lo = tube.lo.copy()
    lo[k, v] = bottom[k, v] + 2.0 * tol(k, v)
    assert checks.check_contains(moved(tube, lo=lo), samples)


def test_shape_rejects_missing_rows_and_bad_times(case):
    w, d, tube, polys, samples = case
    short = checks.Tube(*(a[:-1] for a in vars(tube).values()))
    assert checks.check_shape(short, w)
    assert checks.check_shape(moved(tube, t_lo=tube.t_lo + 1e-6), w)
    hi = tube.hi.copy()
    hi[3, 0] = np.inf
    assert checks.check_shape(moved(tube, hi=hi), w)


def test_polygon_check_rejects_halfplane_moved_past_a_sample(case):
    w, d, tube, polys, samples = case
    if polys is None:
        pytest.skip("box tube has no tube.poly")
    k = len(samples) // 2
    A, b = polys[k]
    pts = samples[k].transpose(1, 0, 2).reshape(2, -1)
    j = int(np.argmax((A @ pts).max(axis=1) - b))
    b2 = b.copy()
    b2[j] = (A[j] @ pts).max() - 2.0 * checks.TOL * (1.0 + abs(b[j]))
    assert checks.check_polygons({**polys, k: (A, b2)}, samples)


def test_exact_hull_rejects_bound_moved_in_or_out(case):
    w, d, tube, polys, samples = case
    if not w.exact_hull:
        pytest.skip("exact hull applies to nonnegative dynamics only")
    ref = checks.exact_hull(w)
    for sign in (-1.0, 1.0):
        hi = tube.hi.copy()
        hi[-1, 1] += sign * 2.0 * checks.TOL * max(1.0, abs(ref[1][-1, 1]))
        assert checks.check_exact_hull(moved(tube, hi=hi), *ref)


def test_verdict_and_property_checks_reject_a_violation(case):
    w, d, tube, polys, samples = case
    assert checks.check_verdict(1, ["violated k=3 value=12.5 atom=x1 < 10"], w)
    assert checks.check_verdict(0, [], w)
    coeffs, _ = w.atoms[0]
    reached = float(np.einsum("i,ksit->kst", coeffs[w.coords], samples).max())
    lowered = moved_atoms(w, [(coeffs, reached)])
    assert checks.check_property_samples(lowered, samples)
    assert checks.check_compare_output(2, ["error:core:invalid-set boom"])
    assert checks.check_reach_output(3, ["error:cli:internal"], w)


def test_tracer_wraps_every_module_and_restores(case):
    w, d, tube, polys, samples = case
    import reachdec.cli
    import reachdec.reach

    original = reachdec.reach.check_property
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert reachdec.cli.check_property is reachdec.reach.check_property
        assert reachdec.cli.check_property.__wrapped__ is original
        root = tracer.begin("cmd.check")
        code, _ = run_cli("check", "--scenario", str(w.path))
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert code == 0
    assert reachdec.cli.check_property is original
    selfs = tracer.self_times()
    total = tracer.spans[root][2] - tracer.spans[root][1]
    assert selfs["reach.check_property"] > 0.0
    assert sum(selfs.values()) == pytest.approx(total)
    assert tracer.counts["linalg.power_steps"] == w.N - 1
    assert tracer.absent_metrics() == []


def test_tracer_reports_absent_metrics_for_removed_names(case, monkeypatch):
    # A later refactor deletes MatrixPowerState and BlockMatrix.block_density;
    # the traced run must skip them and still report the other metrics.
    w, d, tube, polys, samples = case
    block_density = linalg.BlockMatrix.block_density
    monkeypatch.delattr(linalg, "MatrixPowerState")
    monkeypatch.delattr(linalg.BlockMatrix, "block_density")
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
        # today's power loop still calls block_density: give it back unwrapped
        monkeypatch.setattr(linalg.BlockMatrix, "block_density", block_density,
                            raising=False)
        code, _ = run_cli("check", "--scenario", str(w.path))
    finally:
        tracer.uninstall()
    assert code == 0
    assert missing == ["linalg:MatrixPowerState.advance",
                       "linalg:BlockMatrix.block_density"]
    absent = tracer.absent_metrics()
    assert sorted(absent) == ["linalg.block_density_s", "linalg.dense_iterates",
                              "linalg.power_steps", "linalg.powers_s"]
    metrics = tracing.layer_metrics(tracer.self_times(), tracer.counts,
                                    {"import": 1.0, "parse": 0.1}, absent)
    assert set(metrics) == set(tracing.METRICS) - set(absent)
    assert metrics["reach.check_property_s"] > 0.0


def test_calibration_cancels_the_machine_not_the_command():
    before, after = [0.010, 0.011, 0.030, 0.012], [0.012, 0.013, 0.011, 0.012]
    kernel_s = calibrate.kernel_time(before, after)
    assert kernel_s == pytest.approx(0.012)  # the slow body does not count
    base = calibrate.scaled(2.0, kernel_s)
    # the same command on a machine 30 % slower: the kernel slows too
    assert calibrate.scaled(2.6, 1.3 * kernel_s) == pytest.approx(base)
    # a command 30 % slower on the same machine reads 30 % slower
    assert calibrate.scaled(2.6, kernel_s) == pytest.approx(1.3 * base)
    assert all(t > 0.0 for t in calibrate.kernel())
