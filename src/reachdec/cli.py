"""Command-line driver: one scenario file, one command, artifact files.

Exit codes are a stable contract: 0 success (or property verified),
1 property not certified, 2 input error, 3 numerical failure or an array
that cannot be allocated.  Engine errors print a single machine-parsable
line `error:<module>:<kind> ...`, and an allocation that numpy refuses
prints `error:cli:memory <numpy's message>`.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .approx import BlockStructure, _box_bounds_rows, decompose, overapproximate_box
from .discretize import discretize, is_zero_set, restrict
from .emit import (
    tube_has_polygons,
    write_tube_csv,
    write_tube_poly,
    write_tube_svg,
)
from .errors import EngineError, InputError
from .linalg import _CHUNK_ENTRIES, write_matrix_market
from .oracle import (
    _first_failing_row,
    decomposed_image,
    decomposed_map_error_bound,
    hausdorff_estimate,
    make_error_report,
    reach_nondecomposed,
    recurrence_error_bound,
    support_gaps,
)
from .reach import (
    _lazy_supports,
    check_property,
    reach_decomposed,
    reach_decomposed_varying,
)
from .scenario import (
    parse_scenario,
    parse_scheme,
    property_blocks,
    restrict_property,
)
from .sets import CartesianProduct, Hyperrectangle, LinearMap, Singleton

__all__ = ["main"]


def _discretized(sc):
    return discretize(sc.continuous_system(), sc.delta, sc.model)


def _restricted(sc, blocks):
    """The scenario's system cut to the block closure of ``blocks`` and
    discretized, and the closure (see ``discretize.restrict``).  Block p of
    the cut system is block ``kept[p]`` of the scenario's."""
    sys, kept = restrict(sc.continuous_system(), blocks)
    return discretize(sys, sc.delta, sc.model), kept


def _restricted_tube(sc, tracked):
    """The tube of the blocks ``tracked``, run on the block closure of
    them and numbered as in the cut system, with that system and the
    closure."""
    dsys, kept = _restricted(sc, tracked)
    local = np.searchsorted(kept, tracked).tolist()
    run = reach_decomposed if dsys.constant_input else reach_decomposed_varying
    return run(dsys, sc.N, local, sc.scheme), dsys, kept


def _full_tube(tube, bs, kept):
    """A tube of the cut system under the block structure ``bs`` and the
    block numbers of the whole one."""
    if len(kept) == bs.b:
        return tube
    return tube.relabeled(bs, kept)


def _write_v_bounds(dsys, path):
    with open(path, "w") as fh:
        if dsys.constant_input:
            fh.write("var,lo,hi\n")
            box = overapproximate_box(dsys.v)
            for j, (lo, hi) in enumerate(zip(box.low, box.high)):
                fh.write(f"{j + 1},{float(lo)!r},{float(hi)!r}\n")
        else:
            # the hulls of a chunk of sets at a time, as the box engine
            # takes them (``reach._box_steps``)
            fh.write("k,var,lo,hi\n")
            size = max(1, _CHUNK_ENTRIES // dsys.n)
            for k0 in range(0, len(dsys.v), size):
                C, R, error = _box_bounds_rows(dsys.v[k0:k0 + size])
                for k, (c, r) in enumerate(zip(C, R), k0):
                    for j, (lo, hi) in enumerate(zip(c - r, c + r)):
                        fh.write(f"{k},{j + 1},{float(lo)!r},{float(hi)!r}\n")
                if error is not None:
                    raise error


def _cmd_discretize(sc, out, args):
    dsys = _discretized(sc)
    write_matrix_market(out / "phi.mtx", dsys.phi,
                        comment=f"transition matrix of {sc.name}, "
                                f"delta={sc.delta}, model={sc.model}")
    _write_v_bounds(dsys, out / "v_bounds.csv")
    print(f"discretized n={dsys.n} model={dsys.model} delta={dsys.delta} "
          f"-> {out}")
    return 0


def _cmd_reach(sc, out, args):
    bs = BlockStructure(sc.n)
    tracked = sc.resolve_blocks(bs)
    tube, _, kept = _restricted_tube(sc, tracked)
    tube = _full_tube(tube, bs, kept)
    written = []
    if args.format in ("csv", "both"):
        write_tube_csv(tube, out / "tube.csv")
        written.append("tube.csv")
        if tube_has_polygons(tube):
            write_tube_poly(tube, out / "tube.poly")
            written.append("tube.poly")
    if args.format in ("svg", "both"):
        for i in tracked:
            write_tube_svg(tube, i, out / f"block_{i}.svg")
            written.append(f"block_{i}.svg")
    blocks = ",".join(str(i) for i in tracked)
    print(f"tube N={sc.N} blocks={blocks} -> {', '.join(written)}")
    return 0


def _cmd_check(sc, out, args):
    if sc.prop is None:
        raise InputError("scenario has no property to check", module="cli")
    bs = BlockStructure(sc.n)
    dsys, kept = _restricted(sc, property_blocks(sc.prop, bs, sc.B is None))
    prop = sc.prop
    if len(kept) < bs.b:
        prop = restrict_property(prop, bs.coords(kept), sc.B is None)
    res = check_property(dsys, prop, sc.N, sc.scheme)
    if res.verified:
        print(f"verified N={sc.N}")
        return 0
    print(f"violated k={res.step} value={res.value:.9g} atom={res.atom}")
    return 1


def _compare_directions(sc, bs, tracked, kept):
    """The directions of ``compare`` and the count of coordinate ones:
    +-e_c for each coordinate c of the blocks ``tracked``, then 64 normal
    draws over all n coordinates, zero outside those coordinates and
    scaled to unit 1-norm.  They are given over the coordinates of the
    blocks ``kept``, which hold the tracked ones."""
    coords = bs.coords(tracked)
    cols = bs.coords(kept)
    eye = np.zeros((2 * len(coords), len(cols)))
    for r, c in enumerate(np.searchsorted(cols, coords)):
        eye[2 * r, c] = 1.0
        eye[2 * r + 1, c] = -1.0
    # the rows are drawn one at a time (the same stream as one (64, n)
    # draw), and each norm is summed over the whole masked row, as the
    # 1-norm of that row of the (64, n) array is
    rng = np.random.default_rng(sc.seed)
    row = np.zeros(bs.n)
    drawn = []
    for _ in range(64):
        row[coords] = rng.standard_normal(bs.n)[coords]
        norm = np.abs(row).sum()
        if norm > 1e-12:
            drawn.append(row[cols] / norm)
    return np.vstack([eye, *drawn]), len(eye)


def _cmd_compare(sc, out, args):
    bs = BlockStructure(sc.n)
    tracked = sc.resolve_blocks(bs)
    tube, dsys, kept = _restricted_tube(sc, tracked)
    D, n_coord = _compare_directions(sc, bs, tracked, kept)
    oracle_vals = reach_nondecomposed(dsys, sc.N, D)
    supports = np.array(list(tube.supports(D)))
    bad = _first_failing_row(supports, oracle_vals)
    diff = supports[:bad] - oracle_vals[:bad]
    gaps = diff[:, :n_coord].max(axis=1).tolist()
    hauss = np.clip(diff, 0.0, None).max(axis=1).tolist()
    if bad:
        print("\n".join(f"k={k} gap={gap:.6e} hausdorff={haus:.6e}"
                        for k, (gap, haus) in enumerate(zip(gaps, hauss))))
    if bad < sc.N:
        support_gaps(supports[bad], oracle_vals[bad],
                     f"support gap at step {bad}", "cli")
    print(f"max_gap={max([0.0] + gaps):.6e}")
    return 0


def _decomposition_error(X, blocks):
    """Sampled distance between a set and its decomposition (zero for the
    exactly decomposable cases)."""
    if isinstance(X, (Hyperrectangle, Singleton)):
        return 0.0
    return hausdorff_estimate(X, CartesianProduct(blocks), p=np.inf, count=512)


def _cmd_bounds(sc, out, args):
    dsys = _discretized(sc)
    if not dsys.constant_input:
        raise InputError("bounds needs a constant input set", module="cli")
    bs = BlockStructure(dsys.n)
    x_blocks = decompose(dsys.x_init, bs)
    eps_x = _decomposition_error(dsys.x_init, x_blocks)
    if is_zero_set(dsys.v):
        v_blocks, eps_v = None, 0.0
    else:
        v_blocks = decompose(dsys.v, bs)
        eps_v = _decomposition_error(dsys.v, v_blocks)
    report = make_error_report(dsys.phi, x_blocks, v_blocks,
                               eps_x=eps_x, eps_v=eps_v)
    print(f"b={report.b} K={report.K:.6g} alpha_phi={report.alpha_phi:.6g} "
          f"eps_x={eps_x:.3e} eps_v={eps_v:.3e}")

    map_bound = decomposed_map_error_bound(dsys.phi, x_blocks, eps_x)
    exact_image = LinearMap(dsys.phi.data, dsys.x_init)
    dec_image = CartesianProduct(decomposed_image(dsys.phi, x_blocks))
    map_gap = hausdorff_estimate(exact_image, dec_image, p=np.inf, count=512)
    print(f"map bound={map_bound:.6e} gap={map_gap:.6e}")

    everything = tuple(range(bs.b))
    D, _ = _compare_directions(sc, bs, everything, everything)
    with np.errstate(over="ignore", invalid="ignore"):
        supports = list(_lazy_supports(dsys, sc.N, D, sc.scheme))
    oracle_vals = reach_nondecomposed(dsys, sc.N, D)
    for k, support in enumerate(supports):
        diff = support_gaps(support, oracle_vals[k],
                            f"support gap at step {k}", "cli")
        gap = float(np.clip(diff, 0.0, None).max())
        print(f"k={k} bound={recurrence_error_bound(report, k):.6e} "
              f"gap={gap:.6e}")
    return 0


_DISPATCH = {
    "discretize": _cmd_discretize,
    "reach": _cmd_reach,
    "check": _cmd_check,
    "compare": _cmd_compare,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reachdec",
        description="Reach-tube computation for linear systems by "
                    "decomposition into two-dimensional blocks.")
    parser.add_argument("command", choices=sorted(_DISPATCH))
    parser.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")
    parser.add_argument("--out", default=".",
                        help="directory for output artifacts")
    parser.add_argument("--format", choices=["csv", "svg", "both"],
                        default="csv", help="tube output format")
    parser.add_argument("--scheme", default=None,
                        help="override the scenario scheme: box or eps:<value>")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args(argv)
    try:
        sc = parse_scenario(args.scenario)
        if args.scheme is not None:
            sc.scheme = parse_scheme(args.scheme, "--scheme")
        if args.seed is not None:
            if args.seed < 0:
                raise InputError(f"--seed must be nonnegative, got "
                                 f"{args.seed}", module="cli")
            sc.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](sc, out, args)
    except EngineError as e:
        print(f"{e.tag()} {e}")
        return 2 if e.category == "input" else 3
    except MemoryError as e:
        print(f"error:cli:memory {e}")
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"error:cli:internal {e}")
        return 3
