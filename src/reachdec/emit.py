"""Tube serialization: CSV box hulls, polygon sidecars, and SVG bands.

CSV floats use repr(), which is the shortest decimal string that
round-trips to the same double, so reading the file back reproduces the
box hulls bitwise.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InputError

__all__ = ["CSV_COLUMNS", "write_tube_csv", "read_tube_csv",
           "tube_has_polygons", "write_tube_poly", "write_tube_svg"]

CSV_COLUMNS = ["k", "t_lo", "t_hi", "block",
               "var_lo_1", "var_hi_1", "var_lo_2", "var_hi_2"]


def write_tube_csv(tube, path):
    """One row per (step, tracked block) with the box hull bounds; the
    second variable's columns stay empty for one-dimensional blocks."""
    bounds = {i: ((c - r).tolist(), (c + r).tolist())
              for i, (c, r) in tube.box_bounds().items()}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for k in range(tube.n_steps):
            t_lo, t_hi = tube.time_interval(k)
            for i in tube.tracked:
                lo, hi = bounds[i][0][k], bounds[i][1][k]
                row = [k, repr(float(t_lo)), repr(float(t_hi)), i,
                       repr(lo[0]), repr(hi[0])]
                if len(lo) == 2:
                    row += [repr(lo[1]), repr(hi[1])]
                else:
                    row += ["", ""]
                w.writerow(row)


def read_tube_csv(path):
    """Parse a tube CSV back into (times, boxes): step -> (t_lo, t_hi) and
    (step, block) -> (low, high) bound arrays.

    The bounds are returned exactly as serialized (not re-derived through
    a center/radius form), so they reproduce the written box hulls bitwise.
    """
    times = {}
    boxes = {}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != CSV_COLUMNS:
            raise InputError(f"tube CSV: expected header "
                             f"{','.join(CSV_COLUMNS)}, got {header}",
                             module="cli")
        for line, row in enumerate(r, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise InputError(f"tube CSV line {line}: expected "
                                 f"{len(CSV_COLUMNS)} fields, got {len(row)}",
                                 module="cli")
            try:
                k, block = int(row[0]), int(row[3])
                t_lo, t_hi = float(row[1]), float(row[2])
                lo = [float(row[4])]
                hi = [float(row[5])]
                if row[6] != "":
                    lo.append(float(row[6]))
                    hi.append(float(row[7]))
            except ValueError as e:
                raise InputError(f"tube CSV line {line}: {e}", module="cli")
            times[k] = (t_lo, t_hi)
            boxes[(k, block)] = (np.array(lo), np.array(hi))
    return times, boxes


def tube_has_polygons(tube):
    return any(True for _ in tube.polygons())


def write_tube_poly(tube, path):
    """Sidecar with the exact constraints of polygon-valued entries, one
    `block,k,a1,a2,b` row per constraint."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["block", "k", "a1", "a2", "b"])
        for k, i, s in tube.polygons():
            w.writerows([i, k, repr(a1), repr(a2), repr(b)] for (a1, a2), b
                        in zip(s.normals.tolist(), s.offsets.tolist()))


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

_BAND_COLORS = ["#1f77b4", "#ff7f0e"]
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 15, 15, 40


def _fmt(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


def write_tube_svg(tube, block, path):
    """Interval bands of one tracked block over time: one filled band per
    variable, time on the x-axis."""
    if block not in tube.tracked:
        raise InputError(f"block {block} is not tracked", module="cli")
    spans = []
    for k in range(tube.n_steps):
        t_lo, t_hi = tube.time_interval(k)
        if t_hi == t_lo:
            # discrete model: render the time point as a thin bar
            half = 0.4 * tube.delta
            t_lo, t_hi = t_lo - half, t_lo + half
        spans.append((t_lo, t_hi))
    c, r = tube.box_bounds()[block]
    lows, highs = c - r, c + r
    nvar = lows.shape[1]

    t0 = min(s[0] for s in spans)
    t1 = max(s[1] for s in spans)
    y0, y1 = float(lows.min()), float(highs.max())
    if y1 - y0 < 1e-30:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    if t1 - t0 < 1e-30:
        t1 = t0 + 1.0

    def X(t):
        return _ML + (t - t0) / (t1 - t0) * (_W - _ML - _MR)

    def Y(y):
        return _MT + (y1 - y) / (y1 - y0) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" '
             f'font-size="12">',
             f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>']
    for j in range(nvar):
        color = _BAND_COLORS[j % len(_BAND_COLORS)]
        upper = []
        lower = []
        for (ta, tb), lo, hi in zip(spans, lows[:, j], highs[:, j]):
            upper.append((ta, hi))
            upper.append((tb, hi))
            lower.append((ta, lo))
            lower.append((tb, lo))
        pts = upper + lower[::-1]
        d = "M " + " L ".join(f"{_fmt(X(t))},{_fmt(Y(v))}" for t, v in pts) + " Z"
        parts.append(f'<path d="{d}" fill="{color}" fill-opacity="0.35" '
                     f'stroke="{color}" stroke-width="1"/>')
    # axes and end labels
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<text x="{_ML}" y="{_H - _MB + 16}" '
                 f'text-anchor="middle">{t0:.4g}</text>')
    parts.append(f'<text x="{_W - _MR}" y="{_H - _MB + 16}" '
                 f'text-anchor="end">{t1:.4g}</text>')
    parts.append(f'<text x="{_ML - 6}" y="{Y(y0) + 4}" '
                 f'text-anchor="end">{y0:.4g}</text>')
    parts.append(f'<text x="{_ML - 6}" y="{Y(y1) + 4}" '
                 f'text-anchor="end">{y1:.4g}</text>')
    lo_var = tube.bs.slice(block).start
    for j in range(nvar):
        color = _BAND_COLORS[j % len(_BAND_COLORS)]
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 14 + 16 * j}" '
                     f'text-anchor="end" fill="{color}">'
                     f'x{lo_var + j + 1}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" '
                 f'text-anchor="middle">t</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
