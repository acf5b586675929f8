"""Per-layer tracing of `reachdec` from outside the package.

`Tracer.install` replaces public functions and methods of the `reachdec`
modules with wrappers.  A timed wrapper records a span (name, start, end,
parent) in memory; a counting wrapper bumps a counter.  Modules import
functions by name, so a module-level function is replaced in every
`reachdec` module that holds it.  A name that no longer exists is skipped
and the metrics that depend only on it are reported as absent.

A layer's self time is the total duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped name: ``target`` is "module:attr" or "module:Class.method"."""

    target: str
    span: str | None = None
    count: str | None = None
    #: called as after(tracer, result, args) once the wrapped call returns
    after: object = None
    #: the counters ``after`` bumps
    after_counts: tuple = ()


def _dense_iterate(tracer, _result, args):
    if not args[0].Q.is_sparse:
        tracer.counts["linalg.dense_iterates"] += 1


def _eps_polygon(tracer, result, _args):
    tracer.counts["approx.eps_polygons"] += 1
    tracer.counts["approx.eps_constraint_total"] += len(result.offsets)


def _tube_steps(tracer, result, _args):
    tracer.counts["reach.block_steps"] += result.n_steps * len(result.tracked)


HOOKS = (
    Hook("scenario:parse_scenario", span="scenario.parse"),
    Hook("discretize:discretize", span="discretize.discretize"),
    Hook("discretize:discretize_dense", span="discretize.discretize"),
    Hook("discretize:discretize_discrete", span="discretize.discretize"),
    Hook("linalg:exp_matrix", span="linalg.expm"),
    Hook("linalg:discretization_matrices", span="linalg.expm"),
    Hook("linalg:MatrixPowerState.advance", span="linalg.powers",
         count="linalg.power_steps", after=_dense_iterate,
         after_counts=("linalg.dense_iterates",)),
    Hook("linalg:BlockMatrix.block_density", span="linalg.block_density"),
    Hook("linalg:BlockMatrix.block", count="linalg.block_slices"),
    Hook("linalg:BlockMatrix.row_block", count="linalg.block_slices"),
    Hook("approx:decompose", span="approx.decompose"),
    Hook("approx:approximate", count="approx.approximate_calls"),
    Hook("approx:overapproximate_eps", span="approx.eps", after=_eps_polygon,
         after_counts=("approx.eps_polygons", "approx.eps_constraint_total")),
    Hook("sets:LazySet.support_function", count="sets.support_calls"),
    Hook("sets:LazySet.support_vector", count="sets.support_calls"),
    Hook("sets:LazySet.support_batch", count="sets.support_batch_calls"),
    Hook("sets:HPolygon.__init__", span="sets.polygon_build"),
    Hook("reach:reach_decomposed", span="reach.tube", after=_tube_steps,
         after_counts=("reach.block_steps",)),
    Hook("reach:reach_decomposed_varying", span="reach.tube",
         after=_tube_steps, after_counts=("reach.block_steps",)),
    Hook("reach:check_property", span="reach.check_property"),
    Hook("oracle:reach_nondecomposed", span="oracle.nondecomposed"),
    Hook("emit:write_tube_csv", span="emit.write"),
    Hook("emit:write_tube_poly", span="emit.write"),
    Hook("emit:write_tube_svg", span="emit.write"),
)

#: reported per-layer metric -> (kind, source); kind is "self" for the self
#: time of a span name, "count" for a counter, "mean" for a ratio of two
#: counters, "setup" for a time measured by the fresh set-up interpreters
METRICS = {
    "cli.import_s": ("setup", "import"),
    "scenario.parse_s": ("setup", "parse"),
    "discretize.discretize_s": ("self", "discretize.discretize"),
    "linalg.expm_s": ("self", "linalg.expm"),
    "linalg.powers_s": ("self", "linalg.powers"),
    "linalg.power_steps": ("count", "linalg.power_steps"),
    "linalg.dense_iterates": ("count", "linalg.dense_iterates"),
    "linalg.block_density_s": ("self", "linalg.block_density"),
    "linalg.block_slices": ("count", "linalg.block_slices"),
    "approx.decompose_s": ("self", "approx.decompose"),
    "approx.approximate_calls": ("count", "approx.approximate_calls"),
    "approx.eps_s": ("self", "approx.eps"),
    "approx.eps_constraints": ("mean", ("approx.eps_constraint_total",
                                        "approx.eps_polygons")),
    "sets.support_calls": ("count", "sets.support_calls"),
    "sets.support_batch_calls": ("count", "sets.support_batch_calls"),
    "sets.polygon_build_s": ("self", "sets.polygon_build"),
    "reach.tube_s": ("self", "reach.tube"),
    "reach.check_property_s": ("self", "reach.check_property"),
    "reach.block_steps": ("count", "reach.block_steps"),
    "oracle.nondecomposed_s": ("self", "oracle.nondecomposed"),
    "emit.write_s": ("self", "emit.write"),
}


def _resolve(target):
    """(owner, attr, original) for a hook target, or None if it is gone."""
    mod_name, path = target.split(":")
    try:
        owner = importlib.import_module(f"reachdec.{mod_name}")
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = owner.__dict__.get(cls)
        if owner is None:
            return None
    original = owner.__dict__.get(attr)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.installed = set()
        self._replaced = []

    # -- recording ------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, hook):
        tracer = self
        span, count, after = hook.span, hook.count, hook.after

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.begin(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            if after is not None:
                after(tracer, result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------

    def install(self, hooks=HOOKS):
        """Wrap every hook target that exists; return the missing targets."""
        missing = []
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                missing.append(hook.target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, hook)
            if isinstance(owner, type):
                places = [(owner, attr)]
            else:
                places = [(mod, key) for name, mod in list(sys.modules.items())
                          if name == "reachdec" or name.startswith("reachdec.")
                          for key, val in list(vars(mod).items())
                          if val is original]
            for place, key in places:
                setattr(place, key, wrapper)
                self._replaced.append((place, key, original))
            self.installed.add(hook)
        return missing

    def uninstall(self):
        """Put every replaced name back; the recorded spans, counters and
        installed hooks stay for analysis."""
        for place, key, original in reversed(self._replaced):
            setattr(place, key, original)
        self._replaced.clear()

    def absent_metrics(self):
        """Metrics none of whose sources were installed."""
        spans = {h.span for h in self.installed}
        counts = {h.count for h in self.installed}
        for h in self.installed:
            counts.update(h.after_counts)
        out = []
        for name, (kind, source) in METRICS.items():
            if ((kind == "self" and source not in spans)
                    or (kind == "count" and source not in counts)
                    or (kind == "mean" and source[0] not in counts)):
                out.append(name)
        return out

    # -- analysis -------------------------------------------------------

    def self_times(self, first=0):
        """Self time per span name over the spans from index ``first`` on,
        command root spans included."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans, start=first):
            out[name] += (end - start) - child[i]
        return dict(out)


def layer_metrics(self_times, counts, setup, absent):
    """The per-layer metrics of one round from its self times, counters
    and the set-up split; absent metrics are left out."""
    out = {}
    for name, (kind, source) in METRICS.items():
        if name in absent:
            continue
        if kind == "setup":
            out[name] = setup[source]
        elif kind == "self":
            out[name] = self_times.get(source, 0.0)
        elif kind == "count":
            out[name] = counts.get(source, 0)
        else:
            total, n = (counts.get(s, 0) for s in source)
            out[name] = total / n if n else 0.0
    return out


def unit(name):
    return "s" if name.endswith("_s") else "count"
