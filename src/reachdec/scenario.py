"""Scenario files: a JSON description of one reachability run.

A scenario names the system matrices (MatrixMarket files next to the
scenario), the initial and input sets, the time step, horizon and
discretization model, and optionally tracked blocks, a safety property
and an approximation scheme.  Parsing is strict: unknown fields and
dimension mismatches are rejected up front with the JSON path of the
offending entry, so nothing starts computing on a half-valid input.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .approx import BlockStructure, BoxDirections, EpsilonClose
from .discretize import DENSE, DISCRETE, ContinuousSystem
from .errors import InputError
from .linalg import BlockMatrix, read_matrix_market
from .reach import And, Atom, Or, SafetyProperty, _blocks_read, _state_directions
from .sets import Hyperrectangle, Singleton, zero_set

__all__ = ["Scenario", "parse_scenario", "parse_property", "parse_scheme",
           "property_blocks", "restrict_property"]

_TOP_KEYS = {"name", "A", "B", "C", "D", "X0", "U", "delta", "N", "model",
             "blocks", "variables", "property", "scheme", "seed"}
_SET_KEYS = {"box", "intervals", "point", "zero"}


def _fail(path, msg):
    raise InputError(f"{path}: {msg}", module="cli")


def _number(val, path, positive=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(path, f"expected a number, got {type(val).__name__}")
    try:
        val = float(val)
    except OverflowError:   # an integer beyond the float range
        val = float("inf")
    if not np.isfinite(val):
        _fail(path, "must be finite")
    if positive and val <= 0.0:
        _fail(path, f"must be positive, got {val}")
    return val


def _integer(val, path, minimum=None):
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(path, f"expected an integer, got {type(val).__name__}")
    if minimum is not None and val < minimum:
        _fail(path, f"must be at least {minimum}, got {val}")
    return int(val)


def _vector(val, path):
    """A list of finite numbers as a float array, converted in one call.

    Only a list with a bad entry is walked entry by entry, so that the
    error names the first bad index."""
    if not isinstance(val, list) or not val:
        _fail(path, "expected a nonempty list of numbers")
    if set(map(type, val)) <= {int, float}:   # a bool is not a number here
        try:
            out = np.array(val, dtype=float)
        except OverflowError:   # an integer beyond the float range
            pass
        else:
            if np.isfinite(out).all():
                return out
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(val)])


def _finite_box(box, path):
    """``box``, unless its bounds or its radius overflow the float range."""
    c, r = box.center, box.radius
    # a Python sum overflows to inf without a warning, and it bounds every
    # |c_i| + r_i: only a box near the float range is checked entrywise
    if math.isfinite(float(np.abs(c).max()) + float(r.max())):
        return box
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(c - r).all() and np.isfinite(c + r).all()
    if not finite:
        _fail(path, "center - radius or center + radius is not finite")
    return box


def set_from_spec(spec, path):
    """Build a set from its JSON spec: one of box / intervals / point / zero."""
    if not isinstance(spec, dict):
        _fail(path, f"expected an object, got {type(spec).__name__}")
    keys = set(spec)
    for k in keys - _SET_KEYS:
        _fail(f"{path}.{k}", "unknown field"
              f" (expected one of {', '.join(sorted(_SET_KEYS))})")
    if len(keys) != 1:
        _fail(path, f"expected exactly one of {', '.join(sorted(_SET_KEYS))}")
    kind = keys.pop()
    body = spec[kind]
    if kind == "box":
        if not isinstance(body, dict) or set(body) != {"center", "radius"}:
            _fail(f"{path}.box", "expected an object with center and radius")
        c = _vector(body["center"], f"{path}.box.center")
        r = _vector(body["radius"], f"{path}.box.radius")
        if c.shape != r.shape:
            _fail(f"{path}.box", f"center has length {len(c)}, radius {len(r)}")
        if np.any(r < 0.0):
            _fail(f"{path}.box.radius", "must be nonnegative")
        return _finite_box(Hyperrectangle(c, r), f"{path}.box")
    if kind == "intervals":
        if not isinstance(body, list) or not body:
            _fail(f"{path}.intervals", "expected a nonempty list of [lo, hi] pairs")
        lows, highs = [], []
        for i, pair in enumerate(body):
            here = f"{path}.intervals[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(here, "expected a [lo, hi] pair")
            lo = _number(pair[0], f"{here}[0]")
            hi = _number(pair[1], f"{here}[1]")
            if lo > hi:
                _fail(here, f"lower bound {lo} exceeds upper bound {hi}")
            lows.append(lo)
            highs.append(hi)
        with np.errstate(over="ignore"):
            box = Hyperrectangle.from_bounds(lows, highs)
        return _finite_box(box, f"{path}.intervals")
    if kind == "point":
        return Singleton(_vector(body, f"{path}.point"))
    dim = _integer(body, f"{path}.zero", minimum=1)
    return zero_set(dim)


def parse_scheme(text, path="scheme"):
    """'box' or 'eps:<value>'."""
    if not isinstance(text, str):
        _fail(path, f"expected a string, got {type(text).__name__}")
    if text == "box":
        return BoxDirections()
    if text.startswith("eps:"):
        try:
            eps = float(text[4:])
        except ValueError:
            _fail(path, f"cannot parse epsilon in {text!r}")
        if not (np.isfinite(eps) and eps > 0.0):
            _fail(path, f"epsilon must be positive and finite, got {eps}")
        return EpsilonClose(eps)
    _fail(path, f"unknown scheme {text!r} (expected 'box' or 'eps:<value>')")


# ----------------------------------------------------------------------
# property formulas
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>[xy]\d+)"
    r"|(?P<word>and|or)(?![A-Za-z0-9_])"
    r"|(?P<op><=|>=|<|>|\(|\)|\+|-|\*)"
    r")")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"property: cannot read {rest[:12]!r} "
                             f"at position {pos}", module="cli")
        kind, word = m.lastgroup, m.group(m.lastgroup)
        value = float(word) if kind == "num" else word
        if kind == "num" and not np.isfinite(value):
            raise InputError(f"property: number {word!r} is not finite "
                             f"at position {m.start(kind)}", module="cli")
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _PropertyParser:
    """Recursive descent over: disjunctions of conjunctions of linear
    atoms like ``2*x1 - 3*x5 < 10``, with parentheses for grouping."""

    def __init__(self, text, dim, output_vars):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.dim = dim
        self.output_vars = output_vars

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _error(self, msg, tok=None):
        tok = tok or self._peek()
        raise InputError(f"property: {msg} at position {tok[2]}", module="cli")

    def parse(self):
        f = self._disjunction()
        if self._peek()[0] != "end":
            self._error(f"unexpected {self._peek()[1]!r}")
        return f

    def _disjunction(self):
        parts = [self._conjunction()]
        while self._peek()[:2] == ("word", "or"):
            self._next()
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else Or(parts)

    def _conjunction(self):
        parts = [self._factor()]
        while self._peek()[:2] == ("word", "and"):
            self._next()
            parts.append(self._factor())
        return parts[0] if len(parts) == 1 else And(parts)

    def _factor(self):
        if self._peek()[:2] == ("op", "("):
            self._next()
            f = self._disjunction()
            if self._peek()[:2] != ("op", ")"):
                self._error("expected ')'")
            self._next()
            return f
        return self._atom()

    def _variable_index(self, name, tok):
        kind, idx = name[0], int(name[1:])
        if self.output_vars and kind != "y":
            self._error("state variables cannot be mixed with an output "
                        "matrix; use y<i>", tok)
        if not self.output_vars and kind != "x":
            self._error("output variables need an output matrix; use x<i>", tok)
        if not 1 <= idx <= self.dim:
            self._error(f"variable {name} out of range 1..{self.dim}", tok)
        return idx - 1

    def _linear(self):
        coeffs = np.zeros(self.dim)
        first = True
        while True:
            tok = self._peek()
            sign = 1.0
            if tok[:2] == ("op", "+") or tok[:2] == ("op", "-"):
                sign = -1.0 if tok[1] == "-" else 1.0
                self._next()
            elif not first:
                break
            tok = self._next()
            if tok[0] == "num":
                coeff = sign * tok[1]
                if self._peek()[:2] == ("op", "*"):
                    self._next()
                vtok = self._next()
                if vtok[0] != "var":
                    self._error("expected a variable after the coefficient",
                                vtok)
                i = self._variable_index(vtok[1], vtok)
                coeffs[i] = float(coeffs[i]) + coeff    # unwarned inf; Atom refuses it
            elif tok[0] == "var":
                coeffs[self._variable_index(tok[1], tok)] += sign
            else:
                self._error("expected a term", tok)
            first = False
        return coeffs

    def _atom(self):
        start = self._peek()[2]
        coeffs = self._linear()
        op = self._next()
        if op[0] != "op" or op[1] not in ("<", "<=", ">", ">="):
            self._error("expected a comparison", op)
        sign = 1.0
        tok = self._peek()
        if tok[:2] == ("op", "+") or tok[:2] == ("op", "-"):
            sign = -1.0 if tok[1] == "-" else 1.0
            self._next()
        rhs = self._next()
        if rhs[0] != "num":
            self._error("expected a number on the right-hand side", rhs)
        bound = sign * rhs[1]
        end = self._peek()[2]
        label = " ".join(self.text[start:end].split())
        if op[1] in (">", ">="):
            coeffs, bound = -coeffs, -bound
        strict = op[1] in ("<", ">")
        if not np.any(coeffs):
            self._error("atom has no variables with nonzero coefficient", op)
        return Atom(coeffs, bound, strict=strict, label=label)


def parse_property(text, dim, output_vars=False):
    """Parse a formula over x<i> (states) or, with an output matrix,
    y<i> (outputs); 1-based indices, '<'/'<=' and flipped '>'/'>='."""
    if not isinstance(text, str) or not text.strip():
        raise InputError("property: expected a nonempty string", module="cli")
    return _PropertyParser(text, dim, output_vars).parse()


def _data(M):
    return M.data if isinstance(M, BlockMatrix) else M


def property_blocks(prop: SafetyProperty, bs: BlockStructure,
                    inputs_are_states=False):
    """Blocks touched by the property's atom directions (pulled back
    through the output matrix); all blocks when nothing is touched.  With
    ``inputs_are_states`` (no B), the blocks of the feedthrough D's nonzero
    columns are added: checking the property reads those inputs."""
    needed = _blocks_read(_state_directions(prop, bs), bs)
    if not needed:
        return tuple(range(bs.b))
    if inputs_are_states and prop.D is not None:
        used = np.flatnonzero(np.asarray(abs(_data(prop.D)).sum(axis=0)).ravel())
        needed = sorted(set(needed) | set(bs.block_of(used).tolist()))
    return tuple(needed)


def _cut_atoms(node, coords):
    """The formula with each atom's coefficients cut to ``coords``; an atom
    keeps the name it had."""
    if isinstance(node, Atom):
        return Atom(node.coeffs[coords], node.bound, node.strict,
                    label=node.describe())
    return type(node)([_cut_atoms(c, coords) for c in node.children])


def restrict_property(prop: SafetyProperty, coords, inputs_are_states):
    """``prop`` over the state coordinates ``coords`` of a system cut to
    them (``discretize.restrict``), which must hold every coordinate it
    reads: C keeps those columns, or, with y = x, the atoms keep those
    coefficients and D those rows; D also keeps those columns when
    ``inputs_are_states`` (no B)."""
    formula, C, D = prop.formula, prop.C, prop.D
    if C is None:
        formula = _cut_atoms(formula, coords)
        D = None if D is None else _data(D)[coords]
    else:
        C = _data(C)[:, coords]
    if D is not None and inputs_are_states:
        D = _data(D)[:, coords]
    return SafetyProperty(formula, C=C, D=D)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

@dataclass
class Scenario:
    """Validated description of one run; all dimensions cross-checked."""

    name: str
    base_dir: Path
    A: object
    B: object
    C: object
    D: object
    X0: object
    U: object
    delta: float
    N: int
    model: str
    blocks: tuple | None
    prop: SafetyProperty | None
    scheme: object
    seed: int

    @property
    def n(self):
        return self.A.shape[0]

    def continuous_system(self):
        return ContinuousSystem(self.A, self.X0, B=self.B, U=self.U)

    def resolve_blocks(self, bs: BlockStructure):
        if self.blocks is not None:
            return self.blocks
        if self.prop is not None:
            return property_blocks(self.prop, bs)
        return tuple(range(bs.b))


def _load_matrix(doc, key, base_dir):
    if key not in doc:
        return None
    val = doc[key]
    if not isinstance(val, str):
        _fail(f"$.{key}", f"expected a file path string, got {type(val).__name__}")
    return read_matrix_market(base_dir / val)


def parse_scenario(file):
    """Read and fully validate a scenario JSON file."""
    path = Path(file)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read scenario {path}: {e}", module="cli")
    except json.JSONDecodeError as e:
        raise InputError(f"$: not valid JSON ({e})", module="cli")
    if not isinstance(doc, dict):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    for k in sorted(set(doc) - _TOP_KEYS):
        _fail(f"$.{k}", "unknown field")
    for k in ("A", "X0", "delta", "N", "model"):
        if k not in doc:
            _fail(f"$.{k}", "required field missing")

    base_dir = path.parent
    A = _load_matrix(doc, "A", base_dir)
    if A.shape[0] != A.shape[1]:
        _fail("$.A", f"must be square, got {A.shape[0]}x{A.shape[1]}")
    n = A.shape[0]

    B = _load_matrix(doc, "B", base_dir)
    if B is not None and B.shape[0] != n:
        _fail("$.B", f"has {B.shape[0]} rows, A is {n}x{n}")
    input_dim = B.shape[1] if B is not None else n

    X0 = set_from_spec(doc["X0"], "$.X0")
    if X0.dim != n:
        _fail("$.X0", f"has dimension {X0.dim}, A is {n}x{n}")

    delta = _number(doc["delta"], "$.delta", positive=True)
    N = _integer(doc["N"], "$.N", minimum=1)
    model = doc["model"]
    if model not in (DENSE, DISCRETE):
        _fail("$.model", f"expected 'dense' or 'discrete', got {model!r}")

    U = None
    if "U" in doc:
        spec = doc["U"]
        if isinstance(spec, dict) and "sequence" in spec:
            if set(spec) != {"sequence"}:
                _fail("$.U", "a sequence spec has no other fields")
            seq = spec["sequence"]
            if not isinstance(seq, list) or not seq:
                _fail("$.U.sequence", "expected a nonempty list of set specs")
            U = [set_from_spec(s, f"$.U.sequence[{i}]")
                 for i, s in enumerate(seq)]
            for i, Uk in enumerate(U):
                if Uk.dim != input_dim:
                    _fail(f"$.U.sequence[{i}]", f"has dimension {Uk.dim}, "
                          f"inputs have dimension {input_dim}")
            if len(U) < N:
                _fail("$.U.sequence", f"has {len(U)} entries, the horizon "
                      f"needs {N}")
        else:
            U = set_from_spec(spec, "$.U")
            if U.dim != input_dim:
                _fail("$.U", f"has dimension {U.dim}, inputs have "
                      f"dimension {input_dim}")

    C = _load_matrix(doc, "C", base_dir)
    if C is not None and C.shape[1] != n:
        _fail("$.C", f"has {C.shape[1]} columns, A is {n}x{n}")
    D = _load_matrix(doc, "D", base_dir)
    if D is not None:
        if C is None:
            _fail("$.D", "feedthrough needs an output matrix C")
        if D.shape[0] != C.shape[0]:
            _fail("$.D", f"has {D.shape[0]} rows, C has {C.shape[0]}")
        if D.shape[1] != input_dim:
            _fail("$.D", f"has {D.shape[1]} columns, inputs have "
                  f"dimension {input_dim}")
        if U is None:
            _fail("$.D", "feedthrough needs an input set U")

    bs = BlockStructure(n)
    blocks = None
    if "blocks" in doc and "variables" in doc:
        _fail("$.blocks", "give either blocks or variables, not both")
    if "blocks" in doc:
        val = doc["blocks"]
        if not isinstance(val, list) or not val:
            _fail("$.blocks", "expected a nonempty list of block indices")
        idx = [_integer(v, f"$.blocks[{i}]", minimum=0)
               for i, v in enumerate(val)]
        for i, v in enumerate(idx):
            if v >= bs.b:
                _fail(f"$.blocks[{i}]", f"block {v} out of range 0..{bs.b - 1}")
        blocks = tuple(sorted(set(idx)))
    elif "variables" in doc:
        val = doc["variables"]
        if not isinstance(val, list) or not val:
            _fail("$.variables", "expected a nonempty list of 1-based "
                  "variable indices")
        idx = [_integer(v, f"$.variables[{i}]", minimum=1)
               for i, v in enumerate(val)]
        for i, v in enumerate(idx):
            if v > n:
                _fail(f"$.variables[{i}]", f"variable {v} out of range 1..{n}")
        blocks = tuple(sorted({bs.block_of(v - 1) for v in idx}))

    prop = None
    if "property" in doc:
        out_dim = C.shape[0] if C is not None else n
        formula = parse_property(doc["property"], out_dim,
                                 output_vars=C is not None)
        prop = SafetyProperty(formula, C=C, D=D)

    scheme = parse_scheme(doc.get("scheme", "box"), "$.scheme")
    seed = _integer(doc.get("seed", 0), "$.seed", minimum=0)
    name = doc.get("name", path.stem)
    if not isinstance(name, str):
        _fail("$.name", f"expected a string, got {type(name).__name__}")

    return Scenario(name, base_dir, A, B, C, D, X0, U, delta, N, model,
                    blocks, prop, scheme, seed)
