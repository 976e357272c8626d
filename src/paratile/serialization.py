"""JSON and text interchange for matrices, lattices, bodies, and reports.

Every number crosses the boundary as a decimal string ("17", "-3/4") so no
consumer is forced to guess at integer width or binary float rounding.  The
readers of the matrix, lattice, polytope and fixture kinds validate their
whole document before reading it, a fixture's body and lattice by their own
readers, so bad input raises SerializationError, not KeyError or TypeError.

Each schema is compiled once per kind into one closure per schema node, and
an ``items`` list checks each distinct string once, so a 128x1024 0/1 matrix
costs two regular-expression searches per row and no general validator
bookkeeping.  The compiler knows the keyword subset the shipped
schemas use: ``type``, ``minimum``, ``minItems``, ``pattern``, ``enum``,
``required``, ``properties``, ``additionalProperties`` (a boolean), ``items``
(one schema), ``anyOf``, a ``$ref`` into the root's ``definitions``, and the
annotations ``$schema`` and ``title``.  It follows jsonschema's draft-07
rules (``pattern`` searches, a bool is no number, 1.0 is an integer) and
fails closed: any other keyword or form raises NotImplementedError when the
schema is compiled, so nothing it does not understand is skipped.
"""

from __future__ import annotations

import functools
import json
import numbers
import re
from fractions import Fraction
from importlib import resources
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Union

from .lattices import Lattice
from .linalg import QMatrix
from .polytopes import HPolytope
from .radicals import SqrtSum


class SerializationError(ValueError):
    pass


# --- scalars -------------------------------------------------------------------

def frac_str(x: Union[int, Fraction]) -> str:
    if type(x) is int:  # not isinstance: str(True) is "True", not "1"
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializationError(f"bad rational literal {s!r}") from exc


def dec_str(x: Fraction) -> str:
    """Decimal rendering for humans, truncated to 15 places; exact values
    travel as p/q elsewhere."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = int(x * 10 ** 15)
    whole, frac = divmod(scaled, 10 ** 15)
    return f"{sign}{whole}.{frac:015d}".rstrip("0").rstrip(".") or "0"


# --- matrices ------------------------------------------------------------------

def matrix_to_json(m: QMatrix) -> Dict:
    """One string per distinct entry, shared by every cell that holds it.
    An integer matrix's entries are its numerator rows, so it builds no
    Fraction."""
    grid = m.entries
    text = {x: frac_str(x) for x in set(chain.from_iterable(grid))}
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [list(map(text.__getitem__, row)) for row in grid],
    }


def matrix_from_json(obj: Dict) -> QMatrix:
    validate_document("matrix", obj)
    entries = [[parse_frac(s) for s in row] for row in obj["entries"]]
    if len(entries) != obj["rows"] or any(len(r) != obj["cols"]
                                          for r in entries):
        raise SerializationError("matrix entry grid does not match rows/cols")
    return QMatrix.from_rows(entries)


# --- lattices ------------------------------------------------------------------

def _columns_to_json(m: QMatrix) -> List[List[str]]:
    """The columns of a lattice basis or a chart frame, as rational strings."""
    return [list(map(frac_str, col)) for col in zip(*m.entries)]


def _columns_from_json(cols: List[List[str]], n: int) -> List[List[Fraction]]:
    """The columns of a basis or frame, each of the document's length n."""
    if any(len(c) != n for c in cols):
        raise SerializationError("basis column length does not match dimension")
    return [list(map(parse_frac, c)) for c in cols]


def lattice_to_json(lat: Lattice) -> Dict:
    return {
        "ambient_dim": lat.ambient_dim,
        "basis_cols": _columns_to_json(lat.basis),
        "integer": lat.is_integer(),
    }


def lattice_from_json(obj: Dict) -> Lattice:
    validate_document("lattice", obj)
    cols = _columns_from_json(obj["basis_cols"], obj["ambient_dim"])
    try:
        return Lattice.from_columns(cols)
    except ValueError as exc:  # dependent columns
        raise SerializationError(str(exc)) from exc


# --- radicals ------------------------------------------------------------------

def sqrtsum_to_json(s: SqrtSum) -> Dict:
    return {"terms": [{"coeff": frac_str(c), "radicand": frac_str(r)}
                      for c, r in s.terms]}


def sqrtsum_from_json(obj: Dict) -> SqrtSum:
    total = SqrtSum.zero()
    for t in obj["terms"]:
        c = parse_frac(t["coeff"])
        r = parse_frac(t["radicand"])
        total = total + SqrtSum.sqrt(r) * SqrtSum.from_rational(c)
    return total


# --- polytopes -----------------------------------------------------------------

def polytope_to_json(p: HPolytope) -> Dict:
    return {
        "ambient_dim": p.ambient_dim,
        "subspace_basis": None if p.frame.is_identity()
        else _columns_to_json(p.frame),
        "halfspaces": [{"a": [frac_str(x) for x in a], "b": frac_str(b)}
                       for a, b in p.halfspaces],
    }


def polytope_from_json(obj: Dict) -> HPolytope:
    validate_document("polytope", obj)
    n = obj["ambient_dim"]
    basis = obj.get("subspace_basis")
    hs = [(tuple(parse_frac(x) for x in h["a"]), parse_frac(h["b"]))
          for h in obj["halfspaces"]]
    if basis is None:
        frame = n
    else:
        cols = _columns_from_json(basis, n)
        frame = QMatrix.from_rows([[c[i] for c in cols] for i in range(n)])
    try:
        return HPolytope.from_halfspaces(frame, hs)
    except ValueError as exc:  # dependent frame columns, mis-sized normals
        raise SerializationError(str(exc)) from exc


def format_hrep(p: HPolytope) -> str:
    """One inequality per line, "a1 a2 ... ad <= b", in chart coordinates.

    Comment lines carry the chart basis when the body lives in a proper
    subspace, so the file stays self-describing.
    """
    lines = [f"# dim {p.dim} ambient {p.ambient_dim}"]
    if not p.frame.is_identity():
        lines.extend("# basis " + " ".join(col)
                     for col in _columns_to_json(p.frame))
    for a, b in p.halfspaces:
        lines.append(" ".join(str(x) for x in a) + " <= " + frac_str(b))
    return "\n".join(lines) + "\n"


# --- reports -------------------------------------------------------------------

def tiling_report_to_json(rep) -> Dict:
    return {
        "passed": rep.passed,
        "samples": rep.samples,
        "translates": rep.translates,
        "volume_equal": rep.volume_equal,
        "overlap_violations": rep.overlap_violations,
        "gap_violations": rep.gap_violations,
        "boundary_hits": rep.boundary_hits,
        "engine": rep.engine,
        "witnesses": [list(w) for w in rep.witnesses],
    }


def sampler_stats_to_json(m: int, n: int, d: int, seed: int,
                          stats: Dict, s: int, c: Fraction,
                          e_d: Optional[Fraction],
                          verified_s: Optional[int] = None) -> Dict:
    out = {
        "m": m, "n": n, "d": d, "seed": seed,
        "tries": stats["tries"],
        "accepted": True,
        "row_bound": stats["row_bound"],
        "heaviest_row": stats["heaviest_row"],
        "s": s,
        "c": frac_str(c),
    }
    if e_d is not None:
        out["e_d_exact"] = frac_str(e_d)
        out["e_d_dec"] = dec_str(e_d)
    if verified_s is not None:
        out["verified_s"] = verified_s
    return out


def level_to_json(level) -> Dict:
    return {
        "n": level.n,
        "mode": level.mode,
        "m": level.m,
        "d": level.d,
        "s": level.s,
        "matrix": matrix_to_json(level.matrix) if level.matrix else None,
        "norm_usq": frac_str(level.norm_usq)
        if level.norm_usq is not None else None,
        "kernel_shortest_sq": frac_str(level.kernel_shortest_sq)
        if level.kernel_shortest_sq is not None else None,
        "ratio_kernel": sqrtsum_to_json(level.ratio_kernel)
        if level.ratio_kernel is not None else None,
        "ratio_image": sqrtsum_to_json(level.ratio_image)
        if level.ratio_image is not None else None,
        "ratio": sqrtsum_to_json(level.ratio),
        "checks": [{"name": name, "ok": ok} for name, ok in level.checks],
    }


def construction_report_to_json(rep, version: str,
                                timing: Optional[float] = None,
                                isoperimetric_lb: Optional[Fraction] = None
                                ) -> Dict:
    ratio_lo = None
    ratio_hi = frac_str(rep.ratio_upper)
    ratio_terms = None
    if rep.ratio_exact is not None:
        ratio_lo = frac_str(rep.ratio_lower)
        ratio_terms = sqrtsum_to_json(rep.ratio_exact)
    final = {
        "ratio_lo": ratio_lo,
        "ratio_hi": ratio_hi,
        "ratio_hi_dec": dec_str(rep.ratio_upper),
        "ratio_exact": ratio_terms,
        "isoperimetric_lb": frac_str(isoperimetric_lb)
        if isoperimetric_lb is not None else None,
        "trivial_bound_2n": frac_str(rep.trivial_bound),
        "predicted_bound": {"lo": frac_str(rep.predicted[0]),
                            "hi": frac_str(rep.predicted[1]),
                            "hi_dec": dec_str(rep.predicted[1])},
        "within_predicted": rep.within_predicted,
    }
    return {
        "n": rep.n,
        "kappa": rep.kappa,
        "epsilon": frac_str(rep.epsilon),
        "bound_only": rep.bound_only,
        "downgrade_reason": rep.downgrade_reason,
        "levels": [level_to_json(lv) for lv in rep.levels],
        "final": final,
        "seeds": {"construction": rep.seed},
        "version": version,
        "timing": timing,
    }


# --- fixtures ------------------------------------------------------------------

def fixture_to_json(name: str, body: HPolytope, lat: Lattice,
                    expected_ratio: Optional[SqrtSum] = None,
                    ratio_parts: Optional[Sequence[SqrtSum]] = None,
                    expect_tiling: bool = True,
                    description: str = "") -> Dict:
    return {
        "name": name,
        "description": description,
        "body": polytope_to_json(body),
        "lattice": lattice_to_json(lat),
        "expected_ratio": sqrtsum_to_json(expected_ratio)
        if expected_ratio is not None else None,
        "ratio_parts": [sqrtsum_to_json(p) for p in ratio_parts]
        if ratio_parts is not None else None,
        "expect_tiling": expect_tiling,
    }


def fixture_from_json(obj: Dict) -> Dict:
    """A fixture's fields; a fault in its body or lattice is reported with
    the name of that nested document."""
    validate_document("fixture", obj)
    nested = {}
    for key, read in (("body", polytope_from_json),
                      ("lattice", lattice_from_json)):
        try:
            nested[key] = read(obj[key])
        except SerializationError as exc:
            raise SerializationError(f"{key}: {exc}") from exc
    return {
        "name": obj["name"],
        "description": obj.get("description", ""),
        **nested,
        "expected_ratio": sqrtsum_from_json(obj["expected_ratio"])
        if obj.get("expected_ratio") else None,
        "ratio_parts": [sqrtsum_from_json(p) for p in obj["ratio_parts"]]
        if obj.get("ratio_parts") else None,
        "expect_tiling": obj["expect_tiling"],
    }


# --- schema validation ---------------------------------------------------------

_SCHEMA_KINDS = ("matrix", "lattice", "polytope", "tiling_report",
                 "construction_report", "sampler_stats", "fixture",
                 "walk_stats")

_DRAFT_07 = "http://json-schema.org/draft-07/schema#"
_DEFINITIONS = "#/definitions/"


def load_schema(kind: str) -> Dict:
    if kind not in _SCHEMA_KINDS:
        raise SerializationError(f"unknown schema kind {kind!r}")
    ref = resources.files("paratile") / "schemas" / f"{kind}.schema.json"
    return json.loads(ref.read_text())


class _Invalid(Exception):
    """A document breaks its schema.  ``path`` holds the keys and indices
    from the failing node up to the root, appended as the error propagates,
    so a valid document builds no path at all."""

    def __init__(self, message: str, wrong_type: bool = False) -> None:
        super().__init__(message)
        self.path: List[Union[str, int]] = []
        # raised by a ``type`` keyword: the node refuses the instance's type
        self.wrong_type = wrong_type


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    # draft-07: a float with an integral value is an integer; a bool is not
    return not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer())


# "integer" and "number" exclude bool, which Python counts as an int
_TYPE_CLASSES = {"array": list, "boolean": bool, "null": type(None),
                 "object": dict, "string": str}
_TYPE_TESTS = {"integer": _is_integer, "number": _is_number}


def _kw_type(names, schema, sub):
    names = [names] if isinstance(names, str) else names
    if not isinstance(names, list) or not names or any(
            t not in _TYPE_CLASSES and t not in _TYPE_TESTS for t in names):
        raise NotImplementedError(f"unsupported type {names!r}")
    classes = tuple(_TYPE_CLASSES[t] for t in names if t in _TYPE_CLASSES)
    tests = tuple(_TYPE_TESTS[t] for t in names if t in _TYPE_TESTS)
    shown = ", ".join(repr(t) for t in names)

    def check(x):
        if isinstance(x, classes):
            return
        for test in tests:
            if test(x):
                return
        raise _Invalid(f"{x!r} is not of type {shown}", wrong_type=True)
    return check


def _kw_minimum(bound, schema, sub):
    if not _is_number(bound):
        raise NotImplementedError(f"minimum must be a number, not {bound!r}")

    def check(x):
        if _is_number(x) and x < bound:
            raise _Invalid(f"{x!r} is less than the minimum of {bound!r}")
    return check


def _kw_min_items(least, schema, sub):
    if not _is_integer(least) or least < 0:
        raise NotImplementedError(f"minItems must be a count, not {least!r}")

    def check(x):
        if isinstance(x, list) and len(x) < least:
            raise _Invalid(f"{x!r} is too short")
    return check


def _kw_pattern(regex, schema, sub):
    # re.search, as jsonschema does: "5\n" matches "^[0-9]+$"
    search = re.compile(regex).search

    def check(x):
        if isinstance(x, str) and not search(x):
            raise _Invalid(f"{x!r} does not match {regex!r}")
    return check


def _kw_enum(members, schema, sub):
    if not isinstance(members, list) or any(
            m is not None and not isinstance(m, (str, bool, int, float))
            for m in members):
        raise NotImplementedError(f"enum must list scalars, not {members!r}")

    def same(m, x):  # as jsonschema: True is not 1, but 1 is 1.0
        if isinstance(m, bool) or isinstance(x, bool):
            return m is x
        return m == x

    def check(x):
        if not any(same(m, x) for m in members):
            raise _Invalid(f"{x!r} is not one of {members!r}")
    return check


def _kw_required(keys, schema, sub):
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise NotImplementedError(f"required must list keys, not {keys!r}")

    def check(x):
        if isinstance(x, dict):
            for key in keys:
                if key not in x:
                    raise _Invalid(f"{key!r} is a required property")
    return check


def _kw_properties(props, schema, sub):
    if not isinstance(props, dict):
        raise NotImplementedError("properties must be an object")
    subs = tuple((key, sub(s)) for key, s in props.items())

    def check(x):
        if isinstance(x, dict):
            for key, validate in subs:
                if key in x:
                    try:
                        validate(x[key])
                    except _Invalid as exc:
                        exc.path.append(key)
                        raise
    return check


def _kw_additional(allowed, schema, sub):
    if allowed is True:
        return None
    if allowed is not False:
        raise NotImplementedError("additionalProperties must be a boolean")
    known = frozenset(schema.get("properties", ()))

    def check(x):
        if isinstance(x, dict) and not known.issuperset(x):
            extras = ", ".join(repr(k) for k in x if k not in known)
            raise _Invalid(f"Additional properties are not allowed "
                           f"({extras} unexpected)")
    return check


def _kw_items(item_schema, schema, sub):
    if not isinstance(item_schema, dict):
        raise NotImplementedError("items must be a single schema")
    validate = sub(item_schema)

    def check(x):
        # a str's verdict against a fixed node never changes, so each
        # distinct string is checked once; a failing one raises at its first
        # index before it could be remembered
        if isinstance(x, list):
            passed = set()
            i = 0
            try:
                for i, item in enumerate(x):
                    if type(item) is not str:
                        validate(item)
                    elif item not in passed:
                        validate(item)
                        passed.add(item)
            except _Invalid as exc:
                exc.path.append(i)
                raise
    return check


def _kw_any_of(branches, schema, sub):
    if not isinstance(branches, list) or not branches:
        raise NotImplementedError("anyOf must list schemas")
    subs = tuple(sub(s) for s in branches)

    def check(x):
        errors = []
        for validate in subs:
            try:
                validate(x)
                return
            except _Invalid as exc:
                # without its traceback, which holds this frame and so
                # would make a cycle through this list
                errors.append(exc.with_traceback(None))
        # as jsonschema.best_match: when one branch alone takes the
        # instance's type and breaks below its root, its error names the leaf
        typed = [exc for exc in errors if exc.path or not exc.wrong_type]
        if len(typed) == 1 and typed[0].path:
            raise typed[0]
        raise _Invalid(f"{x!r} is not valid under any of the given schemas")
    return check


_KEYWORDS = {
    "type": _kw_type,
    "minimum": _kw_minimum,
    "minItems": _kw_min_items,
    "pattern": _kw_pattern,
    "enum": _kw_enum,
    "required": _kw_required,
    "properties": _kw_properties,
    "additionalProperties": _kw_additional,
    "items": _kw_items,
    "anyOf": _kw_any_of,
}
_ANNOTATIONS = ("$schema", "title")


def _compile_schema(root: Dict) -> Callable[[object], None]:
    """Turn a draft-07 schema into one closure per schema node.

    The closure returns None for a valid document and raises ``_Invalid``
    otherwise.  Anything outside the supported subset raises
    NotImplementedError here, never silently passes at validation time.
    """
    definitions = root.get("definitions", {}) if isinstance(root, dict) \
        else {}
    if not isinstance(definitions, dict):
        raise NotImplementedError("definitions must be an object")
    resolved: Dict[str, Optional[Callable]] = {}

    def ref(target):
        name = target[len(_DEFINITIONS):] if isinstance(target, str) and \
            target.startswith(_DEFINITIONS) else None
        if name not in definitions:
            raise NotImplementedError(f"unsupported $ref {target!r}")
        if name not in resolved:
            resolved[name] = None
            resolved[name] = node(definitions[name])
        if resolved[name] is None:
            raise NotImplementedError(f"recursive $ref {target!r}")
        return resolved[name]

    def node(schema, top=False):
        if not isinstance(schema, dict):
            raise NotImplementedError(f"schema must be an object: {schema!r}")
        if schema.get("$schema", _DRAFT_07) != _DRAFT_07:
            raise NotImplementedError(f"not draft-07: {schema['$schema']!r}")
        if "$ref" in schema:
            if set(schema) - {"$ref", *_ANNOTATIONS}:
                raise NotImplementedError("$ref with sibling keywords")
            return ref(schema["$ref"])
        checks = []
        for keyword, value in schema.items():
            if keyword in _ANNOTATIONS or (top and keyword == "definitions"):
                continue
            if keyword not in _KEYWORDS:
                raise NotImplementedError(
                    f"schema keyword {keyword!r} is not supported")
            check = _KEYWORDS[keyword](value, schema, node)
            if check is not None:
                checks.append(check)
        if len(checks) == 1:
            return checks[0]
        checks = tuple(checks)

        def run(x):
            for check in checks:
                check(x)
        return run

    return node(root, top=True)


@functools.lru_cache(maxsize=None)
def _compiled(kind: str) -> Callable[[object], None]:
    return _compile_schema(load_schema(kind))


def _path_str(path: List[Union[str, int]]) -> str:
    out = ""
    for step in reversed(path):
        if isinstance(step, int):
            out += f"[{step}]"
        else:
            out += f".{step}" if out else step
    return out or "the top level"


def validate_document(kind: str, obj: Dict) -> None:
    """Raise SerializationError when obj does not match the kind's schema."""
    try:
        _compiled(kind)(obj)
    except _Invalid as exc:
        raise SerializationError(f"{kind} document invalid: {exc} at "
                                 f"{_path_str(exc.path)}") from exc


# exact types: a subclass (a bool is one of int) takes the walk below
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _flat_encoder(item_separator: str) -> Callable:
    """The C encoder json.dumps(..., sort_keys=True, separators=
    (item_separator, ": ")) builds per call, built once per depth.  It only
    sees containers of scalars, which cannot be circular, so it keeps no
    markers."""
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: json.dumps's defaults otherwise
    return json.encoder.c_make_encoder(
        None, None, json.encoder.encode_basestring_ascii, None, ": ",
        item_separator, True, False, True)


def dump_json(obj: Dict) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, CPython's json module encodes in pure Python.  Here
    each container whose members are all scalars (a matrix row, a flat
    record) goes whole to one C encoder per indentation depth, cached by
    ``_flat_encoder``, with its newline and indentation folded into the item
    separator; only the nesting above is walked.
    """
    out: List[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(obj, newline: str, out: List[str]) -> None:
    """Append obj's indented JSON to out; newline is a line break plus the
    indentation of obj's closing bracket."""
    if isinstance(obj, dict):
        members = obj.values()
    elif isinstance(obj, (list, tuple)):
        members = obj
    else:
        out.append(json.dumps(obj))
        return
    inner = newline + "  "
    if _SCALARS.issuperset(map(type, members)):
        text = "".join(_flat_encoder("," + inner)(obj, 0))
        if len(text) > 2:  # not empty
            text = text[0] + inner + text[1:-1] + newline + text[-1]
        out.append(text)
        return
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            # the key as json writes one: "1.5" for 1.5, "true" for True
            key_text = (json.encoder.encode_basestring_ascii(key)
                        if isinstance(key, str)
                        else json.dumps({key: 0})[1:-4])
            out.append(("," if i else "") + inner + key_text + ": ")
            _encode(value, inner, out)
        out.append(newline + "}")
    else:
        out.append("[")
        for i, value in enumerate(obj):
            out.append(("," if i else "") + inner)
            _encode(value, inner, out)
        out.append(newline + "]")
