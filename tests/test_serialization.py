import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratile import serialization
from paratile.cli import main
from paratile.construction import RecursionConfig, construct
from paratile.lattices import Lattice
from paratile.linalg import QMatrix
from paratile.polytopes import HPolytope, voronoi_cell
from paratile.radicals import SqrtSum
from paratile.sampler import LdpcParams, sample_ldpc
from paratile.serialization import (SerializationError,
                                    construction_report_to_json, dec_str,
                                    dump_json, fixture_from_json, format_hrep,
                                    frac_str, lattice_from_json,
                                    lattice_to_json, load_schema,
                                    matrix_from_json, matrix_to_json,
                                    parse_frac, polytope_from_json,
                                    polytope_to_json,
                                    sampler_stats_to_json, sqrtsum_from_json,
                                    sqrtsum_to_json, tiling_report_to_json,
                                    validate_document)
from paratile.verify import verify_tiling

from oracles import lattices_equal, parse_hrep

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SRC_DIR = FIXTURE_DIR.parent / "src"

FCC = Lattice(QMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))


# --- scalar codecs ----------------------------------------------------------


@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 9))
def test_frac_str_round_trip(num, den):
    x = Fraction(num, den)
    assert parse_frac(frac_str(x)) == x


def test_frac_str_of_ints_and_bools():
    assert frac_str(7) == "7" and frac_str(-12) == "-12"
    assert frac_str(Fraction(6, 3)) == "2"
    assert frac_str(True) == "1" and frac_str(False) == "0"


def test_parse_frac_rejects_garbage():
    for bad in ("abc", "1/0", "1.5", ""):
        with pytest.raises(SerializationError):
            parse_frac(bad)


def test_dec_str_renderings():
    assert dec_str(Fraction(1, 8)) == "0.125"
    assert dec_str(Fraction(-3, 2)) == "-1.5"
    assert dec_str(Fraction(0)) == "0"
    assert dec_str(Fraction(7)) == "7"
    assert dec_str(Fraction(2, 3)) == "0.666666666666666"


# --- matrices and lattices ----------------------------------------------------


def test_matrix_round_trip_integer():
    m = QMatrix.from_rows([[1, -2, 3], [0, 5, -7]])
    doc = matrix_to_json(m)
    validate_document("matrix", doc)
    back = matrix_from_json(doc)
    assert back.is_integer()
    assert back.entries is back.num == m.num


def test_matrix_round_trip_rational():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(3)],
                           [Fraction(-5, 7), Fraction(0)]])
    back = matrix_from_json(matrix_to_json(m))
    assert isinstance(back, QMatrix)
    assert back.entries == m.entries


def test_matrix_from_json_checks_grid():
    doc = {"rows": 2, "cols": 2, "entries": [["1", "2", "3"], ["4", "5"]]}
    with pytest.raises(SerializationError):
        matrix_from_json(doc)


def test_lattice_round_trip():
    doc = lattice_to_json(FCC)
    validate_document("lattice", doc)
    assert lattices_equal(lattice_from_json(doc), FCC)


def test_lattice_from_json_checks_column_length():
    doc = {"ambient_dim": 3, "basis_cols": [["1", "0"]], "integer": True}
    with pytest.raises(SerializationError):
        lattice_from_json(doc)


def test_lattice_from_json_refuses_a_rank_0_document():
    # the schema's minItems refuses it before its ambient dimension, which
    # no column could carry, is lost
    doc = {"ambient_dim": 3, "basis_cols": [], "integer": True}
    with pytest.raises(SerializationError, match="too short"):
        lattice_from_json(doc)


# --- radicals -----------------------------------------------------------------


def test_sqrtsum_round_trip():
    vals = [SqrtSum.from_rational(6) * SqrtSum.sqrt(2),
            (SqrtSum.sqrt(2) + SqrtSum.sqrt(3)) * (SqrtSum.sqrt(2)
                                                   + SqrtSum.sqrt(3)),
            SqrtSum.zero(),
            SqrtSum.from_rational(Fraction(-7, 3))]
    for v in vals:
        assert sqrtsum_from_json(sqrtsum_to_json(v)) == v


# --- polytopes ----------------------------------------------------------------


def test_polytope_round_trip_identity_frame():
    cube = HPolytope.cube(3)
    doc = polytope_to_json(cube)
    validate_document("polytope", doc)
    assert doc["subspace_basis"] is None
    back = polytope_from_json(doc)
    assert set(back.ambient_halfspaces()) == set(cube.ambient_halfspaces())
    assert back.volume() == cube.volume()


def test_polytope_round_trip_framed():
    cell = voronoi_cell(FCC)
    doc = polytope_to_json(cell)
    validate_document("polytope", doc)
    assert doc["subspace_basis"] is not None
    back = polytope_from_json(doc)
    assert back.volume() == cell.volume()
    assert back.measures().surface == cell.measures().surface
    assert set(back.vertices()) == set(cell.vertices())


def test_hrep_round_trip():
    for body in (HPolytope.cube(2), voronoi_cell(FCC)):
        back = parse_hrep(format_hrep(body))
        assert back.volume() == body.volume()
        assert back.ratio() == body.ratio()


def test_hrep_parse_errors():
    with pytest.raises(SerializationError):
        parse_hrep("# dim 2 ambient 2\n")
    with pytest.raises(SerializationError):
        parse_hrep("1 0 1\n")


# --- report documents -----------------------------------------------------------


def test_tiling_report_document():
    rep = verify_tiling(HPolytope.cube(2), Lattice.standard(2), samples=500)
    doc = tiling_report_to_json(rep)
    validate_document("tiling_report", doc)
    assert doc["passed"] is True
    assert doc["witnesses"] == []


def test_sampler_stats_document():
    mat, stats = sample_ldpc(LdpcParams(m=16, n=64, d=4, seed=1))
    doc = sampler_stats_to_json(16, 64, 4, 1, stats, s=0,
                                c=Fraction(1, 3000), e_d=Fraction(0),
                                verified_s=1)
    validate_document("sampler_stats", doc)
    assert doc["accepted"] is True
    assert doc["verified_s"] == 1


def test_construction_report_documents():
    base = construction_report_to_json(construct(3), "1.2.3", timing=0.5)
    validate_document("construction_report", base)
    assert base["final"]["ratio_exact"] is not None

    B = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    cfg = RecursionConfig(matrix_override=((B, 1),))
    worked = construction_report_to_json(construct(4, cfg), "1.2.3")
    validate_document("construction_report", worked)
    assert worked["levels"][0]["mode"] == "step"

    down = construction_report_to_json(
        construct(4, RecursionConfig(matrix_override=((B, 1),), dim_cap=1)),
        "1.2.3")
    validate_document("construction_report", down)
    assert down["bound_only"] is True
    assert "dim cap" in down["downgrade_reason"]


def test_fixture_files_validate_and_reconstruct():
    names = ("cube3", "worked_n4", "scaled_cube3", "dup_column_matrix")
    for name in names:
        path = FIXTURE_DIR / f"{name}.json"
        if not path.exists():
            continue
        obj = json.loads(path.read_text())
        if "body" not in obj:
            continue  # matrix fixtures are validated by the CLI tests
        validate_document("fixture", obj)
        fx = fixture_from_json(obj)
        if fx["expected_ratio"] is not None:
            assert fx["body"].ratio() == fx["expected_ratio"]
        if fx["ratio_parts"]:
            total = SqrtSum.zero()
            for part in fx["ratio_parts"]:
                total = total + part
            assert total == fx["expected_ratio"]


def test_make_fixtures_reproduces_the_committed_corpus(tmp_path):
    # reports and fixtures are byte-deterministic; a change that moves them
    # must regenerate fixtures/ with the script
    script = FIXTURE_DIR.parent / "scripts" / "make_fixtures.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    committed = sorted(p.name for p in FIXTURE_DIR.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() \
            == (FIXTURE_DIR / name).read_bytes(), name


# --- schema plumbing -------------------------------------------------------------


def test_unknown_schema_kind_rejected():
    with pytest.raises(SerializationError):
        load_schema("nonsense")


def test_validate_document_reports_kind():
    with pytest.raises(SerializationError, match="matrix"):
        validate_document("matrix", {"rows": "two"})


def test_validate_document_names_the_path():
    doc = {"rows": 1, "cols": 2, "entries": [["1", "2"]]}
    doc["entries"][0][1] = "5\n"  # re.search: "$" matches before a newline
    validate_document("matrix", doc)
    doc["entries"][0][1] = "1/0"
    with pytest.raises(SerializationError,
                       match=r"'1/0' does not match .* at entries\[0\]\[1\]$"):
        validate_document("matrix", doc)
    with pytest.raises(SerializationError, match="at the top level$"):
        validate_document("matrix", {"rows": 1, "cols": 1})


def test_a_repeated_bad_string_is_named_at_its_first_index():
    # each distinct string is checked once per list; the first failure wins
    doc = {"rows": 1, "cols": 3, "entries": [["1", "x", "x"]]}
    with pytest.raises(SerializationError,
                       match=r"'x' does not match .* at entries\[0\]\[1\]$"):
        validate_document("matrix", doc)


@pytest.mark.parametrize("row, where", [
    (["1", "1", 1], 2),
    (["0", 7, "0", 7], 1),
    (["1", True, "1"], 1),
])
def test_non_strings_among_checked_strings_are_still_rejected(row, where):
    doc = {"rows": 1, "cols": len(row), "entries": [row]}
    at = rf"at entries\[0\]\[{where}\]$"
    with pytest.raises(SerializationError, match="not of type 'string' " + at):
        validate_document("matrix", doc)


def test_schema_compiler_fails_closed():
    compile_schema = serialization._compile_schema
    loop = {"items": {"$ref": "#/definitions/a"}}
    for schema, reason in (
            ({"type": "array", "maxItems": 3}, "'maxItems' is not supported"),
            ({"type": "object", "additionalProperties": {}}, "boolean"),
            ({"items": [{"type": "string"}]}, "single schema"),
            ({"type": "integr"}, "unsupported type"),
            ({"properties": {"a": {"$ref": "#/definitions/gone"}}},
             "unsupported \\$ref"),
            ({"definitions": {"a": loop}, "properties": {"x": loop}},
             "recursive"),
            ({"$ref": "#/definitions/a", "definitions": {"a": {}}},
             "sibling"),
            ({"$schema": "https://json-schema.org/draft/2020-12/schema"},
             "not draft-07"),
            ({"properties": {"a": {"description": "x"}}}, "'description'")):
        with pytest.raises(NotImplementedError, match=reason):
            compile_schema(schema)
    # every shipped schema stays inside the supported subset
    for kind in serialization._SCHEMA_KINDS:
        compile_schema(load_schema(kind))


# --- equivalence with jsonschema -----------------------------------------------

_REPLACEMENTS = ("x", "5\n", "1/0", "-3/4", "", 7, -1, 0, 1.0, 2.5, True,
                 False, None, [], ["1"], {}, {"terms": []})

_DELETE = object()


def _replaced(doc, path, value):
    """doc with the node at path replaced (or deleted, for value _DELETE),
    copying only the containers along the path."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if not rest and value is _DELETE:
        del out[head]
    else:
        out[head] = _replaced(doc[head], rest, value)
    return out


def _nodes(doc, path=()):
    """Every node's path; of a list only the first item, since the shipped
    schemas give every item of a list the same schema."""
    yield path
    if isinstance(doc, dict):
        for key in doc:
            yield from _nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        if doc:
            yield from _nodes(doc[0], path + (0,))


def _mutations(doc):
    yield doc
    for path in _nodes(doc):
        node = doc
        for step in path:
            node = node[step]
        for value in _REPLACEMENTS:
            yield _replaced(doc, path, value)
        if isinstance(node, dict):
            for key in node:
                yield _replaced(doc, path + (key,), _DELETE)
            yield _replaced(doc, path, {**node, "surplus": 0})
        elif isinstance(node, list) and node:
            yield _replaced(doc, path, node + node[:1])
            yield _replaced(doc, path, node + ["x"])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(kind, document) pairs: the fixtures and their parts, and one CLI
    output of every kind."""
    tmp = tmp_path_factory.mktemp("cli")
    docs = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        obj = json.loads(path.read_text())
        if "body" in obj:
            docs += [("fixture", obj), ("polytope", obj["body"]),
                     ("lattice", obj["lattice"])]
        else:
            docs.append(("matrix", obj))
    worked = tmp / "worked.json"
    worked.write_text(dump_json(matrix_to_json(
        QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]]))))
    out = {kind: tmp / f"{kind}.json" for kind in serialization._SCHEMA_KINDS}
    runs = [
        ["construct", "--n", "3", "--out", out["construction_report"],
         "--body-out", out["polytope"]],
        ["sample-matrix", "--m", "8", "--n", "16", "--d", "3", "--seed", "1",
         "--verify-s", "1", "--out", out["matrix"],
         "--stats-out", out["sampler_stats"]],
        ["verify", "--fixture", FIXTURE_DIR / "scaled_cube3.json",
         "--samples", "200", "--out", out["tiling_report"]],
        ["walk-stats", "--m", "2", "--t-max", "2", "--samples", "10",
         "--out", out["walk_stats"]],
        ["construct", "--n", "4", "--matrix-override", worked,
         "--override-s", "1", "--out", out["construction_report"]],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) in (0, 1)
        written = [k for k, path in out.items() if path.exists()]
        docs += [(k, json.loads(out[k].read_text())) for k in written]
        for k in written:
            out[k].unlink()
    docs.append(("lattice", lattice_to_json(FCC)))
    assert {kind for kind, _ in docs} == set(serialization._SCHEMA_KINDS)
    return docs


def test_compiled_schemas_agree_with_jsonschema(corpus):
    reference = {kind: jsonschema.Draft7Validator(load_schema(kind))
                 for kind in serialization._SCHEMA_KINDS}
    checked = invalid = 0
    for kind, doc in corpus:
        for variant in _mutations(doc):
            errors = list(reference[kind].iter_errors(variant))
            try:
                validate_document(kind, variant)
                ours = None
            except SerializationError as exc:
                ours = str(exc)
            assert (ours is None) == (not errors), (kind, variant, ours)
            if len(errors) == 1:  # one error: the place best_match names
                best = jsonschema.exceptions.best_match(errors)
                where = serialization._path_str(
                    list(reversed(best.absolute_path)))
                found = ours.rsplit(" at ", 1)[1]
                if best.validator == "anyOf":
                    # a tie between errors below an anyOf stops best_match
                    # at the anyOf; ours names the first of them
                    assert found == where or found.startswith(
                        (where + ".", where + "[")), (ours, where)
                else:
                    assert found == where, (ours, where)
            checked += 1
            invalid += ours is not None
    assert checked > 2000 and 0 < invalid < checked


def test_compiled_keywords_follow_draft_07_on_edge_values():
    # values the shipped schemas' enums and minimums never meet in a report
    schemas = ({"enum": [1, "a", None, False]}, {"enum": [True, 0.5]},
               {"type": "integer"}, {"type": ["number", "null"]},
               {"minimum": 1}, {"pattern": "^[0-9]+$"}, {"minItems": 2},
               {"anyOf": [{"type": "boolean"}, {"minimum": 3}]})
    values = (True, False, 1, 1.0, 0, 0.5, 2.5, -1, 3, "1", "5\n", "a", None,
              [], [1], [1, 2], {}, {"a": 1})
    for schema in schemas:
        ours = serialization._compile_schema(schema)
        reference = jsonschema.Draft7Validator(schema)
        for value in values:
            try:
                ours(value)
                valid = True
            except serialization._Invalid:
                valid = False
            assert valid == reference.is_valid(value), (schema, value)


def test_any_of_names_the_leaf_of_its_one_typed_branch():
    leaf = {"type": "object", "properties": {"a": {"type": "string"}}}
    other = {"type": "object", "properties": {"b": {"type": "string"}}}
    cases = [
        # one branch takes an object and breaks at "a": its leaf is named
        ({"anyOf": [{"type": "null"}, leaf]}, {"a": 1},
         "1 is not of type 'string'", ["a"]),
        # two branches take an object: ambiguous, so the anyOf is named
        ({"anyOf": [leaf, other]}, {"a": 1, "b": 1},
         "{'a': 1, 'b': 1} is not valid under any of the given schemas", []),
        # the one typed branch breaks at its root: the anyOf is named
        ({"anyOf": [{"type": "null"}, {"type": "string", "pattern": "^a$"}]},
         "b",
         "'b' is not valid under any of the given schemas", []),
    ]
    for schema, value, message, path in cases:
        with pytest.raises(serialization._Invalid) as caught:
            serialization._compile_schema(schema)(value)
        assert (str(caught.value), caught.value.path) == (message, path)
        if path:  # the leaf jsonschema's best_match picks
            best = jsonschema.exceptions.best_match(
                jsonschema.Draft7Validator(schema).iter_errors(value))
            assert list(best.absolute_path) == path


def test_import_leaves_jsonschema_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, paratile.cli; "
            "print(sorted(m for m in ('jsonschema', 'referencing', 'rpds', "
            "'attrs') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sampled_matrix_document_validates_within_budget():
    # one regex search per cell; jsonschema's per-cell walk took 1.2-1.5 s
    mat, _ = sample_ldpc(LdpcParams(m=128, n=1024, d=4, seed=1))
    doc = matrix_to_json(mat)
    validate_document("matrix", doc)  # compile outside the timed call
    t0 = time.perf_counter()
    validate_document("matrix", doc)
    assert time.perf_counter() - t0 < 0.5


def test_dump_json_is_canonical():
    a = dump_json({"b": 1, "a": [2, 3]})
    b = dump_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def _indented(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(
    [p for p in (FIXTURE_DIR.parent / "tests" / "golden").glob("*.stdout")
     if p.read_text().startswith("{")]
    + list(FIXTURE_DIR.glob("*.json"))), ids=lambda p: p.name)
def test_dump_json_matches_the_indenting_encoder_on_documents(path):
    doc = json.loads(path.read_text())
    assert dump_json(doc) == _indented(doc)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.text(max_size=6), st.sampled_from(["", "\u00e9", "\u2603\n\"\\"]))


@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=4)),
    max_leaves=30))
def test_dump_json_matches_the_indenting_encoder(obj):
    assert dump_json(obj) == _indented(obj)


class _Text(str):
    pass


@pytest.mark.parametrize("obj", [
    {3: [1, 2], -1: {"a": 0}, 10: 2.5},
    {1.5: [1], -0.0: {"a": None}, 2.0: "x"},
    {True: {"a": 1}, False: [False]},
    {None: {"a": [1]}},
    {3: 1, -1: 2.5, 10: None},
    {1.5: 1, -0.0: "x", float("inf"): True},
    {True: None, False: "x"},
    {None: 0},
    [True, _Text("subé"), 0, 1.5, None],
    {"k": [_Text("a"), {"b": False}]},
], ids=["int-keys", "float-keys", "bool-keys", "none-key",
        "flat-int-keys", "flat-float-keys", "flat-bool-keys",
        "flat-none-key", "bool-and-str-subclass", "nested-str-subclass"])
def test_dump_json_matches_the_indenting_encoder_off_the_text_keys(obj):
    # non-text keys and scalar subclasses reach the paths the hypothesis
    # property, whose keys are all text, never does
    assert dump_json(obj) == _indented(obj)
