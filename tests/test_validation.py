"""Document validation: the compiled schema predicate and explainer against
jsonschema as the oracle, the diagnostics of rejected documents, and the
import budget of a cold CLI process (which never loads jsonschema)."""

import copy
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from jsonschema.exceptions import best_match
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal.bundles import AbgParams, abg_bundle, abg_cleaving
from hopfgal.cli import main
from hopfgal import document
from hopfgal.document import Document, _compile_schema, _is_valid, _schema, document_of, validate_raw
from hopfgal.errors import SchemaError
from hopfgal.fields import QQ, PrimeField
from hopfgal.homotopy import cleft_trivialization_witness
from hopfgal.hopf import sweedler_h4, taft
from hopfgal.rings import base_ring, inclusion_morphism

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "seed0"


def _library_documents():
    C = base_ring(QQ)
    P = C.add_free("u")
    A = abg_bundle(AbgParams(C, 3, 5, 7))
    full = Document(
        QQ, rings={"C": C, "P": P},
        hopf_algebras={"H4": sweedler_h4(QQ)},
        morphisms={"f": inclusion_morphism(C, P)},
        bundles={"A": A},
        cleavings={"g": abg_cleaving(A).gamma},
        witnesses={"w": cleft_trivialization_witness(AbgParams(C, 3, 5, 7)).links[0][0]})
    shorthand = {"field": {"base": "Q", "var": "i", "modulus": ["1", "0", "1"]},
                 "rings": {"R": {"gens": [{"name": "z", "kind": "laurent"},
                                          {"name": "w", "kind": "root", "degree": 2,
                                           "value": "z", "grade": 1}]}},
                 "hopf_algebras": {"S": {"construction": "sweedler"},
                                   "T": {"construction": "taft", "order": 4, "q": "i"},
                                   "G": {"construction": "cyclic_group", "order": 2}},
                 "bundles": {"K": {"construction": "kummer", "order": 2, "q": "-1"},
                             "V": {"construction": "trivial", "ring": "R", "hopf": "S"}}}
    return [document_of(full), shorthand,
            document_of(Document(PrimeField(5), hopf_algebras={"T": taft(2, 4, PrimeField(5))}))]


def _bench_documents():
    names = ("cli-docs/abg.json", "cli-docs/schema.json", "cli-docs/unresolved.json",
             "bundle-towers/abg_uvw.json", "hopf-antipode/taft3_F61.json")
    return [json.loads((BENCH_DATA / n).read_text()) for n in names if (BENCH_DATA / n).is_file()]


LIBRARY_DOCUMENTS = _library_documents()
DOCUMENTS = LIBRARY_DOCUMENTS + _bench_documents()
ORACLE = jsonschema.Draft202012Validator(_schema())


def _oracle(doc, validator=ORACLE):
    """(pointer, message) of jsonschema's best match, None for a valid doc."""
    err = best_match(validator.iter_errors(doc))
    if err is None:
        return None
    return "/" + "/".join(str(p) for p in err.absolute_path), err.message


def _diagnostic(doc):
    """(pointer, message) of validate_raw's SchemaError, None if it accepts."""
    try:
        validate_raw(doc)
    except SchemaError as exc:
        return exc.pointer, str(exc).removeprefix(f"{exc.pointer}: ")
    return None


def _property_names(schema, out):
    if isinstance(schema, dict):
        out.update(schema.get("properties", {}))
        for v in schema.values():
            _property_names(v, out)
    elif isinstance(schema, list):
        for v in schema:
            _property_names(v, out)
    return out


KEYS = sorted(_property_names(_schema(), set())) + ["extra", "1", "x"]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from([0.0, 2.0, 1.5, -1.0, math.nan, math.inf]),
    st.sampled_from(["", "1", "-1", "Q", "F7", "Q7", "F", "Q\n", "free", "laurent", "root",
                     "cubic", "sweedler", "taft", "cyclic_group", "cyclic_dual", "explicit",
                     "kummer", "abg", "trivial", "x", "u"]))
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=6)


def _containers(node, out):
    out.append(node)
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            _containers(child, out)
    return out


def _mutate(data, doc):
    """One to three edits: set, delete, insert or copy an entry of some object or array."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        boxes = _containers(doc, [])
        box = boxes[data.draw(st.integers(0, len(boxes) - 1))]
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        op = data.draw(st.sampled_from(("set", "delete", "insert", "copy")))
        if not keys or op == "insert":
            if isinstance(box, dict):
                box[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
            else:
                box.insert(data.draw(st.integers(0, len(box))), data.draw(VALUES))
            continue
        key = data.draw(st.sampled_from(keys))
        if op == "set":
            box[key] = data.draw(VALUES)
        elif op == "delete":
            del box[key]
        elif isinstance(box, list):
            box.append(copy.deepcopy(box[key]))
        else:
            box[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(box[key])
    return doc


def test_predicate_agrees_on_the_unmutated_documents() -> None:
    assert all(map(_is_valid(), LIBRARY_DOCUMENTS))
    for doc in DOCUMENTS:
        assert _is_valid()(doc) == ORACLE.is_valid(doc)


@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_predicate_matches_jsonschema_on_mutated_documents(data) -> None:
    doc = _mutate(data, data.draw(st.sampled_from(DOCUMENTS)))
    assert _is_valid()(doc) == ORACLE.is_valid(doc)
    assert _diagnostic(doc) == _oracle(doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "maxLength": 3},
    {"type": "object", "patternProperties": {}},
    {"anyOf": [{"type": "string"}]},
    {"enum": ["a", 1]},
    {"const": None},
    {"type": "number"},
    {"$ref": "#/definitions/x"},
    {"$defs": {"a": {"$ref": "#/$defs/a"}}, "$ref": "#/$defs/a"},
    {"properties": {"a": {"format": "date"}}},
    {"minLength": 1},
    {"type": "array", "minimum": 0},
    {"type": ["string", "integer"]},
])
def test_compiler_refuses_what_it_does_not_implement(schema) -> None:
    with pytest.raises(ValueError):
        _compile_schema(schema)


_SUBSCHEMAS = ("properties", "additionalProperties", "items", "prefixItems", "oneOf", "$defs")


def _spellings(schema, at, out):
    """Every subschema that holds another, by body, with the pointers of
    its spellings: the $defs and the inline ones alike."""
    children = []
    for key in _SUBSCHEMAS:
        v = schema.get(key)
        if key in ("properties", "$defs") and isinstance(v, dict):
            children += [(f"{at}/{key}/{k}", s) for k, s in v.items()]
        elif isinstance(v, list):
            children += [(f"{at}/{key}/{i}", s) for i, s in enumerate(v)]
        elif isinstance(v, dict):
            children.append((f"{at}/{key}", v))
    children = [(where, s) for where, s in children if isinstance(s, dict)]
    if children and at:
        out.setdefault(json.dumps(schema, sort_keys=True), []).append(at)
    for where, s in children:
        _spellings(s, where, out)
    return out


def test_schema_spells_each_definition_once() -> None:
    """One definition per shape: no two $defs of the shipped schema have
    equal bodies, and no subschema that holds another (a table, a vector,
    the labels array) is spelled twice, inline or as a definition.  With
    none equal, none are equal up to the names of the definitions they
    refer to either (a vector of scalars against a vector of elements),
    since such a pair needs an equal pair below it."""
    schema = json.loads((Path(hopfgal.__file__).parent / "schema.json").read_text())
    bodies = {}
    for name, body in schema["$defs"].items():
        bodies.setdefault(json.dumps(body, sort_keys=True), []).append(name)
    assert [names for names in bodies.values() if len(names) > 1] == []
    assert [at for at in _spellings(schema, "", {}).values() if len(at) > 1] == []


def _degree(degree):
    return {"field": "F7", "rings": {"R": {"gens": [
        {"name": "r", "kind": "root", "degree": degree, "value": "1"}]}}}


# The pointers and messages of jsonschema 4.26.0's best match, byte for
# byte: the explainer gives them whichever jsonschema is installed, or none.
# One case per keyword of the shipped schema that can be the best match.  A
# const cannot: every oneOf holding one has another branch that also fails
# at "construction", and two errors there tie, so the oneOf itself is
# reported; it is pinned in SMALL_SCHEMA_REJECTIONS below.
REJECTIONS = [
    ({"field": "Q", "bundles": {"A": {"construction": "explicit", "ring": "C", "hopf": "H",
                                      "labels": ["1"], "unit": {"1": "1"},
                                      "mult": [["1", "1", {"1": "1"}]],
                                      "coaction": [["1", [["1", "1"]]]]}}},
     "/bundles/A/coaction/0/1/0", "['1', '1'] is too short"),
    ({"field": "Q7"}, "/field", "'Q7' does not match '^(Q|F[0-9]+)$'"),
    ({"rings": {}}, "/", "'field' is a required property"),
    ({"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "cubic"}]}}},
     "/rings/C/gens/0/kind", "'cubic' is not one of ['free', 'laurent', 'root']"),
    ({"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "free", "grade": -1}]}}},
     "/rings/C/gens/0/grade", "-1 is less than the minimum of 0"),
    ({"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "free", "grade": True}]}}},
     "/rings/C/gens/0/grade", "True is not of type 'integer'"),
    ({"field": "Q", "hopf_algebras": {"H": {"construction": "taft", "order": 1, "q": "-1"}}},
     "/hopf_algebras/H",
     "{'construction': 'taft', 'order': 1, 'q': '-1'} is not valid under any of the given schemas"),
    ({"field": {"base": "Q", "var": "i", "modulus": ["1", "0"]}},
     "/field/modulus", "['1', '0'] is too short"),
    ({"field": "Q", "witnesses": {"w": {"step": {"source": "C", "adjunctions": []},
                                        "family": {"construction": "trivial", "hopf": "H"},
                                        "at_zero": "A", "at_one": "B",
                                        "iso_zero": [], "iso_one": [["1"]]}}},
     "/witnesses/w/iso_zero", "[] should be non-empty"),
    ({"field": "Q", "morphisms": {"f": {"source": "C", "target": "D", "images": {"u": ""}}}},
     "/morphisms/f/images/u", "'' should be non-empty"),
    ({"field": "Q", "extra": 1}, "/", "Additional properties are not allowed ('extra' was unexpected)"),
    ({"field": "Q", "b": 1, "a": 2}, "/",
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
    ([], "/", "[] is not of type 'object'"),
    ({"field": "F193", "bundles": {"K": {"construction": "kummer", "order": 65, "q": "5"}}},
     "/bundles/K/order", "65 is greater than the maximum of 64"),
    ({"field": "Q", "cleavings": {"g": {"bundle": "A", "values": [["1", {}, "x"]]}}},
     "/cleavings/g/values/0", "['1', {}, 'x'] is too long"),
    ({"field": "Q", "cleavings": {"g": {"bundle": "A", "values": [[1, {}]]}}},
     "/cleavings/g/values/0/0", "1 is not of type 'string'"),
    ({"field": "Q", "witnesses": {"w": {"step": {"source": "C", "adjunctions": []},
                                        "family": {"construction": "trivial", "hopf": "H"},
                                        "at_zero": "A", "at_one": "B",
                                        "iso_zero": [["1"]], "iso_one": [["1", ""]]}}},
     "/witnesses/w/iso_one/0/1", "'' should be non-empty"),
    (_degree(16.5), "/rings/R/gens/0/degree", "16.5 is not of type 'integer'"),
    (_degree(math.nan), "/rings/R/gens/0/degree", "nan is not of type 'integer'"),
    (_degree(math.inf), "/rings/R/gens/0/degree", "inf is not of type 'integer'"),
    (_degree(65.0), "/rings/R/gens/0/degree", "65.0 is greater than the maximum of 64"),
]


@pytest.mark.parametrize("doc,pointer,message", REJECTIONS)
def test_rejection_keeps_pointer_and_message(doc, pointer, message) -> None:
    with pytest.raises(SchemaError) as exc:
        validate_raw(doc)
    assert exc.value.pointer == pointer
    assert str(exc.value) == f"{pointer}: {message}"
    assert _oracle(doc) == (pointer, message)


SMALL_SCHEMA_REJECTIONS = [
    ({"const": "a"}, "b", "/", "'a' was expected"),
    ({"type": "array", "prefixItems": [{"type": "string"}], "items": False}, ["a", 1, 2],
     "/", "Expected at most 1 item but found 2 extra: [1, 2]"),
    ({"type": "array", "items": False}, [1], "/", "Expected at most 0 items but found 1 extra: 1"),
    ({"type": "array", "maxItems": 0}, [1], "/", "[1] is expected to be empty"),
    ({"oneOf": [{"type": "string"}, {"type": "string", "minLength": 1}]}, "x",
     "/", "'x' is valid under each of {'type': 'string', 'minLength': 1}, {'type': 'string'}"),
    # jsonschema reports a false subschema's error at its parent's path
    ({"type": "object", "properties": {"a": {"type": "object", "properties": {"b": False}}}},
     {"a": {"b": 1}}, "/a", "False schema does not allow 1"),
]


@pytest.mark.parametrize("schema,doc,pointer,message", SMALL_SCHEMA_REJECTIONS)
def test_explainer_on_small_schemas(schema, doc, pointer, message) -> None:
    path, said = _compile_schema(schema, explain=True)(doc)
    assert ("/" + "/".join(map(str, path)), said) == (pointer, message)
    assert _oracle(doc, jsonschema.Draft202012Validator(schema)) == (pointer, message)


def test_rejected_document_is_never_accepted(monkeypatch, tmp_path, capsys) -> None:
    """A document the predicate rejects raises even when the explainer
    finds no error, and the CLI exits 2 without resolving it."""
    monkeypatch.setattr(document, "_explain", lambda: lambda doc: None)
    with pytest.raises(SchemaError) as exc:
        validate_raw({"field": "Q7"})
    assert exc.value.pointer == "/"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "Q7"}))
    assert main(["verify-hopf", str(path), "H"]) == 2
    assert capsys.readouterr().err == "error: /: the document does not match the schema\n"


def test_neg_schema_document_diagnostic(capsys) -> None:
    path = BENCH_DATA / "cli-docs" / "schema.json"
    if not path.is_file():
        pytest.skip("benchmark documents not present")
    assert main(["verify-bundle", str(path), "A", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: /bundles/A: {'construction': 'explicit', 'hopf': 'H4'")
    assert captured.err.endswith("is not valid under any of the given schemas\n")


# ------------------------------------------- shorthand order and degree caps

def _shorthands(order):
    return [{"field": "F17", "hopf_algebras": {"T": {"construction": kind, "order": order}}}
            for kind in ("cyclic_group", "cyclic_dual")] + [
        {"field": "F17", "hopf_algebras": {"T": {"construction": "taft", "order": order, "q": "3"}}},
        {"field": "F193", "bundles": {"K": {"construction": "kummer", "order": order, "q": "5"}}}]


def _root_document(degree):
    """r^degree = z over F7[z^+-1] and an abg bundle with alpha 1+r, which
    is not a unit: its norm 1 +- z is not a unit of F7[z^+-1]."""
    return {"field": "F7",
            "rings": {"R": {"gens": [{"name": "z", "kind": "laurent"},
                                     {"name": "r", "kind": "root", "degree": degree,
                                      "value": "z"}]}},
            "bundles": {"A": {"construction": "abg", "ring": "R",
                              "alpha": "1+r", "beta": "0", "gamma": "0"}}}


def _witness_document(degree):
    """The cleft witness of the abg bundle (3, 5, 7) over Q, its step
    adjoining s with s^degree = 3 in place of s^2 = 3."""
    C = base_ring(QQ)
    w = cleft_trivialization_witness(AbgParams(C, 3, 5, 7)).links[0][0]
    raw = document_of(Document(QQ, rings={"C": C}, witnesses={"w": w}))
    raw["witnesses"]["w"]["step"]["adjunctions"][0]["degree"] = degree
    return raw


@pytest.mark.parametrize("order", [16, 17, 64, 65, 10 ** 30, 16.0, 17.0, True])
def test_predicate_matches_jsonschema_at_the_order_caps(order) -> None:
    """The shorthand orders, and a root generator's degree (at most 64)."""
    for doc in _shorthands(order) + [_root_document(order), _witness_document(order)]:
        assert _is_valid()(doc) == ORACLE.is_valid(doc)


def test_order_caps_admit_the_largest_orders() -> None:
    # a Hopf algebra shorthand of order 16 (taft(16), 256-dimensional) and
    # a Kummer bundle of order 64
    for doc in _shorthands(16)[:3] + _shorthands(64)[3:]:
        validate_raw(doc)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def _cli(tmp_path, raw, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    return subprocess.run([sys.executable, "-m", "hopfgal.cli", *(a.format(path) for a in argv)],
                          env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=10)


# Before the caps, taft of order 40 over F41 ran for 22.8 s and exited 0;
# order 100 over F101 was killed out of memory.  cyclic_dual of order 256
# exhausted 2 GB of address space.  A root of degree 120 took 2.3 s to
# exit 1 and one of degree 200 took 15 s, as the unit test of 1+r builds
# the dense degree x degree matrix of multiplication by 1+r; degree 100000
# ended in a MemoryError traceback.
@pytest.mark.parametrize("raw, argv, pointer", [
    ({"field": "F41", "hopf_algebras": {"T": {"construction": "taft", "order": 40, "q": "7"}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/order"),
    ({"field": "F101", "hopf_algebras": {"T": {"construction": "taft", "order": 100, "q": "2"}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/order"),
    ({"field": "F257", "hopf_algebras": {"T": {"construction": "cyclic_dual", "order": 256}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/order"),
    ({"field": "F10007", "hopf_algebras": {"T": {"construction": "cyclic_group", "order": 10000}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/order"),
    ({"field": "F1201", "bundles": {"K": {"construction": "kummer", "order": 400, "q": "3"}}},
     ["verify-bundle", "{}", "K"], "/bundles/K/order"),
    (_root_document(65), ["verify-bundle", "{}", "A"], "/rings/R/gens/1/degree"),
    (_root_document(100000), ["verify-bundle", "{}", "A"], "/rings/R/gens/1/degree"),
    (_witness_document(65), ["witness", "verify", "{}"], "/witnesses/w/step/adjunctions/0/degree"),
], ids=["taft40", "taft100", "cyclic_dual256", "cyclic_group10000", "kummer400",
        "degree65", "degree100000", "step_degree65"])
def test_order_over_the_cap_exits_2_quickly(tmp_path, raw, argv, pointer) -> None:
    t0 = time.perf_counter()
    out = _cli(tmp_path, raw, argv)
    assert time.perf_counter() - t0 < 2.0
    assert out.returncode == 2, out.stderr
    assert f"error: {pointer}: " in out.stderr and "Traceback" not in out.stderr


def test_root_degree_at_the_cap_still_answers(tmp_path) -> None:
    out = _cli(tmp_path, _root_document(64), ["verify-bundle", "{}", "A"])
    assert out.returncode == 1, out.stderr
    assert out.stderr == "rejected: alpha = r+1 is not a unit; x could not be invertible\n"
    # s^64 = 3 in place of s^2 = 3: the witness loads and fails a check
    out = _cli(tmp_path, _witness_document(64), ["witness", "verify", "{}"])
    assert out.returncode == 1, out.stderr
    assert "[FAIL] preserves product  (phi(x*x) != phi(x)*phi(x))" in out.stdout


# ------------------------------------------------------------ import budget

def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout.split()


def test_cli_import_leaves_jsonschema_and_thread_pool_unloaded() -> None:
    out = _fresh("import sys, hopfgal.cli\n"
                 "print('jsonschema' in sys.modules, 'concurrent.futures' in sys.modules,\n"
                 "      'dataclasses' in sys.modules)")
    assert out == ["False", "False", "False"]


def test_valid_document_never_imports_jsonschema(tmp_path) -> None:
    good = tmp_path / "good.json"
    good.write_text(json.dumps(document_of(Document(QQ, hopf_algebras={"H4": sweedler_h4(QQ)}))))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "Q7"}))
    code = ("import contextlib, io, sys\n"
            "from hopfgal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    good = main(['verify-hopf', {str(good)!r}, 'H4'])\n"
            "    loaded = 'jsonschema' in sys.modules\n"
            f"    bad = main(['verify-hopf', {str(bad)!r}, 'H4'])\n"
            "print(good, loaded, bad, 'jsonschema' in sys.modules)")
    assert _fresh(code) == ["0", "False", "2", "False"]
