"""JSON interchange for rings, Hopf algebras, bundles, cleavings, witnesses.

Scalars and ring elements are strings so that exact values survive the trip
("3/4", "2 mod 7", "z^2-1").  A document is first checked against the
shipped schema, then resolved name by name; every diagnostic carries the
JSON pointer of the offending spot.  Validity is decided by a predicate
compiled once from the shipped schema (plain closures, Draft 2020-12
semantics for the keywords the schema uses).  A rejected document is worded
by a walk over the schema that skips what the predicate's checks accept:
jsonschema's ``best_match`` pointer and message, with no jsonschema at run
time.  Serialization always emits the explicit normal form (shorthands like
"sweedler" parse but are not reproduced), and parse of a serialized
document rebuilds equal objects.

Each shape of the schema has one reader and one writer: the structure
tables of Hopf algebras, bundles and families; a tower of generators (a
ring's ``gens``, a step's ``adjunctions``); a vector (a morphism's
``images`` too); and a table of [key, vector] rows (an antipode, a
cleaving's values).  The strings of a document share one
``rings.WorkBudget``, whose memo reads each distinct string once.  A
second row for a key of a table, or a name given twice in a tower, is
refused there.  Every witness can be written: it is well formed when built
(``homotopy``), so its step is roots over its source and its interval,
family and matrices are read over the step's top.
"""

from __future__ import annotations

import json
import operator
import os
import re
from functools import cache, partial
from operator import itemgetter

from .errors import BadScalarError, GradingError, SchemaError, UnresolvedReferenceError
from .fields import Field, PrimeField, QQ, SimpleExtension, field_from_name
from .rings import (FREE, LAURENT, ROOT, BaseMorphism, BaseRing, Generator, adjoin_root, base_ring,
                    extension_levels, refusal, WorkBudget, inclusion_morphism)
from .hopf import (Bialgebra, HopfAlgebra, cyclic_group_algebra, dual_hopf,
                   hopf_from_bialgebra, sweedler_h4, taft)
from .comod import ComoduleAlgebra, HModuleMap, trivial_bundle
from .bundles import AbgParams, abg_bundle, kummer_bundle
from .homotopy import EtaleStep, HomotopyWitness
from .record import Record


class Document(Record):
    """The resolved object graph of one interchange file."""

    field: Field
    rings: dict = {}
    hopf_algebras: dict = {}
    morphisms: dict = {}
    bundles: dict = {}
    cleavings: dict = {}
    witnesses: dict = {}


@cache
def _schema():
    # read as pkgutil.get_data reads a package resource, through this
    # module's own loader, but without importing pkgutil (and typing)
    path = os.path.join(os.path.dirname(__file__), "schema.json")
    return json.loads(__spec__.loader.get_data(path))


# ---------------------------------------------- schema predicate and explainer

_TYPED_KEYWORDS = {"object": {"required", "properties", "additionalProperties"},
                   "array": {"prefixItems", "items", "minItems", "maxItems"},
                   "string": {"minLength", "pattern"},
                   "integer": {"minimum", "maximum"}}
_GENERAL_KEYWORDS = {"$schema", "title", "$defs", "type", "enum", "const", "oneOf", "$ref"}


def _is_integer(x):
    if isinstance(x, int):
        return not isinstance(x, bool)
    return isinstance(x, float) and x.is_integer()


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _accept(x):
    return True


def _reject(x):
    return False


def _compile_schema(root):
    """A predicate equal to jsonschema's Draft 2020-12 is_valid for ``root``,
    which keeps the predicate of each subschema by id as ``checks``, the
    checks that ``_why`` walks to word a rejection.

    Only the keywords the shipped schema uses are understood, and each
    type-specific keyword must sit beside the ``type`` it constrains.  Any
    other keyword or type, an ``enum``/``const`` value that is not a string,
    or a ``$ref`` outside ``#/$defs`` raises ValueError, so a schema edit
    cannot widen what is accepted unnoticed.
    """
    defs, compiled, by_id = root.get("$defs", {}), {}, {}

    def ref(target):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"unsupported $ref {target!r}")
        if name not in compiled:
            compiled[name] = None
            compiled[name] = build(defs[name])
        if compiled[name] is None:
            raise ValueError(f"recursive $ref {target!r}")
        return compiled[name]

    def strings(values, key):
        if not all(isinstance(v, str) for v in values):
            raise ValueError(f"non-string {key} value in {values!r}")
        return frozenset(values)

    def object_check(schema):
        required = tuple(schema.get("required", ()))
        props = {k: build(v) for k, v in schema.get("properties", {}).items()}
        extra = build(schema.get("additionalProperties", True))

        def check(x):
            if not isinstance(x, dict):
                return False
            for k in required:
                if k not in x:
                    return False
            for k, v in x.items():
                if not props.get(k, extra)(v):
                    return False
            return True
        return check

    def array_check(schema):
        prefix = tuple(build(s) for s in schema.get("prefixItems", ()))
        rest = build(schema.get("items", True))
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
        skip = len(prefix)
        return lambda x: (isinstance(x, list) and lo <= len(x) <= hi
                          and all(f(v) for f, v in zip(prefix, x))
                          and (rest is _accept or all(map(rest, x[skip:] if skip else x))))

    def string_check(schema):
        lo = schema.get("minLength", 0)
        if "pattern" in schema:
            search = re.compile(schema["pattern"]).search
            return lambda x: isinstance(x, str) and len(x) >= lo and search(x) is not None
        return lambda x: isinstance(x, str) and len(x) >= lo

    def integer_check(schema):
        low, high = schema.get("minimum", -float("inf")), schema.get("maximum", float("inf"))
        return lambda x: _is_integer(x) and low <= x <= high

    typed = {"object": object_check, "array": array_check,
             "string": string_check, "integer": integer_check}

    def node(schema):
        if schema is True or schema is False:
            return _accept if schema else _reject
        kind = schema.get("type")
        if kind not in (None, *typed):
            raise ValueError(f"unsupported type {kind!r}")
        stray = schema.keys() - _GENERAL_KEYWORDS - _TYPED_KEYWORDS.get(kind, set())
        if stray:
            raise ValueError(f"unsupported schema keywords {sorted(stray)} for type {kind!r}")
        checks = [typed[kind](schema)] if kind is not None else []
        if "enum" in schema:
            allowed = strings(schema["enum"], "enum")
            checks.append(lambda x: isinstance(x, str) and x in allowed)
        if "const" in schema:
            (want,) = strings([schema["const"]], "const")
            checks.append(lambda x: isinstance(x, str) and x == want)
        if "oneOf" in schema:
            options = tuple(build(s) for s in schema["oneOf"])
            checks.append(lambda x: sum(1 for f in options if f(x)) == 1)
        if "$ref" in schema:
            checks.append(ref(schema["$ref"]))
        if len(checks) <= 1:
            return checks[0] if checks else _accept
        return lambda x: all(f(x) for f in checks)

    def build(schema):
        # kept by id, so the explainer walks only the subschemas that fail
        check = by_id[id(schema)] = node(schema)
        return check

    check = build(root)
    valid = partial(check)  # a callable of its own, to carry the checks
    valid.checks = by_id
    return valid


_IS_TYPE = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
            "string": lambda x: isinstance(x, str), "integer": _is_integer}


def _short(low, x):
    return f"{x!r} {'should be non-empty' if low == 1 else 'is too short'}"


# (fails(value, x), message(value, x)) of each keyword that reads only x
_INSTANCE_KEYWORDS = {
    "type": (lambda kind, x: not _IS_TYPE[kind](x),
             lambda kind, x: f"{x!r} is not of type {kind!r}"),
    "enum": (lambda allowed, x: not (isinstance(x, str) and x in allowed),
             lambda allowed, x: f"{x!r} is not one of {allowed!r}"),
    "const": (lambda want, x: not (isinstance(x, str) and x == want),
              lambda want, x: f"{want!r} was expected"),
    "minItems": (lambda low, x: isinstance(x, list) and len(x) < low, _short),
    "maxItems": (lambda high, x: isinstance(x, list) and len(x) > high, lambda high, x: (
        f"{x!r} {'is expected to be empty' if high == 0 else 'is too long'}")),
    "minLength": (lambda low, x: isinstance(x, str) and len(x) < low, _short),
    "pattern": (lambda pattern, x: isinstance(x, str) and re.search(pattern, x) is None,
                lambda pattern, x: f"{x!r} does not match {pattern!r}"),
    "minimum": (lambda low, x: _is_number(x) and x < low,
                lambda low, x: f"{x!r} is less than the minimum of {low!r}"),
    "maximum": (lambda high, x: _is_number(x) and x > high,
                lambda high, x: f"{x!r} is greater than the maximum of {high!r}"),
}


def _error(path, message, keyword, typed, context=()):
    return (-len(path), path, keyword != "oneOf", not typed), message, context


def _why(root, checks, x):
    """The (path, message) of jsonschema 4.26.0's
    ``best_match(Draft202012Validator(root).iter_errors(x))`` for an x that
    the predicate of root rejected, or None if there is no error.  ``checks``
    maps the id of each subschema of root to its compiled predicate.  The
    walk yields the same errors: each keyword those of its function in
    jsonschema's ``_keywords.py``, with the same messages, in the schema's
    key order, and a subschema whose check accepts none.  An error is (key,
    message, context): key is jsonschema's ``relevance`` (its empty "strong"
    set left out), context the errors of a oneOf no branch of which matched,
    their paths relative to the oneOf's instance."""
    defs = root.get("$defs", {})

    def visit(schema, x, path, key, out):
        """Append to out the errors of schema on x, found at path + (key,),
        or at path if key is None."""
        if checks[id(schema)](x):
            return
        if schema is False:
            # jsonschema yields this error before it extends the path by key
            out.append(_error(path, f"False schema does not allow {x!r}", None, False))
            return
        if key is not None:
            path = (*path, key)
        typed = _IS_TYPE.get(schema.get("type"), _reject)(x)
        for keyword, value in schema.items():
            if keyword in _INSTANCE_KEYWORDS:
                fails, message = _INSTANCE_KEYWORDS[keyword]
                if fails(value, x):
                    out.append(_error(path, message(value, x), keyword, typed))
            elif keyword == "$ref":
                visit(defs[value.removeprefix("#/$defs/")], x, path, None, out)
            elif keyword == "oneOf":
                context = []
                for i, sub in enumerate(value):
                    if checks[id(sub)](x):
                        break
                    visit(sub, x, (), None, context)
                else:
                    out.append(_error(path, f"{x!r} is not valid under any of the given schemas",
                                      keyword, typed, context))
                    continue
                more = [s for s in value[i + 1:] if checks[id(s)](x)]
                if more:
                    out.append(_error(path, f"{x!r} is valid under each of "
                                      + ", ".join(map(repr, more + [value[i]])), keyword, typed))
            elif isinstance(x, dict):
                if keyword == "required":
                    out.extend(_error(path, f"{k!r} is a required property", keyword, typed)
                               for k in value if k not in x)
                elif keyword == "properties":
                    for k, sub in value.items():
                        if k in x:
                            visit(sub, x[k], path, k, out)
                elif keyword == "additionalProperties":
                    extras = [k for k in x if k not in schema.get("properties", {})]
                    if value is not False:
                        for k in extras:
                            visit(value, x[k], path, k, out)
                    elif extras:
                        verb = "was" if len(extras) == 1 else "were"
                        out.append(_error(path, "Additional properties are not allowed "
                                          f"({', '.join(map(repr, sorted(extras)))} {verb} "
                                          "unexpected)", keyword, typed))
            elif isinstance(x, list):
                if keyword == "prefixItems":
                    for i, (v, sub) in enumerate(zip(x, value)):
                        visit(sub, v, path, i, out)
                elif keyword == "items":
                    prefix = len(schema.get("prefixItems", ()))
                    if value is not False:
                        for i in range(prefix, len(x)):
                            visit(value, x[i], path, i, out)
                    elif len(x) > prefix:
                        extra = len(x) - prefix
                        tail = x[prefix:] if extra != 1 else x[prefix]
                        out.append(_error(path, f"Expected at most {prefix} "
                                          f"{'item' if prefix == 1 else 'items'} "
                                          f"but found {extra} extra: {tail!r}", keyword, typed))

    errors = []
    visit(root, x, (), None, errors)
    if not errors:
        return None
    # max keeps the first of equal keys; into a oneOf's context while its
    # two least keys differ, as best_match's heapq.nsmallest(2, ...) does
    (_, path, *_), message, context = max(errors, key=itemgetter(0))
    while context:
        least = sorted(context, key=itemgetter(0))[:2]
        if len(least) == 2 and least[0][0] == least[1][0]:
            break
        (_, below, *_), message, context = least[0]
        path += below
    return path, message


@cache
def _is_valid():
    return _compile_schema(_schema())


@cache
def _explain():
    # the checks _is_valid compiled, so a rejected document compiles once
    return partial(_why, _schema(), _is_valid().checks)


def validate_raw(obj) -> None:
    """Structural check against the shipped schema; SchemaError on failure.

    The compiled predicate decides validity and ``_why`` words a rejection,
    walking the schema with the predicate's own checks.  A document the
    predicate rejects is never accepted.
    """
    if _is_valid()(obj):
        return
    found = _explain()(obj)
    if found is None:
        raise SchemaError("/", "the document does not match the schema")
    path, message = found
    raise SchemaError("/" + "/".join(map(_token, path)), message)


def _token(name) -> str:
    """name as one JSON pointer token (RFC 6901): ~ as ~0, then / as ~1."""
    return str(name).replace("~", "~0").replace("/", "~1")


def _value(read, text, pointer, spend):
    """read(text, spend) for read a Field.parse or a BaseRing.parse_element,
    once per distinct read and text of the document (``WorkBudget.read``),
    with pointer in the message of a BadScalarError."""
    try:
        return spend.read(read, text)
    except BadScalarError as exc:
        raise BadScalarError(f"at {pointer}: {exc}") from None


def _first(seen: dict, key, here, what):
    """Record here as where key is first given; refuse it given again."""
    if key in seen:
        raise SchemaError(here, f"repeats the {what} at {seen[key]}")
    seen[key] = here


def _ref(table: dict, name, pointer):
    if name not in table:
        raise UnresolvedReferenceError(pointer, name)
    return table[name]


# ------------------------------------------------------------------ fields


def parse_field(spec, spend, pointer="/field") -> Field:
    if isinstance(spec, str):  # "Q" or "F<digits>", as the schema's pattern admits
        try:
            return field_from_name(spec)
        except BadScalarError as exc:
            raise SchemaError(pointer, str(exc)) from None
    base = parse_field(spec["base"], spend, pointer + "/base")
    modulus = tuple(_value(base.parse, c, f"{pointer}/modulus/{i}", spend)
                    for i, c in enumerate(spec["modulus"]))
    try:
        return SimpleExtension(base, spec["var"], modulus)
    except ValueError as exc:
        raise SchemaError(pointer + "/modulus", str(exc)) from None


def field_spec(K: Field):
    if K == QQ:
        return "Q"
    if isinstance(K, PrimeField):
        return f"F{K.p}"
    return {"base": field_spec(K.base), "var": K.var,
            "modulus": [K.base.format(c) for c in K.modulus]}


# ------------------------------------------------------------------- rings


def _tower(R: BaseRing, gens, pointer, spend, below="") -> BaseRing:
    """R with gens adjoined in turn: a ring's ``gens`` over the field, or a
    step's ``adjunctions`` (roots, of no kind) over its source, the ring
    whose gens ``below`` points to.  No name repeats one of R or its field."""
    names = {L.var: "/field" + "/base" * d + "/var"
             for d, L in enumerate(extension_levels(R.field))}
    names.update({g.name: f"{below}/{i}/name" for i, g in enumerate(R.gens)})
    for i, g in enumerate(gens):
        here = f"{pointer}/{i}"
        name, kind, grade = g["name"], g.get("kind", ROOT), g.get("grade", 0)
        stray = next((key for key in ("degree", "value") if key in g and kind != ROOT), None)
        if stray:
            raise SchemaError(f"{here}/{stray}", f"a {kind} generator takes no {stray}")
        _first(names, name, here + "/name", "name")
        refused = refusal(R.gens, Generator(name, kind, grade=grade))
        if refused is not None:
            at = here + "/grade" if isinstance(refused, GradingError) else here
            raise SchemaError(at, str(refused))
        if kind == FREE:
            R = R.add_free(name, grade=grade)
        elif kind == LAURENT:
            R = R.add_laurent(name)
        else:
            for key in ("value", "degree"):
                if key not in g:
                    raise SchemaError(here, f"root generator needs a {key}")
            u = _value(R.parse_element, g["value"], here + "/value", spend)
            R, _, _ = adjoin_root(R, u, g["degree"], name)
    return R


def _tower_spec(R: BaseRing, start=0) -> list:
    """The entries of R's generators from index start on."""
    gens = []
    for i, g in enumerate(R.gens[start:], start):
        entry = {"name": g.name, "kind": g.kind}
        if g.grade:
            entry["grade"] = g.grade
        if g.kind == ROOT:
            entry["degree"] = g.degree
            entry["value"] = repr(R.root_value(i))
        gens.append(entry)
    return gens


# ----------------------------------------------- Hopf algebras and bundles
#
# An explicit Hopf algebra, an explicit bundle and an explicit family share
# one table format: labels, unit, ``mult`` (rows [a, b, {label: value}]) and
# a tensor table under ``key`` (rows [a, [[left, right, value], ...]]),
# "comult" with both legs in the labels, "coaction" with the right leg in
# the Hopf algebra's.  A Hopf algebra adds its counit and antipode.


def _indices(labels) -> dict:
    return {nm: i for i, nm in enumerate(labels)}


def _labels(spec, pointer) -> dict:
    labels = _indices(spec["labels"])
    if len(labels) != len(spec["labels"]):
        raise SchemaError(pointer + "/labels", "duplicate basis label")
    return labels


def _vec(read, spec, labels, pointer, spend):
    """{index: value} of a vector keyed by label; the record it goes into
    drops its zeros."""
    out = {}
    for label, text in spec.items():
        here = f"{pointer}/{_token(label)}"
        i = _ref(labels, label, here)
        out[i] = _value(read, text, here, spend)
    return out


def _rows(rows, pointer, width):
    """(pointer, row) for each row of a table keyed by its first ``width``
    entries, refusing a row whose key an earlier row already gave."""
    first = {}
    for r, row in enumerate(rows):
        here = f"{pointer}/{r}"
        _first(first, tuple(row[:width]), here, "row")
        yield here, row


def _vec_table(read, rows, keys, labels, pointer, spend) -> dict:
    """{key index: vector} of a table of [key, vector] rows."""
    return {_ref(keys, key, here): _vec(read, vec, labels, here + "/1", spend)
            for here, (key, vec) in _rows(rows, pointer, 1)}


def _tables(read, add, spec, labels, right_labels, key, pointer, spend):
    """The ``mult`` table, the ``key`` table and the unit, read in that
    order; repeated terms of a row of the ``key`` table are summed by
    ``add``, a repeated row is refused."""
    mult = {}
    for here, (a, b, vec) in _rows(spec["mult"], f"{pointer}/mult", 2):
        row = (_ref(labels, a, here), _ref(labels, b, here))
        mult[row] = _vec(read, vec, labels, here + "/2", spend)
    table = {}
    for here, (a, terms) in _rows(spec[key], f"{pointer}/{key}", 1):
        row = table[_ref(labels, a, here)] = {}
        for s, (left, right, text) in enumerate(terms):
            at = f"{here}/1/{s}"
            value = _value(read, text, at, spend)
            k = (_ref(labels, left, at), _ref(right_labels, right, at))
            row[k] = add(row[k], value) if k in row else value
    return mult, table, _vec(read, spec["unit"], labels, pointer + "/unit", spend)


def parse_hopf(K: Field, spec, pointer, spend) -> HopfAlgebra:
    kind = spec["construction"]
    if kind == "sweedler":
        return sweedler_h4(K)
    if kind == "taft":
        return taft(spec["order"], _value(K.parse, spec["q"], pointer + "/q", spend), K)
    if kind == "cyclic_group":
        return cyclic_group_algebra(spec["order"], K)
    if kind == "cyclic_dual":
        return dual_hopf(cyclic_group_algebra(spec["order"], K))
    labels = _labels(spec, pointer)
    read = K.parse
    mult, comult, unit = _tables(read, K.add, spec, labels, labels, "comult", pointer, spend)
    tables = (K, tuple(spec["labels"]), mult, unit, comult,
              _vec(read, spec["counit"], labels, pointer + "/counit", spend))
    if "antipode" not in spec:
        return hopf_from_bialgebra(Bialgebra(*tables))
    return HopfAlgebra(*tables, _vec_table(read, spec["antipode"], labels, labels,
                                           pointer + "/antipode", spend))


def _bundle_over(doc: Document, R: BaseRing, spec, pointer, spend) -> ComoduleAlgebra:
    """A bundle of the document over R, or a witness's family over its interval."""
    kind, read = spec["construction"], R.parse_element
    if kind == "abg":
        return abg_bundle(AbgParams(R, *(_value(read, spec[k], f"{pointer}/{k}", spend)
                                         for k in ("alpha", "beta", "gamma"))))
    H = _ref(doc.hopf_algebras, spec["hopf"], pointer + "/hopf")
    if kind == "trivial":
        return trivial_bundle(R, H)
    labels = _labels(spec, pointer)
    mult, coaction, unit = _tables(read, operator.add, spec, labels, _indices(H.labels),
                                   "coaction", pointer, spend)
    return ComoduleAlgebra(R, H, tuple(spec["labels"]), mult, unit, coaction)


def parse_bundle(doc: Document, spec, pointer, spend) -> ComoduleAlgebra:
    if spec["construction"] == "kummer":
        return kummer_bundle(spec["order"],
                             _value(doc.field.parse, spec["q"], pointer + "/q", spend),
                             doc.field)
    R = _ref(doc.rings, spec["ring"], pointer + "/ring")
    return _bundle_over(doc, R, spec, pointer, spend)


def _vec_spec(fmt, labels, v):
    return {labels[i]: fmt(c) for i, c in sorted(v.items())}


def _vec_table_spec(fmt, keys, labels, rows) -> list:
    """The [key, vector] rows of the nonzero vectors of rows, (index, vector) pairs."""
    return [[keys[k], _vec_spec(fmt, labels, v)] for k, v in rows if v]


def values_spec(f: HModuleMap) -> list:
    """The nonzero values of a map H -> A, as [H label, {A label: coefficient}]."""
    A = f.algebra
    return _vec_table_spec(A.base.format_coeffs, A.hopf.labels, A.labels, enumerate(f.values))


def _tables_spec(fmt, labels, right_labels, unit, mult, key, table):
    """The explicit form of labels, unit, ``mult`` and the ``key`` table."""
    return {"construction": "explicit", "labels": list(labels),
            "unit": _vec_spec(fmt, labels, unit),
            "mult": [[labels[i], labels[j], _vec_spec(fmt, labels, mult[(i, j)])]
                     for (i, j) in sorted(mult)],
            key: [[labels[i], [[labels[a], right_labels[b], fmt(c)]
                               for (a, b), c in sorted(table[i].items())]]
                  for i in sorted(table)]}


def hopf_spec(H: HopfAlgebra):
    fmt, labels = H.field.format, H.labels
    return {**_tables_spec(fmt, labels, labels, H.unit, H.mult, "comult", H.comult),
            "counit": _vec_spec(fmt, labels, H.counit),
            "antipode": _vec_table_spec(fmt, labels, labels, sorted(H.antipode.items()))}


def _bundle_body_spec(A: ComoduleAlgebra, hopf_name: str):
    return {**_tables_spec(A.base.format_coeffs, A.labels, A.hopf.labels, A.unit, A.mult,
                           "coaction", A.coaction), "hopf": hopf_name}


# --------------------------------------------------------------- documents


def parse_document(text: str) -> Document:
    """Validate and resolve one interchange file."""
    try:
        raw = json.loads(text)
        validate_raw(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"not valid JSON: {exc.msg} at line {exc.lineno}") from None
    except RecursionError:
        raise SchemaError("/", "the document nests too deeply to read") from None
    return resolve(raw)


def resolve(raw) -> Document:
    """The objects of a document that passed ``validate_raw``.  Its scalars
    and elements share one work budget."""
    spend = WorkBudget()
    doc = Document(parse_field(raw["field"], spend))
    K = doc.field
    for name, spec in raw.get("rings", {}).items():
        doc.rings[name] = _tower(base_ring(K), spec["gens"], f"/rings/{_token(name)}/gens", spend)
    for name, spec in raw.get("hopf_algebras", {}).items():
        doc.hopf_algebras[name] = parse_hopf(K, spec, f"/hopf_algebras/{_token(name)}", spend)
    for name, spec in raw.get("morphisms", {}).items():
        here = f"/morphisms/{_token(name)}"
        src = _ref(doc.rings, spec["source"], here + "/source")
        dst = _ref(doc.rings, spec["target"], here + "/target")
        gens = {g.name: g.name for g in src.gens}
        images = _vec(dst.parse_element, spec["images"], gens, here + "/images", spend)
        doc.morphisms[name] = BaseMorphism(src, dst, images)
    for name, spec in raw.get("bundles", {}).items():
        doc.bundles[name] = parse_bundle(doc, spec, f"/bundles/{_token(name)}", spend)
    for name, spec in raw.get("cleavings", {}).items():
        here = f"/cleavings/{_token(name)}"
        A = _ref(doc.bundles, spec["bundle"], here + "/bundle")
        values = _vec_table(A.base.parse_element, spec["values"], _indices(A.hopf.labels),
                            _indices(A.labels), here + "/values", spend)
        doc.cleavings[name] = HModuleMap(A, tuple(values.get(k, {}) for k in range(A.hopf.dim)))
    for name, spec in raw.get("witnesses", {}).items():
        doc.witnesses[name] = _parse_witness(doc, spec, f"/witnesses/{_token(name)}", spend)
    return doc


def _parse_witness(doc: Document, spec, pointer, spend) -> HomotopyWitness:
    name = spec["step"]["source"]
    source = _ref(doc.rings, name, pointer + "/step/source")
    cur = _tower(source, spec["step"]["adjunctions"], pointer + "/step/adjunctions", spend,
                 f"/rings/{_token(name)}/gens")
    step = EtaleStep(inclusion_morphism(source, cur))
    family = _bundle_over(doc, step.interval.ring, spec["family"], pointer + "/family", spend)
    at_zero, at_one = (_ref(doc.bundles, spec[k], f"{pointer}/{k}") for k in ("at_zero", "at_one"))
    isos = ([[_value(cur.parse_element, e, f"{pointer}/{key}/{r}/{c}", spend)
              for c, e in enumerate(row)] for r, row in enumerate(spec[key])]
            for key in ("iso_zero", "iso_one"))
    return HomotopyWitness(step, family, at_zero, at_one, *isos)


def _named(table: dict, obj, stem: str):
    """The greatest name table gives obj, which does not depend on the
    table's order; else a new name from stem."""
    name = max((n for n, existing in table.items() if existing == obj), default=None)
    if name is not None:
        return name
    name = stem
    i = 2
    while name in table:
        name = f"{stem}{i}"
        i += 1
    table[name] = obj
    return name


def document_of(doc: Document) -> dict:
    """Serialize to the explicit normal form, naming shared subobjects."""
    ring_objs, hopf_objs, bundle_objs = dict(doc.rings), dict(doc.hopf_algebras), dict(doc.bundles)
    bundle_specs = {}

    def bundle_spec_for(name, A):
        bundle_specs[name] = {**_bundle_body_spec(A, _named(hopf_objs, A.hopf, "hopf")),
                              "ring": _named(ring_objs, A.base, "ring")}

    def bundle_name(A):
        name = _named(bundle_objs, A, "bundle")
        if name not in bundle_specs:
            bundle_spec_for(name, A)
        return name

    for name, A in doc.bundles.items():
        bundle_spec_for(name, A)
    morphisms = {name: {"source": _named(ring_objs, f.source, "ring"),
                        "target": _named(ring_objs, f.target, "ring"),
                        "images": {g.name: f.target.format_element(img)
                                   for g, img in zip(f.source.gens, f.images)}}
                 for name, f in doc.morphisms.items()}
    cleavings = {name: {"bundle": bundle_name(cm.algebra), "values": values_spec(cm)}
                 for name, cm in doc.cleavings.items()}
    witnesses = {}
    for name, w in doc.witnesses.items():
        adjs = _tower_spec(w.step.target, len(w.step.source.gens))
        for adj in adjs:
            del adj["kind"]
        fmt = w.step.target.format_element
        witnesses[name] = {
            "step": {"source": _named(ring_objs, w.step.source, "ring"), "adjunctions": adjs},
            "family": _bundle_body_spec(w.family, _named(hopf_objs, w.family.hopf, "hopf")),
            "at_zero": bundle_name(w.at_zero),
            "at_one": bundle_name(w.at_one),
            **{key: [[fmt(e) for e in row] for row in getattr(w, key)]
               for key in ("iso_zero", "iso_one")}}
    parts = {"rings": {n: {"gens": _tower_spec(r)} for n, r in ring_objs.items()},
             "hopf_algebras": {n: hopf_spec(h) for n, h in hopf_objs.items()},
             "morphisms": morphisms, "bundles": bundle_specs, "cleavings": cleavings,
             "witnesses": witnesses}
    return {"field": field_spec(doc.field), **{key: part for key, part in parts.items() if part}}


def dump_document(doc: Document) -> str:
    return json.dumps(document_of(doc), indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())
