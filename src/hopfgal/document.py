"""JSON interchange for rings, Hopf algebras, bundles, cleavings, witnesses.

Scalars and ring elements are strings so that exact values survive the trip
("3/4", "2 mod 7", "z^2-1").  A document is first checked against the
shipped schema, then resolved name by name; every diagnostic carries the
JSON pointer of the offending spot.  Validity is decided by a predicate
compiled once from the shipped schema (plain closures, Draft 2020-12
semantics for the keywords the schema uses).  A rejected document is
explained by a second output of the same compiler, built on the first
rejection: the pointer and message that jsonschema's ``best_match`` gives,
worded the same way, so no jsonschema is needed at run time.
Serialization always emits the explicit normal form (constructor
shorthands like "sweedler" parse but are not reproduced), and parse of a
serialized document rebuilds equal objects.

Hopf algebras, bundles and the families of witnesses share one table
format, read by one reader and written by one writer.  Scalars and ring
elements share the value and vector readers, which are given the parse
function and the ``axioms.Ops`` to use; a bundle and a family share the
reader of their constructions.  The strings of a document share one
``rings.WorkBudget``, whose memo reads each distinct string once per
document.  A table that gives two rows for the same key (a product a·b,
a basis element of the tensor table or the antipode, a cleaving's value
on a basis element) is refused at the second.
"""

from __future__ import annotations

import json
import os
import re
from functools import cache

from .axioms import field_ops, ring_ops, total
from .errors import BadScalarError, SchemaError, UnresolvedReferenceError
from .fields import Field, PrimeField, QQ, SimpleExtension
from .rings import (BaseMorphism, BaseRing, adjoin_root, base_ring,
                    WorkBudget, extend_with_t, inclusion_morphism)
from .hopf import (Bialgebra, HopfAlgebra, cyclic_group_algebra, dual_hopf,
                   hopf_from_bialgebra, sweedler_h4, taft)
from .comod import ComoduleAlgebra, HModuleMap, trivial_bundle
from .bundles import AbgParams, abg_bundle, kummer_bundle
from .homotopy import (ROOT_ADJUNCTION, EtaleStep, HomotopyWitness,
                       _frozen_matrix)
from .record import Record

FREE, LAURENT, ROOT = "free", "laurent", "root"


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


def _compile_schema(root, explain=False):
    """A predicate equal to jsonschema's Draft 2020-12 is_valid for ``root``;
    with ``explain``, the explainer of ``_explainer`` instead.

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
    return _explainer(root, by_id) if explain else check


# The explainer gives the error that jsonschema 4.26.0 picks,
# ``best_match(Draft202012Validator(schema).iter_errors(x))``, from the same
# errors: each keyword yields the errors of its function in jsonschema's
# ``_keywords.py``, with the same messages, in the schema's key order, and
# a subschema the predicate accepts yields none and is not walked.  An error
# is (key, message, context): key is jsonschema's ``relevance`` (its empty
# "strong" set left out), context the errors of a oneOf no branch of which
# matched, their paths relative to the oneOf's instance.

_IS_TYPE = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
            "string": lambda x: isinstance(x, str), "integer": _is_integer}


def _error(path, message, keyword, typed, context=()):
    return (-len(path), path, keyword != "oneOf", not typed), message, context


def _skip(x, path, key, out):
    pass


def _once(keyword, fails, message):
    """The step of a keyword that yields message(x) where fails(x)."""
    def step(x, path, out, typed):
        if fails(x):
            out.append(_error(path, message(x), keyword, typed))
    return step


def _explainer(root, checks):
    """why(x): the (path, message) of jsonschema's best match for an x that
    the predicate rejected, or None if there is no error.  ``checks`` maps
    the id of each subschema of root to its compiled predicate."""
    defs, refs = root.get("$defs", {}), {}

    def descend(schema):
        """visit(x, path, key, out): append to out the errors of schema on
        x, found at path + (key,), or at path if key is None."""
        check = checks[id(schema)]
        if check is _accept:
            return _skip
        if schema is False:
            # jsonschema yields a false schema's error before it extends the
            # path by key
            return lambda x, path, key, out: out.append(
                _error(path, f"False schema does not allow {x!r}", None, False))
        is_kind = _IS_TYPE.get(schema.get("type"), _reject)
        steps = [keywords[k](v, schema) for k, v in schema.items() if k in keywords]

        def visit(x, path, key, out):
            if check(x):
                return
            if key is not None:
                path = (*path, key)
            typed = is_kind(x)
            for step in steps:
                step(x, path, out, typed)
        return visit

    def type_(kind, schema):
        return _once("type", lambda x: not _IS_TYPE[kind](x),
                     lambda x: f"{x!r} is not of type {kind!r}")

    def ref(target, schema):
        name = target.removeprefix("#/$defs/")
        if name not in refs:
            refs[name] = descend(defs[name])
        visit = refs[name]
        return lambda x, path, out, typed: visit(x, path, None, out)

    def required(names, schema):
        def step(x, path, out, typed):
            if isinstance(x, dict):
                out.extend(_error(path, f"{k!r} is a required property", "required", typed)
                           for k in names if k not in x)
        return step

    def properties(props, schema):
        visits = [(k, descend(s)) for k, s in props.items()]

        def step(x, path, out, typed):
            if isinstance(x, dict):
                for k, visit in visits:
                    if k in x:
                        visit(x[k], path, k, out)
        return step

    def additional(extra, schema):
        props = schema.get("properties", {})
        if extra is False:
            def fails(x):
                return isinstance(x, dict) and any(k not in props for k in x)

            def message(x):
                extras = sorted(k for k in x if k not in props)
                verb = "was" if len(extras) == 1 else "were"
                return ("Additional properties are not allowed "
                        f"({', '.join(map(repr, extras))} {verb} unexpected)")
            return _once("additionalProperties", fails, message)
        visit = descend(extra)

        def step(x, path, out, typed):
            if isinstance(x, dict):
                for k, v in x.items():
                    if k not in props:
                        visit(v, path, k, out)
        return step

    def prefix_items(subs, schema):
        visits = [descend(s) for s in subs]

        def step(x, path, out, typed):
            if isinstance(x, list):
                for i, (v, visit) in enumerate(zip(x, visits)):
                    visit(v, path, i, out)
        return step

    def items(rest, schema):
        prefix = len(schema.get("prefixItems", ()))
        if rest is False:
            def message(x):
                extra = len(x) - prefix
                tail = x[prefix:] if extra != 1 else x[prefix]
                return (f"Expected at most {prefix} {'item' if prefix == 1 else 'items'} "
                        f"but found {extra} extra: {tail!r}")
            return _once("items", lambda x: isinstance(x, list) and len(x) > prefix, message)
        visit = descend(rest)

        def step(x, path, out, typed):
            if isinstance(x, list):
                for i in range(prefix, len(x)):
                    visit(x[i], path, i, out)
        return step

    def one_of(options, schema):
        branches = [(checks[id(s)], descend(s), s) for s in options]

        def step(x, path, out, typed):
            context = []
            for i, (check, visit, _) in enumerate(branches):
                if check(x):
                    break
                visit(x, (), None, context)
            else:
                out.append(_error(path, f"{x!r} is not valid under any of the given schemas",
                                  "oneOf", typed, context))
                return
            more = [s for check, _, s in branches[i + 1:] if check(x)]
            if more:
                more.append(branches[i][2])
                out.append(_error(path, f"{x!r} is valid under each of "
                                  + ", ".join(map(repr, more)), "oneOf", typed))
        return step

    keywords = {
        "type": type_,
        "$ref": ref,
        "required": required,
        "properties": properties,
        "additionalProperties": additional,
        "prefixItems": prefix_items,
        "items": items,
        "oneOf": one_of,
        "enum": lambda allowed, schema: _once(
            "enum", lambda x: not (isinstance(x, str) and x in allowed),
            lambda x: f"{x!r} is not one of {allowed!r}"),
        "const": lambda want, schema: _once(
            "const", lambda x: not (isinstance(x, str) and x == want),
            lambda x: f"{want!r} was expected"),
        "minItems": lambda low, schema: _once(
            "minItems", lambda x: isinstance(x, list) and len(x) < low,
            lambda x: f"{x!r} {'should be non-empty' if low == 1 else 'is too short'}"),
        "maxItems": lambda high, schema: _once(
            "maxItems", lambda x: isinstance(x, list) and len(x) > high,
            lambda x: f"{x!r} {'is expected to be empty' if high == 0 else 'is too long'}"),
        "minLength": lambda low, schema: _once(
            "minLength", lambda x: isinstance(x, str) and len(x) < low,
            lambda x: f"{x!r} {'should be non-empty' if low == 1 else 'is too short'}"),
        "pattern": lambda pattern, schema: _once(
            "pattern", lambda x, search=re.compile(pattern).search: (
                isinstance(x, str) and search(x) is None),
            lambda x: f"{x!r} does not match {pattern!r}"),
        "minimum": lambda low, schema: _once(
            "minimum", lambda x: _is_number(x) and x < low,
            lambda x: f"{x!r} is less than the minimum of {low!r}"),
        "maximum": lambda high, schema: _once(
            "maximum", lambda x: _is_number(x) and x > high,
            lambda x: f"{x!r} is greater than the maximum of {high!r}"),
    }
    visit_root = descend(root)

    def why(x):
        errors = []
        visit_root(x, (), None, errors)
        if not errors:
            return None
        # max keeps the first of equal keys; into a oneOf's context while its
        # two least keys differ, as best_match's heapq.nsmallest(2, ...) does
        (_, path, *_), message, context = max(errors, key=_key)
        while context:
            least = sorted(context, key=_key)[:2]
            if len(least) == 2 and least[0][0] == least[1][0]:
                break
            (_, below, *_), message, context = least[0]
            path += below
        return path, message
    return why


def _key(error):
    return error[0]


@cache
def _is_valid():
    return _compile_schema(_schema())


@cache
def _explain():
    return _compile_schema(_schema(), explain=True)


def validate_raw(obj) -> None:
    """Structural check against the shipped schema; SchemaError on failure.

    The compiled predicate decides validity.  A rejected document is
    explained by the explainer compiled from the same schema on the first
    rejection; its pointer and message are those jsonschema's best match
    gives.  A document the predicate rejects is never accepted.
    """
    if _is_valid()(obj):
        return
    found = _explain()(obj)
    if found is None:
        raise SchemaError("/", "the document does not match the schema")
    path, message = found
    raise SchemaError("/" + "/".join(map(str, path)), message)


def _value(read, text, pointer, spend):
    """read(text, spend) for read a Field.parse or a BaseRing.parse_element,
    once per distinct read and text of the document (``WorkBudget.read``),
    with pointer in the message of a BadScalarError."""
    try:
        return spend.read(read, text)
    except BadScalarError as exc:
        raise BadScalarError(f"at {pointer}: {exc}") from None


def _ref(table: dict, name, pointer):
    if name not in table:
        raise UnresolvedReferenceError(pointer, name)
    return table[name]


# ------------------------------------------------------------------ fields


def parse_field(spec, spend, pointer="/field") -> Field:
    if isinstance(spec, str):
        if spec == "Q":
            return QQ
        if spec.startswith("F"):
            try:
                return PrimeField(int(spec[1:]))
            except ValueError as exc:
                raise SchemaError(pointer, str(exc)) from None
        raise SchemaError(pointer, f"unknown field {spec!r}")
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


def parse_ring(K: Field, spec, pointer, spend) -> BaseRing:
    R = base_ring(K)
    for i, g in enumerate(spec["gens"]):
        here = f"{pointer}/gens/{i}"
        kind, grade = g["kind"], g.get("grade", 0)
        if kind == FREE:
            R = R.add_free(g["name"], grade=grade)
        elif kind == LAURENT:
            R = R.add_laurent(g["name"], grade=grade)
        else:
            if "value" not in g:
                raise SchemaError(here, "root generator needs a value")
            u = _value(R.parse_element, g["value"], here + "/value", spend)
            R, _, _ = adjoin_root(R, u, g.get("degree", 2), g["name"], grade=grade)
    return R


def ring_spec(R: BaseRing):
    gens = []
    for i, g in enumerate(R.gens):
        entry = {"name": g.name, "kind": g.kind}
        if g.grade:
            entry["grade"] = g.grade
        if g.kind == ROOT:
            pre = R.prefix(i)
            value = pre.element({m[:i]: c for m, c in R.root_values[i].items()})
            entry["degree"] = g.degree
            entry["value"] = pre.format_element(value)
        gens.append(entry)
    return {"gens": gens}


# ----------------------------------------------- Hopf algebras and bundles
#
# An explicit Hopf algebra, an explicit bundle and an explicit family share
# one table format: labels, unit, ``mult`` (rows [a, b, {label: value}]) and
# a tensor table under ``key`` (rows [a, [[left, right, value], ...]]),
# "comult" with both legs in the labels, "coaction" with the right leg in
# the Hopf algebra's.  A Hopf algebra adds its counit and antipode.


def _labels(spec, pointer) -> dict:
    labels = {nm: i for i, nm in enumerate(spec["labels"])}
    if len(labels) != len(spec["labels"]):
        raise SchemaError(pointer + "/labels", "duplicate basis label")
    return labels


def _vec(read, ops, spec, labels, pointer, spend):
    """{index: value} of a vector keyed by label, zeros dropped; ops is
    axioms.field_ops or axioms.ring_ops of what read returns."""
    raw, is_zero = ops.raw, ops.is_zero
    out = {}
    for label, text in spec.items():
        here = f"{pointer}/{label}"
        i = _ref(labels, label, here)
        c = _value(read, text, here, spend)
        if not is_zero(raw(c)):
            out[i] = c
    return out


def _rows(rows, pointer, width):
    """(pointer, row) for each row of a table keyed by its first ``width``
    entries, refusing a row whose key an earlier row already gave."""
    first = {}
    for r, row in enumerate(rows):
        here = f"{pointer}/{r}"
        key = tuple(row[:width])
        if key in first:
            raise SchemaError(here, f"repeats the row at {first[key]}")
        first[key] = here
        yield here, row


def _tables(read, ops, spec, labels, right_labels, key, pointer, spend):
    """The ``mult`` table, the ``key`` table and the unit, read in that
    order; repeated terms of a row of the ``key`` table are summed, a
    repeated row is refused."""
    mult = {}
    for here, (a, b, vec) in _rows(spec["mult"], f"{pointer}/mult", 2):
        row = (_ref(labels, a, here), _ref(labels, b, here))
        entry = _vec(read, ops, vec, labels, here + "/2", spend)
        if entry:
            mult[row] = entry

    def term(at, left, right, text):
        return ((_ref(labels, left, at), _ref(right_labels, right, at)),
                _value(read, text, at, spend))

    table = {}
    for here, (a, terms) in _rows(spec[key], f"{pointer}/{key}", 1):
        i = _ref(labels, a, here)
        entry = total(ops, (term(f"{here}/1/{s}", *t) for s, t in enumerate(terms)))
        if entry:
            table[i] = entry
    return mult, table, _vec(read, ops, spec["unit"], labels, pointer + "/unit", spend)


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
    read, ops = K.parse, field_ops(K)
    mult, comult, unit = _tables(read, ops, spec, labels, labels, "comult", pointer, spend)
    B = Bialgebra(K, tuple(spec["labels"]), mult, unit, comult,
                  _vec(read, ops, spec["counit"], labels, pointer + "/counit", spend))
    if "antipode" not in spec:
        return hopf_from_bialgebra(B)
    d = len(labels)
    S = [[K.zero()] * d for _ in range(d)]
    for here, (a, vec) in _rows(spec["antipode"], f"{pointer}/antipode", 1):
        j = _ref(labels, a, here)
        for i, c in _vec(read, ops, vec, labels, here + "/1", spend).items():
            S[i][j] = c
    return HopfAlgebra(K, B.labels, B.mult, B.unit, B.comult, B.counit,
                       tuple(tuple(row) for row in S))


def _bundle_over(doc: Document, R: BaseRing, spec, pointer, spend) -> ComoduleAlgebra:
    """A bundle over R from an abg, trivial or explicit spec: a bundle of
    the document, or the family of a witness."""
    kind, read = spec["construction"], R.parse_element
    if kind == "abg":
        return abg_bundle(AbgParams(R, *(_value(read, spec[k], f"{pointer}/{k}", spend)
                                         for k in ("alpha", "beta", "gamma"))))
    H = _ref(doc.hopf_algebras, spec["hopf"], pointer + "/hopf")
    if kind == "trivial":
        return trivial_bundle(R, H)
    labels = _labels(spec, pointer)
    hlabels = {nm: i for i, nm in enumerate(H.labels)}
    mult, coaction, unit = _tables(read, ring_ops(R), spec, labels, hlabels, "coaction",
                                   pointer, spend)
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


def _tables_spec(fmt, labels, right_labels, unit, mult, key, table):
    """The explicit form of labels, unit, ``mult`` and the ``key`` table."""
    return {"construction": "explicit", "labels": list(labels),
            "unit": _vec_spec(fmt, labels, unit),
            "mult": [[labels[i], labels[j], _vec_spec(fmt, labels, mult[(i, j)])]
                     for (i, j) in sorted(mult) if mult[(i, j)]],
            key: [[labels[i], [[labels[a], right_labels[b], fmt(c)]
                               for (a, b), c in sorted(table[i].items())]]
                  for i in sorted(table) if table[i]]}


def hopf_spec(H: HopfAlgebra):
    K, labels = H.field, H.labels
    fmt = K.format
    antipode = []
    for j in range(H.dim):
        col = {i: H.antipode[i][j] for i in range(H.dim)
               if not K.is_zero(H.antipode[i][j])}
        if col:
            antipode.append([labels[j], _vec_spec(fmt, labels, col)])
    return {**_tables_spec(fmt, labels, labels, H.unit, H.mult, "comult", H.comult),
            "counit": _vec_spec(fmt, labels, H.counit), "antipode": antipode}


def _bundle_body_spec(A: ComoduleAlgebra, hopf_name: str):
    return {**_tables_spec(A.base.format_element, A.labels, A.hopf.labels, A.unit, A.mult,
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
        doc.rings[name] = parse_ring(K, spec, f"/rings/{name}", spend)
    for name, spec in raw.get("hopf_algebras", {}).items():
        doc.hopf_algebras[name] = parse_hopf(K, spec, f"/hopf_algebras/{name}", spend)
    for name, spec in raw.get("morphisms", {}).items():
        here = f"/morphisms/{name}"
        src = _ref(doc.rings, spec["source"], here + "/source")
        dst = _ref(doc.rings, spec["target"], here + "/target")
        images = {g: _value(dst.parse_element, text, f"{here}/images/{g}", spend)
                  for g, text in spec["images"].items()}
        doc.morphisms[name] = BaseMorphism(src, dst, images)
    for name, spec in raw.get("bundles", {}).items():
        doc.bundles[name] = parse_bundle(doc, spec, f"/bundles/{name}", spend)
    for name, spec in raw.get("cleavings", {}).items():
        here = f"/cleavings/{name}"
        A = _ref(doc.bundles, spec["bundle"], here + "/bundle")
        alabels = {nm: i for i, nm in enumerate(A.labels)}
        hlabels = {nm: i for i, nm in enumerate(A.hopf.labels)}
        read, ops = A.base.parse_element, ring_ops(A.base)
        values = [dict() for _ in range(A.hopf.dim)]
        for at, (hl, vec) in _rows(spec["values"], f"{here}/values", 1):
            values[_ref(hlabels, hl, at)] = _vec(read, ops, vec, alabels, at + "/1", spend)
        doc.cleavings[name] = HModuleMap(A, tuple(values))
    for name, spec in raw.get("witnesses", {}).items():
        doc.witnesses[name] = _parse_witness(doc, spec, f"/witnesses/{name}", spend)
    return doc


def _parse_witness(doc: Document, spec, pointer, spend) -> HomotopyWitness:
    source = _ref(doc.rings, spec["step"]["source"], pointer + "/step/source")
    cur, recipe = source, []
    for i, adj in enumerate(spec["step"]["adjunctions"]):
        here = f"{pointer}/step/adjunctions/{i}"
        u = _value(cur.parse_element, adj["value"], here + "/value", spend)
        recipe.append((ROOT_ADJUNCTION, u, adj["degree"], adj["name"]))
        cur, _, _ = adjoin_root(cur, u, adj["degree"], adj["name"])
    step = EtaleStep(inclusion_morphism(source, cur), tuple(recipe))
    interval = extend_with_t(cur)
    family = _bundle_over(doc, interval.ring, spec["family"], pointer + "/family", spend)
    at_zero = _ref(doc.bundles, spec["at_zero"], pointer + "/at_zero")
    at_one = _ref(doc.bundles, spec["at_one"], pointer + "/at_one")
    isos = []
    for key in ("iso_zero", "iso_one"):
        M = [[_value(cur.parse_element, e, f"{pointer}/{key}/{r}/{c}", spend)
              for c, e in enumerate(row)]
             for r, row in enumerate(spec[key])]
        isos.append(_frozen_matrix(M))
    return HomotopyWitness(step, interval, family, at_zero, at_one, *isos)


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
    ring_objs = dict(doc.rings)
    hopf_objs = dict(doc.hopf_algebras)
    bundle_objs = dict(doc.bundles)
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
    morphisms = {}
    for name, f in doc.morphisms.items():
        morphisms[name] = {
            "source": _named(ring_objs, f.source, "ring"),
            "target": _named(ring_objs, f.target, "ring"),
            "images": {g.name: f.target.format_element(img)
                       for g, img in zip(f.source.gens, f.images)}}
    cleavings = {}
    for name, cm in doc.cleavings.items():
        A = cm.algebra
        cleavings[name] = {"bundle": bundle_name(A), "values": [
            [A.hopf.labels[k], _vec_spec(A.base.format_element, A.labels, v)]
            for k, v in enumerate(cm.values) if v]}
    witnesses = {}
    for name, w in doc.witnesses.items():
        sname = _named(ring_objs, w.step.source, "ring")
        adjs = []
        cur = w.step.source
        for _, u, n, nm in w.step.recipe:
            adjs.append({"name": nm, "degree": n, "value": cur.format_element(u)})
            cur, _, _ = adjoin_root(cur, u, n, nm)
        family = _bundle_body_spec(w.family, _named(hopf_objs, w.family.hopf, "hopf"))
        fmt = w.step.target.format_element
        witnesses[name] = {
            "step": {"source": sname, "adjunctions": adjs},
            "family": family,
            "at_zero": bundle_name(w.at_zero),
            "at_one": bundle_name(w.at_one),
            "iso_zero": [[fmt(e) for e in row] for row in w.iso_zero],
            "iso_one": [[fmt(e) for e in row] for row in w.iso_one]}
    out = {"field": field_spec(doc.field)}
    if ring_objs:
        out["rings"] = {n: ring_spec(r) for n, r in ring_objs.items()}
    if hopf_objs:
        out["hopf_algebras"] = {n: hopf_spec(h) for n, h in hopf_objs.items()}
    if morphisms:
        out["morphisms"] = morphisms
    if bundle_specs:
        out["bundles"] = bundle_specs
    if cleavings:
        out["cleavings"] = cleavings
    if witnesses:
        out["witnesses"] = witnesses
    return out


def dump_document(doc: Document) -> str:
    return json.dumps(document_of(doc), indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())
