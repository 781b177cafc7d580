"""The linear algebra stays in one layer: ``linalg`` alone defines the
elimination kernel, Berkowitz and the regular representation, ``rings``
does not import it at module level, and the kernel takes its
coefficients through ``Ops`` alone; an extension field's inverse is one
of its solves, and every power takes ``fields.power``, the one
square-and-multiply loop.
Equality of records stays in one place: ``Record``'s, field by field.
Only ``fields`` strips a scalar's field annotation.
Only ``axioms`` and ``hopf`` read a comultiplication table row by row;
every other Sweedler sum goes through ``axioms.convolution``.
Only ``axioms`` puts a record's table in normal form.
Only ``rings`` reads a ring's ``root_values``; every other reader of a root
adjunction takes ``BaseRing.root_value``.
The document layer reads and writes a tower of generators in one place
each, and reads every table of rows through ``_rows``.
A witness's shape is checked in its records alone: outside ``rings`` only
``EtaleStep.interval`` builds an interval ring, and the document layer
takes nothing from ``homotopy`` but the two records.
Only ``axioms`` scans an algebra's unit and associativity and builds its
word tree; only ``axioms`` and ``hopf`` read that tree, and a record's
``verdict`` alone builds a ``Verdict``.
The command layer says each rule once: only ``_each`` and
``_cmd_pushforward`` load a document, only ``main`` writes a payload's
"command", and only ``report`` sets a report's title.
A Hopf algebra or bundle record builds its ops once, in its constructor.
No module imports a name it does not use.
Nothing in ``src/`` is defined for the tests alone: every function, method
and class is named somewhere in ``src/`` or exported, or is allowed by
name with a reason."""

import ast
import importlib
import inspect
from pathlib import Path

import hopfgal
from hopfgal import linalg
from hopfgal.record import Record

SRC = Path(linalg.__file__).parent
KERNEL = {"_eliminate", "_charpoly", "_berkowitz", "odd_permutation", "regular"}


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_only_linalg_defines_the_kernel() -> None:
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in KERNEL:
                defined.setdefault(node.name, set()).add(path.name)
    assert defined == {name: {"linalg.py"} for name in KERNEL}


def test_rings_does_not_import_linalg_at_module_level() -> None:
    imported = []
    for node in _tree("rings.py").body:
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert not any(name.split(".")[-1] == "linalg" for name in imported)


def test_the_kernel_takes_no_ring() -> None:
    for f in (linalg._det, linalg._solve):
        assert "ring" not in inspect.signature(f).parameters


def test_only_fields_strips_a_scalar_annotation() -> None:
    """A coefficient loses its " mod p" or " in K" in
    ``fields.format_polynomial`` alone: no other module calls anything on
    those strings."""
    stripping = {path.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path.name))
                 if isinstance(node, ast.Call) and any(
                     isinstance(a, ast.Constant) and a.value in (" mod ", " in ") for a in node.args)}
    assert stripping == {"fields.py"}


def test_only_axioms_and_hopf_read_a_comult_row() -> None:
    """No other module calls ``.get`` on a table named ``comult`` (or
    ``hcomult``): a cleaving's sums are convolutions."""
    reading = {path.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path.name))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "get" and (
                   getattr(node.func.value, "id", None) or getattr(node.func.value, "attr", "")
               ).endswith("comult")}
    assert reading <= {"axioms.py", "hopf.py"}, sorted(reading)


def _tests_for_base_element(node) -> bool:
    """isinstance(x, BaseElement), or x.__class__ is (not) BaseElement."""
    if isinstance(node, ast.Call):
        return (getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2
                and getattr(node.args[1], "id", None) == "BaseElement")
    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
        getattr(c, "id", None) == "BaseElement" for c in node.comparators)


def test_only_axioms_puts_a_table_in_normal_form() -> None:
    """``axioms.normal`` alone words the range error of a table and reads a
    table entry that may be a BaseElement as its coefficient dict (a
    function that both tests a value for BaseElement and reads its
    ``.coeffs``; ``rings``, which defines BaseElement, compares elements
    so), so no record grows its own loop over a table again."""
    wording, reading = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and " index out of range" in node.value):
                wording.add(path.name)
            if isinstance(node, (ast.FunctionDef, ast.Lambda)) and path.name != "rings.py":
                body = list(ast.walk(node))
                if any(map(_tests_for_base_element, body)) and any(
                        isinstance(n, ast.Attribute) and n.attr == "coeffs" for n in body):
                    reading.add(path.name)
    assert wording == reading == {"axioms.py"}, (sorted(wording), sorted(reading))


def test_one_square_and_multiply_and_no_solve_in_fields() -> None:
    """Only ``fields.power`` halves an exponent (``>>=``), so every power
    takes the one square-and-multiply loop; and ``fields`` names no
    ``field_solve``: an extension field inverts in ``linalg.regular``."""
    shifting = {f"{path.stem}.{fn.name}" for path in SRC.glob("*.py")
                for fn in ast.walk(_tree(path.name)) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)}
    assert shifting == {"fields.power"}, sorted(shifting)
    assert not [node for node in ast.walk(_tree("fields.py"))
                if "field_solve" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))]


def test_only_rings_reads_root_values() -> None:
    """A step's recipe, a ring's document entry and its repr read each root
    adjunction through ``BaseRing.root_value``, not off the padded table."""
    reading = {path.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path.name))
               if isinstance(node, ast.Attribute) and node.attr == "root_values"}
    assert reading == {"rings.py"}, sorted(reading)


def test_the_document_layer_reads_and_writes_each_shape_once() -> None:
    """A ring's gens and a step's adjunctions share one reader, the one
    call of ``adjoin_root``, and one writer, the one read of
    ``root_value``; no step's ``recipe`` is read.  Tables of rows are read
    through ``_rows`` by the structure tables' reader and the one reader of
    [key, vector] rows (antipodes and cleaving values) alone."""
    callers = {}
    for fn in ast.walk(_tree("document.py")):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                name = (getattr(node.func, "id", None) if isinstance(node, ast.Call) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                callers.setdefault(name, []).append(fn.name)
    assert callers["adjoin_root"] == ["_tower"]
    assert callers["root_value"] == ["_tower_spec"]
    assert "recipe" not in callers
    assert callers["UnresolvedReferenceError"] == ["_ref"]  # a morphism's images too
    assert sorted(callers["_rows"]) == ["_tables", "_tables", "_vec_table"]


def test_a_witness_is_well_formed_in_its_records() -> None:
    """A witness reads its interval off its step, the one caller of
    ``extend_with_t`` outside ``rings``; ``document`` imports only
    ``EtaleStep`` and ``HomotopyWitness`` from ``homotopy``, so it checks
    no witness again."""
    building = {(path.name, fn.name) for path in sorted(SRC.glob("*.py")) if path.name != "rings.py"
                for fn in ast.walk(_tree(path.name)) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "extend_with_t"}
    assert building == {("homotopy.py", "interval")}, sorted(building)  # EtaleStep.interval
    taken = [alias.name for node in ast.walk(_tree("document.py"))
             if isinstance(node, ast.ImportFrom) and node.module == "homotopy"
             for alias in node.names]
    assert taken == ["EtaleStep", "HomotopyWitness"]


def test_only_axioms_gives_an_algebras_verdict() -> None:
    """``unit``, ``word_tree`` and ``associativity`` are called in ``axioms``
    alone, through its one verdict per algebra.  A field of a word tree
    (``.gens``, ``.root`` or ``.steps`` off a name ``tree``) is read only
    there and in ``hopf``, whose antipode walks the tree; ``BaseRing.gens``,
    read off a ring, is another attribute."""
    calling, reading = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) in {"unit", "word_tree", "associativity"}:
                calling.add(path.name)
            if (isinstance(node, ast.Attribute) and node.attr in {"gens", "root", "steps"}
                    and getattr(node.value, "id", None) == "tree"):
                reading.add(path.name)
    assert calling == {"axioms.py"}, sorted(calling)
    assert reading == {"axioms.py", "hopf.py"}, sorted(reading)


def test_a_record_holds_its_verdict() -> None:
    """``axioms.Verdict`` is built in the ``verdict`` properties of
    ``Bialgebra`` and ``ComoduleAlgebra`` alone, so every reader takes the
    record's, and no module names a per-call ``unital_associative``."""
    def builds(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Verdict"
    building = [(path.name, fn.name) for path in sorted(SRC.glob("*.py"))
                for fn in ast.walk(_tree(path.name)) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if builds(node)]
    assert building == [("comod.py", "verdict"), ("hopf.py", "verdict")], building
    # and none outside a function
    assert sum(map(builds, (node for path in SRC.glob("*.py")
                            for node in ast.walk(_tree(path.name))))) == 2
    mentioning = {path.name for path in SRC.glob("*.py")
                  if "unital_associative" in path.read_text(encoding="utf-8")}
    assert not mentioning, sorted(mentioning)


def _in_functions(name):
    """(top-level function of the module that holds it, or "", node) for
    every node of the module ``name``."""
    for top in _tree(name).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
        for node in ast.walk(top):
            yield owner, node


def test_the_command_layer_says_each_rule_once() -> None:
    """One handler reads the named objects of every command that takes
    names; ``main`` writes the "command" key of every payload from argv,
    and ``_read_plain``'s dict is argparse's own ``command`` field; a
    report is titled by ``Report.nest`` where it is nested."""
    loading, naming = set(), set()
    for owner, node in _in_functions("cli.py"):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load":
            loading.add(owner)
        if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "command" for k in node.keys):
            naming.add(owner)
    assert loading == {"_each", "_cmd_pushforward"}, sorted(loading)
    assert naming == {"main", "_read_plain"}, sorted(naming)
    titling = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
                       if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(isinstance(t, ast.Attribute) and t.attr == "title" for t in targets):
                titling.add(path.name)
    assert titling == {"report.py"}, sorted(titling)


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_a_record_builds_its_ops_once() -> None:
    """In ``hopf`` and ``comod`` only a record's ``__post_init__`` calls
    ``field_ops`` or ``ring_ops``; every check and solve reads ``.ops``."""
    calls = {(path, fn.name) for path in ("hopf.py", "comod.py")
             for fn in ast.walk(_tree(path)) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("field_ops", "ring_ops")}
    assert calls == {("hopf.py", "__post_init__"), ("comod.py", "__post_init__")}, sorted(calls)


def test_every_imported_name_is_used() -> None:
    """``__init__`` is left out: it imports names to export them."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in _bound_names(node) if name not in used]
    assert unused == []


def test_no_record_in_src_defines_eq() -> None:
    # records keep their tables in normal form, so none needs its own equality
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"hopfgal.{path.stem}")
    todo, records = list(Record.__subclasses__()), {}
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("hopfgal."):
            records[cls.__qualname__] = "__eq__" in cls.__dict__
    assert {"Bialgebra", "HopfAlgebra", "ComoduleAlgebra", "HModuleMap", "Cocycle"} <= set(records)
    assert not any(records.values()), [name for name, own in records.items() if own]


# Defined in src/ and named nowhere else in it, each kept on purpose.
UNCALLED = {
    "berkowitz_det": "perfbench/traced.py traces it",
    "ring_solve": "perfbench/traced.py traces it; the solves in src/ take their record's Ops",
    "BaseRing.monomial": "public ring API; the tests build elements with it",
    "polynomial_ring": "public constructor; perfbench/workloads.py and the tests use it",
    "WitnessChain.reverse": "public chain API; test_homotopy and test_cli compose with it",
    "WitnessChain.then": "public chain API; test_homotopy composes with it",
}


def test_src_defines_nothing_that_only_tests_call() -> None:
    """A function or class counts as called when its name appears in src/
    as a name or an attribute, and a method when its name is read as an
    attribute, so a local variable or a parameter of the same name calls no
    method; in each case outside every definition of that name, so a method
    that names itself, or an override of itself, in its own body is not
    called by that.  Dunder methods are called by the language, and
    top-level names in ``hopfgal.__all__`` by users."""
    defined, named, read = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        todo = [(tree, "", frozenset())]
        while todo:
            node, owner, inside = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{owner}.{child.name}" if owner else child.name
                    defined[qualname] = (child.name, node is tree, isinstance(node, ast.ClassDef))
                    todo.append((child, qualname, inside | {child.name}))
                    continue
                if isinstance(child, ast.Name) and child.id not in inside:
                    named.add(child.id)
                if isinstance(child, ast.Attribute) and child.attr not in inside:
                    read.add(child.attr)
                todo.append((child, owner, inside))
    uncalled = {qualname for qualname, (name, top, method) in defined.items()
                if name not in (read if method else named | read)
                and not (name.startswith("__") and name.endswith("__"))
                and not (top and name in hopfgal.__all__)}
    assert uncalled == set(UNCALLED), (
        f"called only from outside src/: {sorted(uncalled - set(UNCALLED))}; "
        f"no longer uncalled: {sorted(set(UNCALLED) - uncalled)}")
