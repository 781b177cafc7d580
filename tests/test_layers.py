"""The linear algebra stays in one layer: ``linalg`` alone defines the
elimination kernel and Berkowitz, ``rings`` does not import it at module
level, and the kernel takes its coefficients through ``Ops`` alone.
Equality of records stays in one place: ``Record``'s, field by field."""

import ast
import importlib
import inspect
from pathlib import Path

from hopfgal import linalg
from hopfgal.record import Record

SRC = Path(linalg.__file__).parent
KERNEL = {"_eliminate", "_charpoly", "_berkowitz", "odd_permutation"}


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
