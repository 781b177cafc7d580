"""The linear algebra stays in one layer: ``linalg`` alone defines the
elimination kernel and Berkowitz, ``rings`` does not import it at module
level, and the kernel takes its coefficients through ``Ops`` alone."""

import ast
import inspect
from pathlib import Path

from hopfgal import linalg

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
