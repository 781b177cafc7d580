"""Every function the benchmark's trace launcher wraps exists in hopfgal.

``perfbench/traced.py`` replaces each entry of its ``TIMED`` and ``COUNTED``
tables through ``owner.__dict__[attr]``, so a renamed or deleted function
breaks ``--trace 1`` with a KeyError.  The tables are read from the file's
syntax tree; the launcher is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _tables():
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED")}


def _resolves(module, path):
    owner = importlib.import_module(f"hopfgal.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return callable(getattr(owner, "__dict__", {}).get(attr))


def test_every_traced_attribute_resolves():
    tables = _tables()
    assert set(tables) == {"TIMED", "COUNTED"}
    entries = [entry for table in tables.values() for entry in table]
    assert len(entries) > 20
    assert [f"hopfgal.{m}.{p}" for m, p, _ in entries if not _resolves(m, p)] == []
