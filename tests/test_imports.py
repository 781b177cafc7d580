"""What a cold hopfgal process imports.

A command over F_p loads every hopfgal module and, of the standard
library, only what it uses: no argparse (help and errors only), no
fractions (Q only), no ast, typing or importlib.resources, and no
jsonschema, not even to word a rejected document.  Each child runs under
``python -S``, so no site ``.pth`` file imports anything first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal.cli import main
from hopfgal.rings import syntax_tree

_PACKAGE_DIR = Path(hopfgal.__file__).resolve().parent
_SRC = str(_PACKAGE_DIR.parent)
_HOPFGAL = {"hopfgal"} | {f"hopfgal.{p.stem}" for p in _PACKAGE_DIR.glob("*.py")
                          if p.stem != "__init__"}
_UNUSED = ("argparse", "gettext", "fractions", "decimal", "numbers", "ast", "typing",
           "importlib.resources", "pathlib", "zipfile", "tempfile", "jsonschema")

# runs main(argv) and writes the loaded module names as stderr's last line
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from hopfgal.cli import main
code = main(sys.argv[2:])
print(" ".join(sorted(m for m, v in sys.modules.items() if v is not None)), file=sys.stderr)
sys.exit(code)
"""

# the same child, where importing jsonschema raises ImportError
_CHILD_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None
""" + _CHILD


def _run(argv, child=_CHILD):
    """(exit code, loaded modules, stderr before the module list)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", child, _SRC, *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    *err, modules = out.stderr.splitlines(keepends=True)
    return out.returncode, set(modules.split()), "".join(err)


def _loaded(argv):
    code, modules, _ = _run(argv)
    return code, modules


def _taft(tmp_path, field, q):
    path = tmp_path / f"taft_{field}.json"
    path.write_text(json.dumps({"field": field, "hopf_algebras": {
        "T": {"construction": "taft", "order": 2, "q": q}}}))
    return str(path)


def test_a_prime_field_command_loads_only_what_it_uses(tmp_path):
    code, modules = _loaded(["verify-hopf", _taft(tmp_path, "F7", "6"), "T", "--json"])
    assert code == 0
    assert [m for m in _UNUSED if m in modules] == []
    assert {m for m in modules if m.split(".")[0] == "hopfgal"} == _HOPFGAL
    assert len(_HOPFGAL) == 16


def test_a_rejected_document_needs_no_jsonschema(capsys):
    """The schema rejection of the benchmark's neg-schema document, in a
    child that cannot import jsonschema: exit 2 and the stderr bytes of the
    same command run in this process."""
    path = _PACKAGE_DIR.parent.parent / "perfbench" / "data" / "seed0" / "cli-docs" / "schema.json"
    if not path.is_file():
        pytest.skip("benchmark documents not present")
    argv = ["verify-bundle", str(path), "A", "--json"]
    code, modules, err = _run(argv, _CHILD_WITHOUT_JSONSCHEMA)
    assert main(argv) == code == 2
    assert err == capsys.readouterr().err
    assert err.startswith("error: /bundles/A: ")
    assert [m for m in _UNUSED if m in modules] == []


def test_q_loads_fractions_and_help_loads_argparse(tmp_path):
    code, modules = _loaded(["verify-hopf", _taft(tmp_path, "Q", "-1"), "T", "--json"])
    assert code == 0 and "fractions" in modules and "argparse" not in modules
    code, modules = _loaded(["verify-hopf", "-h"])
    assert code == 0 and "argparse" in modules and "fractions" not in modules


# ------------------------------------------- _ast parse trees are ast.parse's

def _tree_or_error(parse, text):
    try:
        return ast.dump(parse(text))
    except (SyntaxError, ValueError) as exc:
        return type(exc), getattr(exc, "msg", str(exc))


_RING_STRINGS = [
    "1", "-1", "3/4", "u", "u+1", "2*u**2 - 1", "(1+u+v+w)**8", "u**-1", "-(u*v)**3",
    "2 mod 7", "x y", "1+", "(", ")", "", "   ", "u..", "lambda: 1", "u[0]", "f(u)",
    "a if b else c", "1_000", "0x1f", "1e3", "1.5", "'s'", "[1]", "u\x00", "\t1",
    "1 +\n 2", "u**(1/2)", "--u", "u = 1", "yield u", "await u", "u; v", "é", "1 2",
]


@pytest.mark.parametrize("text", _RING_STRINGS)
def test_syntax_tree_is_ast_parse(text):
    assert (_tree_or_error(syntax_tree, text)
            == _tree_or_error(lambda t: ast.parse(t, mode="eval"), text))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="uvw0123456789+-*/() .^_\n", max_size=16))
def test_syntax_tree_is_ast_parse_on_drawn_strings(text):
    text = text.replace("^", "**")
    assert (_tree_or_error(syntax_tree, text)
            == _tree_or_error(lambda t: ast.parse(t, mode="eval"), text))
