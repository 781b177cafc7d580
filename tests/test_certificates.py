"""Verdicts that `python -O` cannot switch off.

`-O` strips `assert` statements, so no check in the library may be one: a
static scan of every module rejects them, and the two verifiers must still
reject corrupted structure constants (exit 1) in an optimized interpreter,
certify a Taft algebra built from its shorthand (antipode and axioms on
generators), decide Kummer bundles' structure maps with the same output
as without `-O`, and word a schema rejection with the same bytes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgal
from hopfgal.bundles import AbgParams, abg_bundle, kummer_bundle
from hopfgal.document import Document, dump_document
from hopfgal.fields import QQ, PrimeField
from hopfgal.hopf import taft
from hopfgal.rings import base_ring

PACKAGE = Path(hopfgal.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _run_optimized(*args, flags=("-O",)):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, *flags, "-m", "hopfgal.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _corrupt_product(raw: dict, left: str, right: str, value: dict) -> None:
    for row in raw["mult"]:
        if row[0] == left and row[1] == right:
            row[2] = value


def test_corrupted_structure_constants_rejected_under_optimization(tmp_path):
    F7 = PrimeField(7)
    raw = json.loads(dump_document(Document(F7, hopf_algebras={"T": taft(3, 2, F7)})))
    _corrupt_product(raw["hopf_algebras"]["T"], "Y", "X", {"XY": "3 mod 7"})  # q = 2
    path = tmp_path / "taft.json"
    path.write_text(json.dumps(raw))
    out = _run_optimized("verify-hopf", str(path), "T")
    assert out.returncode == 1, out.stderr
    assert "[FAIL] associativity" in out.stdout

    C = base_ring(QQ)
    raw = json.loads(dump_document(Document(
        QQ, rings={"C": C}, bundles={"A": abg_bundle(AbgParams(C, 3, 5, 7))})))
    _corrupt_product(raw["bundles"]["A"], "x", "x", {"1": "4"})  # alpha = 3
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    out = _run_optimized("verify-bundle", str(path), "A")
    assert out.returncode == 1, out.stderr
    assert "[FAIL] associativity" in out.stdout


def test_taft_shorthand_certified_under_optimization(tmp_path):
    path = tmp_path / "taft.json"
    path.write_text(json.dumps({"field": "F61", "hopf_algebras": {
        "T": {"construction": "taft", "order": 5, "q": "9"}}}))  # 9 has order 5 mod 61
    out = _run_optimized("verify-hopf", str(path), "T", "--json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True
    assert out.stdout == _run_optimized("verify-hopf", str(path), "T", "--json", flags=()).stdout


def test_kummer_galois_verdicts_same_under_optimization(tmp_path):
    """The structure map read off the tables, unit pivots and the Berkowitz
    blocks give the same `galois` output with and without `-O`: a Galois
    Kummer bundle over F241[z^+-1], and the same tables over F241[z]."""
    K = PrimeField(241)
    q = next(K.from_int(a) for a in range(2, 241) if K.has_order(K.from_int(a), 8))
    raw = json.loads(dump_document(Document(K, bundles={"K8": kummer_bundle(8, q, K)})))
    raw["rings"]["P"] = {"gens": [{"kind": "free", "name": "z"}]}
    raw["bundles"]["B"] = dict(raw["bundles"]["K8"], ring="P")
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(raw))
    out = _run_optimized("galois", str(path), "K8", "B", "--json")
    assert out.returncode == 1, out.stderr
    assert [r["galois"] for r in json.loads(out.stdout)["results"]] == [True, False]
    assert out.stdout == _run_optimized("galois", str(path), "K8", "B", "--json", flags=()).stdout


def test_schema_rejection_same_under_optimization():
    """The benchmark's neg-schema document is explained with the same stderr
    bytes with and without `-O`: the explainer relies on no assert."""
    path = PACKAGE.parent.parent / "perfbench" / "data" / "seed0" / "cli-docs" / "schema.json"
    if not path.is_file():
        pytest.skip("benchmark documents not present")
    out = _run_optimized("verify-bundle", str(path), "A", "--json")
    assert out.returncode == 2
    assert out.stderr.startswith("error: /bundles/A: ")
    assert out.stderr == _run_optimized("verify-bundle", str(path), "A", "--json", flags=()).stderr
