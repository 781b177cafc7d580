"""Command line behavior: exit taxonomy, verdict text, JSON determinism.

Everything runs in-process through main(argv) so the exit codes are the
function's return values and output is captured with capsys, except the
process exit path, which is compared against main() in a child process.
"""

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgal
from hopfgal.bundles import AbgParams, abg_bundle, abg_cleaving, kummer_bundle
from hopfgal.cli import _build_parser, main, run
from hopfgal.comod import HModuleMap, trivial_bundle
from hopfgal.document import Document, dump_document
from hopfgal.fields import QQ
from hopfgal.homotopy import cleft_trivialization_witness
from hopfgal.hopf import cyclic_group_algebra, dual_hopf, sweedler_h4
from hopfgal.rings import base_ring, inclusion_morphism


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    C = base_ring(QQ)
    P = C.add_free("u")
    A = abg_bundle(AbgParams(C, 3, 5, 7))
    doc = Document(
        QQ,
        rings={"C": C, "P": P},
        hopf_algebras={"H4": sweedler_h4(QQ)},
        morphisms={"f": inclusion_morphism(C, P)},
        bundles={"A": A},
        cleavings={"g": abg_cleaving(A).gamma,
                   "dead": HModuleMap(A, ({}, {}, {}, {}))},
        witnesses={"w43": cleft_trivialization_witness(
            AbgParams(C, 3, 5, 7)).links[0][0]},
    )
    path = tmp_path_factory.mktemp("docs") / "good.json"
    path.write_text(dump_document(doc))
    return str(path)


def rewrite(doc_path, tmp_path, mutate, name="bad.json"):
    data = json.loads(open(doc_path).read())
    mutate(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- criterion

def test_criterion_trivial_example(capsys):
    assert main(["h4", "criterion", "--alpha", "4", "--beta", "1",
                 "--gamma", "4", "--field", "Q"]) == 0
    assert capsys.readouterr().out.strip() == "trivial, s=2, t=1"


def test_criterion_nontrivial_example(capsys):
    assert main(["h4", "criterion", "--alpha", "1", "--beta", "0",
                 "--gamma", "5", "--field", "Q"]) == 1
    assert capsys.readouterr().out.strip() == "not trivial"


def test_criterion_error_taxonomy(capsys):
    # malformed input: exit 2
    assert main(["h4", "criterion", "--alpha", "x", "--beta", "0",
                 "--gamma", "0"]) == 2
    assert main(["h4", "criterion", "--alpha", "1", "--beta", "0",
                 "--gamma", "0", "--field", "F9"]) == 2
    # mathematically rejected: exit 1
    assert main(["h4", "criterion", "--alpha", "0", "--beta", "0",
                 "--gamma", "0"]) == 1
    assert main(["h4", "criterion", "--alpha", "1", "--beta", "1",
                 "--gamma", "1", "--field", "F2"]) == 1
    err = capsys.readouterr().err
    assert "rejected:" in err and "error:" in err


def test_criterion_json_fields(capsys):
    assert main(["h4", "criterion", "--alpha", "4", "--beta", "1",
                 "--gamma", "4", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["trivial"] is True and got["s"] == "2" and got["t"] == "1"


# ---------------------------------------------------------------- documents

def test_verify_hopf_ok(doc_path, capsys):
    assert main(["verify-hopf", doc_path, "H4"]) == 0
    assert "[ok] hopf axioms" in capsys.readouterr().out


def test_verify_bundle_and_galois(doc_path, capsys):
    assert main(["verify-bundle", doc_path, "A"]) == 0
    capsys.readouterr()
    assert main(["galois", doc_path, "A", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    result = got["results"][0]
    assert result["galois"] is True and result["det"] == "81"


def test_cleft_check_and_invert(doc_path, capsys):
    assert main(["cleft", "check", doc_path, "g"]) == 0
    capsys.readouterr()
    assert main(["cleft", "invert", doc_path, "g", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    table = {row[0]: row[1] for row in got["results"][0]["inverse"]}
    assert table["X"] == {"x": "1/3"}


def test_noninvertible_cleaving_exits_1(doc_path, capsys):
    assert main(["cleft", "check", doc_path, "dead"]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_witness_verify_ok(doc_path, capsys):
    assert main(["witness", "verify", doc_path]) == 0
    assert "[ok] homotopy witness" in capsys.readouterr().out


def test_pushforward(doc_path, capsys):
    assert main(["pushforward", doc_path, "A", "f", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] is True
    assert "A_pushed" in got["document"]["bundles"]


# ---------------------------------------------------------- negative controls

def test_altered_antipode_exits_1(doc_path, tmp_path, capsys):
    def mutate(data):
        rows = dict(map(tuple, data["hopf_algebras"]["H4"]["antipode"]))
        rows["Y"] = {"XY": "-1"}
        data["hopf_algebras"]["H4"]["antipode"] = [
            [k, rows[k]] for k in data["hopf_algebras"]["H4"]["labels"]]
    bad = rewrite(doc_path, tmp_path, mutate)
    assert main(["verify-hopf", bad, "H4"]) == 1
    assert "[FAIL] antipode" in capsys.readouterr().out


def test_corrupted_witness_iso_exits_1(doc_path, tmp_path, capsys):
    def mutate(data):
        w = data["witnesses"]["w43"]
        w["iso_one"][1][1] = "2*s"
    bad = rewrite(doc_path, tmp_path, mutate)
    assert main(["witness", "verify", bad]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_nonassociative_product_exits_1(doc_path, tmp_path, capsys):
    def mutate(data):
        spec = data["bundles"]["A"]
        rows = {tuple(r[:2]): r[2] for r in spec["mult"]}
        rows[("x", "y")] = {"1": "1", "xy": "1"}
        spec["mult"] = [[a, b, rows[(a, b)]] for a, b in rows]
    bad = rewrite(doc_path, tmp_path, mutate)
    assert main(["verify-bundle", bad, "A"]) == 1
    assert "[FAIL] associativity" in capsys.readouterr().out


# -------------------------------------------------------------- input errors

def test_missing_name_and_file(doc_path, capsys):
    assert main(["galois", doc_path, "nosuch"]) == 2
    assert main(["galois", str(doc_path) + ".missing", "A"]) == 2
    assert main(["witness", "verify", doc_path, "nope"]) == 2


def test_not_json_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ nope")
    assert main(["verify-hopf", str(path), "H"]) == 2
    assert "error:" in capsys.readouterr().err


def test_memory_error_is_one_error_line(doc_path, monkeypatch, capsys):
    """A command that runs out of memory exits 2 with one line, no traceback."""
    def exhausted(A):
        raise MemoryError
    monkeypatch.setattr("hopfgal.cli.verify_bundle", exhausted)
    assert main(["verify-bundle", doc_path, "A"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["h4", "criterion", "--alpha", "1"]) == 2
    capsys.readouterr()


def test_bad_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "field.json"
    for field, pointer, message in (
            ("F4", "/field", "4 is not prime"),
            ({"base": "Q", "var": "u", "modulus": ["1", "0", "2"]}, "/field/modulus",
             "modulus must be monic")):
        path.write_text(json.dumps({"field": field}))
        assert main(["verify-hopf", str(path), "H"]) == 2
        assert capsys.readouterr().err == f"error: {pointer}: {message}\n"


def test_laurent_above_root_is_rejected(tmp_path, capsys):
    path = tmp_path / "tower.json"
    gens = [{"name": "r", "kind": "root", "degree": 2, "value": "1"},
            {"name": "z", "kind": "laurent"}]
    path.write_text(json.dumps({"field": "Q", "rings": {"R": {"gens": gens}},
                                "hopf_algebras": {"S": {"construction": "sweedler"}}}))
    assert main(["verify-hopf", str(path), "S"]) == 1
    assert capsys.readouterr().err == \
        "rejected: laurent generator z comes after a root adjunction\n"
    gens.reverse()
    gens[1]["value"] = "z"
    path.write_text(json.dumps({"field": "Q", "rings": {"R": {"gens": gens}},
                                "hopf_algebras": {"S": {"construction": "sweedler"}}}))
    assert main(["verify-hopf", str(path), "S"]) == 0


@pytest.mark.parametrize("gen", [
    {"name": "z", "kind": "laurent", "grade": 1},
    {"name": "r", "kind": "root", "degree": 2, "value": "1", "grade": 1},
])
def test_graded_laurent_or_root_generator_is_rejected(tmp_path, capsys, gen):
    path = tmp_path / "graded.json"
    path.write_text(json.dumps({"field": "Q", "rings": {"R": {"gens": [gen]}},
                                "hopf_algebras": {"S": {"construction": "sweedler"}}}))
    assert main(["verify-hopf", str(path), "S"]) == 1
    assert capsys.readouterr().err == (
        f"rejected: generator {gen['name']} is {gen['kind']}; "
        "only free generators may have positive grade\n")
    ungraded = {k: v for k, v in gen.items() if k != "grade"}
    path.write_text(json.dumps({"field": "Q", "rings": {"R": {"gens": [ungraded]}},
                                "hopf_algebras": {"S": {"construction": "sweedler"}}}))
    assert main(["verify-hopf", str(path), "S"]) == 0


def test_no_witnesses_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"field": "Q"}\n')
    assert main(["witness", "verify", str(path)]) == 2


# ---------------------------------------------------------------- demos

def test_demo_thm43(capsys):
    assert main(["demo", "thm43", "--alpha", "3", "--beta", "5",
                 "--gamma", "7", "--field", "Q"]) == 0
    out = capsys.readouterr().out
    assert "link 0" in out and "[ok] homotopy equivalence chain" in out


def test_demo_prop35(capsys):
    assert main(["demo", "prop35"]) == 0
    assert "[ok] homotopy witness" in capsys.readouterr().out


def test_demo_census_and_json_determinism(capsys):
    assert main(["demo", "census-f3"]) == 0
    first = capsys.readouterr().out
    assert "18 triples" in first or "3 of 18" in first
    assert main(["demo", "census-f3", "--json"]) == 0
    one = capsys.readouterr().out
    assert main(["demo", "census-f3", "--json"]) == 0
    two = capsys.readouterr().out
    assert one == two
    assert json.loads(one)["trivial_count"] == 3


# ------------------------------------------------------------- many names

def test_multi_name_reports_in_input_order(tmp_path, capsys):
    C = base_ring(QQ)
    doc = Document(
        QQ,
        hopf_algebras={"H4": sweedler_h4(QQ), "C3": cyclic_group_algebra(3, QQ),
                       "D2": dual_hopf(cyclic_group_algebra(2, QQ))},
        bundles={"A": abg_bundle(AbgParams(C, 3, 5, 7)),
                 "T": trivial_bundle(C, cyclic_group_algebra(3, QQ)),
                 "K": kummer_bundle(2, -1, QQ)})
    path = tmp_path / "many.json"
    path.write_text(dump_document(doc))
    for command, names in (("verify-hopf", ["D2", "H4", "C3", "H4"]),
                           ("verify-bundle", ["K", "T", "A"]),
                           ("galois", ["T", "K", "A"])):
        single = {}
        for nm in set(names):
            assert main([command, str(path), nm, "--json"]) == 0
            single[nm] = json.loads(capsys.readouterr().out)["results"][0]
        bodies = {json.dumps({k: v for k, v in r.items() if k != "name"}, sort_keys=True)
                  for r in single.values()}
        assert len(bodies) == len(single)  # a swapped report would show
        assert main([command, str(path), *names, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == [single[nm] for nm in names]
        assert main([command, str(path), *names]) == 0
        out = capsys.readouterr().out
        found = [ln.split(":")[0] for ln in out.splitlines() if not ln.startswith(" ")]
        assert found == names


# ----------------------------------------------------- parser and exit path

_EVERY_HELP = [["-h"], ["--help"]] + [[*cmd, "-h"] for cmd in (
    ["verify-hopf"], ["verify-bundle"], ["galois"], ["cleft"], ["cleft", "check"],
    ["cleft", "invert"], ["pushforward"], ["h4"], ["h4", "criterion"], ["witness"],
    ["witness", "verify"], ["demo"], ["demo", "thm43"], ["demo", "prop35"],
    ["demo", "census-f3"])]
_MISUSE = [[], ["frobnicate"], ["verify-hop"], ["--json"], ["--json", "galois", "f", "A"],
           ["verify-hopf"], ["verify-bundle", "f"], ["galois"], ["cleft"], ["cleft", "nope"],
           ["cleft", "check", "f"], ["pushforward", "f", "A"], ["h4"],
           ["h4", "criterion", "--alpha", "1"], ["witness"], ["demo"],
           ["demo", "prop35", "--order", "x"], ["verify-hopf", "f", "H", "--bogus"],
           ["demo", "census-f3", "extra"]]
_VALID = [["galois", "f", "A", "B", "--json"], ["cleft", "invert", "f", "g"],
          ["witness", "verify", "f"], ["demo", "prop35", "--order", "3", "--q", "2"],
          ["h4", "criterion", "--alpha", "4", "--beta", "1", "--gamma", "4"]]


def _parsed(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", _EVERY_HELP + _MISUSE + _VALID, ids=" ".join)
def test_one_command_parser_reads_like_the_full_one(argv, capsys):
    """The parser built for argv prints the help, usage and errors, and
    returns the arguments, of the parser with every command."""
    assert _parsed(_build_parser(argv), argv, capsys) == _parsed(_build_parser(), argv, capsys)


def test_a_named_command_builds_only_its_parser():
    def commands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)
    assert commands(_build_parser(["cleft", "check", "f", "g"])) == ["cleft"]
    assert len(commands(_build_parser(["frobnicate"]))) == 8


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["demo", "census-f3"]) == 0
    assert main(["h4", "criterion", "--alpha", "1"]) == 2
    assert gc.get_freeze_count() == before


def test_run_freezes_after_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hopfgal", "h4", "criterion", "--alpha", "4",
                                      "--beta", "1", "--gamma", "4"])
    before = gc.get_freeze_count()
    try:
        assert run() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "trivial, s=2, t=1\n"


@pytest.mark.parametrize("argv, code", [
    (["h4", "criterion", "--alpha", "4", "--beta", "1", "--gamma", "4", "--json"], 0),
    (["h4", "criterion", "--alpha", "1", "--beta", "0", "--gamma", "5"], 1),
    (["verify-hopf", "/nonexistent/doc.json", "H"], 2),
    (["frobnicate"], 2),
])
def test_module_exit_keeps_codes_and_output(argv, code, capsys):
    assert main(argv) == code
    want = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (code, want.out, want.err)


def test_console_script_is_the_freezing_exit():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hopfgal"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is run
