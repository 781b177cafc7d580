"""Command line behavior: exit taxonomy, verdict text, JSON determinism.

Everything runs in-process through main(argv) so the exit codes are the
function's return values and output is captured with capsys, except the
process exit path, which is compared against main() in a child process.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal.bundles import (AbgParams, _coaction_images, abg_bundle, abg_cleaving,
                             kummer_bundle)
from hopfgal.cli import MAX_KUMMER_ORDER, _build_parser, _read_plain, main, run
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


def test_demo_prop35_refuses_an_order_above_the_schema_cap(capsys):
    """--order shares the schema's cap on a kummer bundle's order and is
    refused before any work, with one error line; the cap itself passes."""
    schema = json.loads((Path(hopfgal.__file__).parent / "schema.json").read_text())
    assert MAX_KUMMER_ORDER == schema["$defs"]["bundle"]["properties"]["order"]["maximum"]
    for order in (65, 1000):
        start = time.perf_counter()
        assert main(["demo", "prop35", "--order", str(order), "--field", "F3001"]) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --order {order} is above 64, the largest "
                                "order a kummer bundle may have\n")
    assert main(["demo", "prop35", "--order", "64"]) == 1
    assert capsys.readouterr().err == (
        "rejected: -1 does not have exact multiplicative order 64\n")


def _element_of_order(n):
    """(p, q): the least prime p = 1 mod n and the least q of exact
    multiplicative order n in F_p."""
    p = n + 1
    while any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        p += n
    q = next(q for q in range(2, p)
             if pow(q, n, p) == 1 and all(pow(q, k, p) != 1 for k in range(1, n)))
    return p, q


@pytest.mark.parametrize("order", range(2, 17))
def test_demo_prop35_orders_below_the_cap(order, capsys):
    p, q = _element_of_order(order)
    assert main(["demo", "prop35", "--order", str(order), "--q", str(q),
                 "--field", f"F{p}"]) == 0
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


def test_census_filters_the_candidate_images_once_per_ring(capsys):
    _coaction_images.cache_clear()
    assert main(["demo", "census-f3"]) == 0
    info = _coaction_images.cache_info()
    assert (info.misses, info.hits) == (1, 17)


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
           ["demo", "census-f3", "extra"], ["demo", "prop35", "--q"],
           ["h4", "criterion", "--alpha", "4", "--beta", "1", "--gamma"]]
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


def _argparse_reads(argv):
    """vars() of what argparse reads from argv, or ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser(argv).parse_args(argv))
        except SystemExit as exc:
            return ("exit", exc.code)


def _check_plain_reader(argv):
    """Whenever the plain reader reads argv, argparse reads the same."""
    plain = _read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_reads(argv)
    return plain


@pytest.mark.parametrize("argv", _EVERY_HELP + _MISUSE + _VALID, ids=" ".join)
def test_plain_reader_reads_the_valid_corpus_and_leaves_the_rest(argv):
    assert (_check_plain_reader(argv) is not None) == (argv in _VALID)


_ABG = ["--alpha", "--beta", "--gamma", "--field"]
# each command's words and its options
_PATHS = {(): [], ("verify-hopf",): [], ("verify-bundle",): [], ("galois",): [],
          ("cleft", "check"): [], ("cleft", "invert"): [], ("pushforward",): [],
          ("h4", "criterion"): _ABG, ("witness", "verify"): [], ("demo", "thm43"): _ABG,
          ("demo", "prop35"): ["--order", "--q", "--field"], ("demo", "census-f3"): []}
_VALUES = ["-1", "x", "2/5", "3", "F7", "", "--json", "-h"]
_TOKENS = ["cleft", "check", "h4", "witness", "verify", "demo", "prop35", "f", "A", "B",
           "--json", "--al", "--alpha=4", "--", "-h", "--order", "--q", *_ABG, *_VALUES]


@st.composite
def _argvs(draw):
    """A command's words, then a shuffle of file and name words, its options
    (with a value or none), and loose tokens, so that many draws are valid."""
    path = draw(st.sampled_from(sorted(_PATHS)))
    words = draw(st.lists(st.sampled_from(["f", "A", "B"]), max_size=4))
    flags = draw(st.lists(st.sampled_from(_PATHS[path] or ["--json"]), unique=True))
    chunks = [words] + [[flag, *draw(st.sampled_from([[], *([v] for v in _VALUES)]))]
                        for flag in flags]
    chunks += [[tok] for tok in draw(st.lists(st.sampled_from(_TOKENS), max_size=2))]
    return list(path) + sum(draw(st.permutations(chunks)), [])


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_plain_reader_reads_what_argparse_reads(argv):
    _check_plain_reader(argv)


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["demo", "census-f3"]) == 0
    assert main(["h4", "criterion", "--alpha", "1"]) == 2
    assert gc.get_freeze_count() == before


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


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
# the line after run() is printed only if run() returns
_RUN = ("import sys; from hopfgal.cli import run; code = run(); "
        "print('run returned', code, file=sys.stderr); sys.exit(code)")


def _run_child(argv, stdout=subprocess.PIPE, unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = _SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-c", _RUN, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


@pytest.mark.parametrize("argv, code", [
    (["h4", "criterion", "--alpha", "4", "--beta", "1", "--gamma", "4"], 0),
    (["h4", "criterion", "--alpha", "1", "--beta", "0", "--gamma", "5", "--json"], 1),
    (["demo", "prop35", "--order", "65"], 2),
    (["h4", "criterion", "--alpha", "1"], 2),
])
def test_run_ends_the_process_with_the_code_and_bytes_of_main(argv, code, capsys):
    assert main(argv) == code
    want = capsys.readouterr()
    out = _run_child(argv)
    assert (out.returncode, out.stdout, out.stderr) == (code, want.out, want.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_run_leaves_a_failed_flush_to_the_interpreter():
    argv = ["h4", "criterion", "--alpha", "4", "--beta", "1", "--gamma", "4"]
    with open("/dev/full", "w") as full:
        buffered = _run_child(argv, stdout=full)
        unbuffered = _run_child(argv, stdout=full, unbuffered=True)
    # run()'s flush fails, so it returns, and the interpreter's last flush
    # fails again and reports it
    assert buffered.returncode == 120
    lines = buffered.stderr.splitlines()
    assert lines[0] == "run returned 0"
    assert lines[1].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert lines[2:] == ["OSError: [Errno 28] No space left on device"]
    # unbuffered, the print itself raises out of main()
    assert unbuffered.returncode == 1
    assert unbuffered.stderr.startswith("Traceback (most recent call last):")
    assert unbuffered.stderr.endswith("\nOSError: [Errno 28] No space left on device\n")


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hopfgal"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is run
