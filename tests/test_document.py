"""Interchange format: schema diagnostics and lossless round trips.

Serialization always lands in the explicit normal form, so the round-trip
law has two halves: parse(serialize(objects)) rebuilds equal objects for
anything, and serialize(parse(text)) is a byte fixed point once the text
is already normal.  Constructor shorthands parse but are not reproduced.
"""

import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal import homotopy
from hopfgal.bundles import AbgParams, abg_bundle, abg_cleaving, kummer_bundle
from hopfgal.cleft import Cocycle, check_cleaving, cleaving_of_twisted_product, twisted_product
from hopfgal.cli import main
from hopfgal.document import (
    Document,
    document_of,
    dump_document,
    load_document,
    parse_document,
)
from hopfgal.errors import (BadScalarError, BaseMismatchError, NotEtaleInclusionError,
                            SchemaError, UnresolvedReferenceError)
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.homotopy import (
    EtaleStep,
    HomotopyWitness,
    cleft_trivialization_witness,
    grading_witness,
    identity_matrix,
    identity_step,
    kummer_trivialization_witness,
    reflexive_witness,
    root_step,
    transport_witness,
    verify_witness,
)
from hopfgal.hopf import dual_hopf, cyclic_group_algebra, sweedler_h4, taft, verify_hopf
from hopfgal.comod import HModuleMap, push_forward, trivial_bundle
from hopfgal.galois import verify_bundle
from hopfgal.rings import (
    MAX_TERM_PRODUCTS,
    BaseMorphism,
    WorkBudget,
    adjoin_root,
    base_ring,
    compose,
    extend_with_t,
    inclusion_morphism,
    laurent_ring,
    polynomial_ring,
)


def parse_obj(obj):
    return parse_document(json.dumps(obj))


def test_constructor_shorthands():
    doc = parse_obj({
        "field": "Q",
        "rings": {"C": {"gens": []}},
        "hopf_algebras": {"H4": {"construction": "sweedler"},
                          "D3": {"construction": "cyclic_dual", "order": 3}},
        "bundles": {"A": {"construction": "abg", "ring": "C",
                          "alpha": "3", "beta": "5", "gamma": "7"},
                    "T": {"construction": "trivial", "ring": "C", "hopf": "H4"},
                    "K": {"construction": "kummer", "order": 2, "q": "-1"}}})
    assert doc.hopf_algebras["H4"] == sweedler_h4(QQ)
    assert verify_hopf(doc.hopf_algebras["H4"]).ok
    assert doc.hopf_algebras["D3"] == dual_hopf(cyclic_group_algebra(3, QQ))
    assert doc.bundles["K"] == kummer_bundle(2, QQ.from_int(-1), QQ)
    assert doc.bundles["A"].mult[(1, 1)] == {0: base_ring(QQ).from_int(3).coeffs}


def test_taft_shorthand_over_prime_field():
    doc = parse_obj({"field": "F7",
                     "hopf_algebras": {"H9": {"construction": "taft",
                                              "order": 3, "q": "2"}}})
    assert doc.hopf_algebras["H9"] == taft(3, PrimeField(7).from_int(2), PrimeField(7))


def test_explicit_normal_form_round_trip():
    F7 = PrimeField(7)
    start = Document(F7, hopf_algebras={"H": taft(3, F7.from_int(2), F7)})
    text = dump_document(start)
    doc = parse_document(text)
    assert doc.hopf_algebras["H"] == start.hopf_algebras["H"]
    assert dump_document(doc) == text
    # the normal form spells the construction out
    assert document_of(doc)["hopf_algebras"]["H"]["construction"] == "explicit"


def test_ring_and_field_round_trip():
    K = SimpleExtension(QQ, "r", (QQ.from_int(-3), QQ.zero(), QQ.one()))
    R = base_ring(K).add_laurent("z").add_free("x", grade=1)
    from hopfgal.rings import adjoin_root
    R, _, _ = adjoin_root(R, R.gen("z"), 2, "w")
    doc = Document(K, rings={"C": R})
    text = dump_document(doc)
    doc2 = parse_document(text)
    assert doc2.field == K
    assert doc2.rings["C"] == R
    assert dump_document(doc2) == text


def test_morphism_and_cleaving_round_trip():
    base = base_ring(QQ)
    poly = base.add_free("u")
    doc = parse_obj({
        "field": "Q",
        "rings": {"Q0": {"gens": []},
                  "P": {"gens": [{"name": "u", "kind": "free"}]}},
        "hopf_algebras": {"H": {"construction": "sweedler"}},
        "morphisms": {"f": {"source": "Q0", "target": "P", "images": {}}},
        "bundles": {"T": {"construction": "trivial", "ring": "P", "hopf": "H"}},
        "cleavings": {"g": {"bundle": "T",
                            "values": [["1", {"1": "1"}], ["X", {"X": "u"}]]}}})
    f = doc.morphisms["f"]
    assert f.source == base and f.target == poly
    cm = doc.cleavings["g"]
    assert cm.values[1] == {1: poly.gen("u").coeffs}
    assert cm.values[2] == {}
    text = dump_document(doc)
    doc2 = parse_document(text)
    assert doc2.cleavings["g"].values == cm.values
    assert dump_document(doc2) == text


def _witness_over_f7(case):
    """A witness over F7[z^±1] for H4 with one fault, or none for
    "admissible": a step whose target also adds a free x, a step sending z
    to z^-1 into F7[z^±1, r | r^2 = z], a family over the source's
    interval, or matrices over the source."""
    C, H = laurent_ring(PrimeField(7), "z"), sweedler_h4(PrimeField(7))
    step, _ = root_step(C, C.gen("z"), 2, "r")
    E = step.target
    if case == "free generator":
        step = EtaleStep(inclusion_morphism(C, E.add_free("x")))
    elif case == "step morphism":
        step = EtaleStep(BaseMorphism(C, E, {"z": E.gen("z") ** -1}))
    interval = extend_with_t(C) if case == "family" else step.interval
    iso = identity_matrix(C if case == "matrices" else E, H.dim)
    end = trivial_bundle(C, H)
    return HomotopyWitness(step, trivial_bundle(interval.ring, H), end, end, iso, iso)


@pytest.mark.parametrize("case, error, message", [
    ("free generator", NotEtaleInclusionError,
     "step is not a tower of root adjunctions over its source"),
    ("step morphism", NotEtaleInclusionError,
     "step is not a tower of root adjunctions over its source"),
    ("family", BaseMismatchError, "family must live over the interval ring"),
    ("matrices", BaseMismatchError, "endpoint matrices must live over the extension"),
])
def test_a_witness_that_is_not_well_formed_is_refused_when_built(case, error, message):
    """A witness is well formed by construction, so every witness can be
    written: a document spells its step as roots over the source and reads
    its interval, family and matrices over the step's target."""
    with pytest.raises(error) as exc:
        _witness_over_f7(case)
    assert str(exc.value) == message


def test_a_witness_reads_its_interval_off_its_step(monkeypatch):
    """Loading, verifying and dumping a document builds one interval ring
    per witness, the one its step holds."""
    built = []

    def counting(ring):
        built.append(ring)
        return extend_with_t(ring)
    monkeypatch.setattr(homotopy, "extend_with_t", counting)
    doc = parse_document(_bench_text("seed0/bundle-towers/kummer.json"))
    for w in doc.witnesses.values():
        assert w.interval is w.step.interval
        assert verify_witness(w).ok
    dump_document(doc)
    assert len(doc.witnesses) == 3
    assert built == [w.step.target for w in doc.witnesses.values()]


def _admissible_witnesses():
    Q = base_ring(QQ)
    graded = polynomial_ring(QQ, "x", grades=(1,))
    cleft = cleft_trivialization_witness(AbgParams(Q, 3, 5, 7)).links[0][0]
    return {"cleft": cleft,
            "over F7": _witness_over_f7("admissible"),
            "kummer": kummer_trivialization_witness(3, 2, PrimeField(7))[1],
            "reflexive": reflexive_witness(abg_bundle(AbgParams(Q, 3, 5, 7))),
            "grading": grading_witness(abg_bundle(AbgParams(graded, 1, graded.gen("x"), 0))),
            "transported": transport_witness(inclusion_morphism(Q, Q.add_free("u")), cleft)}


@pytest.mark.parametrize("name", sorted(_admissible_witnesses()))
def test_witness_round_trip_and_reverify(name):
    """An admissible witness comes back equal, and still verifies."""
    w = _admissible_witnesses()[name]
    text = dump_document(Document(w.family.base.field, witnesses={"w": w}))
    doc2 = parse_document(text)
    assert doc2.witnesses["w"] == w
    assert verify_witness(doc2.witnesses["w"]).ok
    assert dump_document(doc2) == text


# ------------------------------------------- round trips of whole documents

_QW = SimpleExtension(QQ, "w", (QQ.one(), QQ.one(), QQ.one()))  # w^2 + w + 1
# (field, N, q of exact order N) for a Kummer bundle over each field
_FIELDS = [(QQ, 2, QQ.from_int(-1)), (PrimeField(7), 3, 2), (_QW, 3, _QW.gen())]


def _scalar_of(draw, K, nonzero=False):
    if isinstance(K, SimpleExtension):
        c = tuple(_scalar_of(draw, K.base) for _ in range(K.degree))
        return K.one() if nonzero and K.is_zero(c) else c
    if isinstance(K, PrimeField):
        return draw(st.integers(1 if nonzero else 0, K.p - 1))
    n = draw(st.integers(-9, 9).filter(lambda n: n or not nonzero))
    return Fraction(n, draw(st.integers(1, 5)))


def _unit_of(draw, R):
    """A nonzero scalar times a monomial in the Laurent and root generators."""
    exps = {g.name: draw(st.integers(-2, 2) if g.kind == "laurent" else st.integers(0, 2))
            for g in R.gens if g.kind != "free" and draw(st.booleans())}
    return R.monomial(exps, _scalar_of(draw, R.field, nonzero=True))


def _element_of(draw, R):
    out = R.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = {g.name: draw(st.integers(-2, 2) if g.kind == "laurent" else st.integers(0, 3))
                for g in R.gens if draw(st.booleans())}
        out = out + R.monomial(exps, _scalar_of(draw, R.field))
    return out


def _nonzero_vec(draw, R, n):
    """A coordinate vector of rank n with nonzero entries, as a dump keeps them."""
    vec = {i: _element_of(draw, R) for i in range(n) if draw(st.booleans())}
    return {i: c for i, c in vec.items() if not c.is_zero}


def _abg_over(draw, R):
    p = AbgParams(R, _unit_of(draw, R), _element_of(draw, R), _element_of(draw, R))
    spec = {"construction": "abg", **{k: R.format_element(getattr(p, k))
                                      for k in ("alpha", "beta", "gamma")}}
    return abg_bundle(p), spec


@st.composite
def _documents_and_shorthands(draw):
    """A document naming every ring, Hopf algebra and bundle it refers to,
    some of them twice: a dump refers to those by their greatest name,
    whatever order the names were inserted in.  With it, the shorthand
    specs that build some of its bundles and its witness's family, keyed by
    their path in the dump."""
    K, N, q = draw(st.sampled_from(_FIELDS))
    R = base_ring(K)
    for name in "abc"[:draw(st.integers(0, 3))]:
        rooted = any(g.kind == "root" for g in R.gens)  # Laurent generators come first
        kind = draw(st.sampled_from(("free", "root") if rooted else ("free", "laurent", "root")))
        if kind == "free":
            R = R.add_free(name, grade=draw(st.integers(0, 2)))
        elif kind == "laurent":
            R = R.add_laurent(name)
        else:
            R, _, _ = adjoin_root(R, _unit_of(draw, R), draw(st.sampled_from((2, 3))), name)
    P, L = polynomial_ring(K, "x", "y"), laurent_ring(K, "t")
    rings = {"R": R, "P": P, "L": L}
    morphisms = {
        "f": BaseMorphism(P, R, {"x": _element_of(draw, R), "y": _element_of(draw, R)}),
        "g": BaseMorphism(L, R, {"t": _unit_of(draw, R)})}
    if R.gens:
        rings["S"] = S = R.prefix(draw(st.integers(0, len(R.gens) - 1)))
        morphisms["incl"] = inclusion_morphism(S, R)
    hopf = {"H4": sweedler_h4(K), "C2": cyclic_group_algebra(2, K)}
    hname = draw(st.sampled_from(sorted(hopf)))
    H = hopf[hname]
    if draw(st.booleans()):
        hopf["H"] = hopf["H4"]
    if draw(st.booleans()):  # the antipodes of a Taft algebra and its dual
        hopf["T"] = taft(N, q, K)
        hopf["TD"] = dual_hopf(hopf["T"])
    if draw(st.booleans()):
        rings["A"] = R
    bundles, shorthands = {}, {}
    kinds = draw(st.sets(st.sampled_from(("abg", "trivial", "kummer")), min_size=1))
    if "abg" in kinds:
        bundles["A"], spec = _abg_over(draw, R)
        shorthands[("bundles", "A")] = {**spec, "ring": "R"}
    if "trivial" in kinds:
        bundles["T"] = trivial_bundle(R, H)
        shorthands[("bundles", "T")] = {"construction": "trivial", "ring": "R", "hopf": hname}
    if "kummer" in kinds:
        bundles["Z"] = B = kummer_bundle(N, q, K)
        rings["Z"], hopf["D"] = B.base, B.hopf
        shorthands[("bundles", "Z")] = {"construction": "kummer", "order": N, "q": K.format(q)}
    cleavings, witnesses = {}, {}
    if draw(st.booleans()):
        A = bundles[draw(st.sampled_from(sorted(bundles)))]
        cleavings["c"] = HModuleMap(A, tuple(_nonzero_vec(draw, A.base, A.dim)
                                             for _ in range(A.hopf.dim)))
    if draw(st.booleans()):
        step = identity_step(R) if draw(st.booleans()) else root_step(
            R, _unit_of(draw, R), draw(st.sampled_from((2, 3))), "s")[0]
        interval = step.interval
        I = interval.ring
        kind = draw(st.sampled_from(("abg", "trivial", "explicit")))
        if kind == "abg":
            family, shorthands[("witnesses", "w", "family")] = _abg_over(draw, I)
        elif kind == "trivial":
            family = trivial_bundle(I, H)
            shorthands[("witnesses", "w", "family")] = {"construction": "trivial", "hopf": hname}
        else:
            family = push_forward(compose(step.morphism, interval.include), _abg_over(draw, R)[0])
        at_zero, at_one = (bundles[draw(st.sampled_from(sorted(bundles)))] for _ in range(2))
        isos = [tuple(tuple(_element_of(draw, step.target) for _ in range(A.dim))
                      for _ in range(A.dim)) for A in (at_zero, at_one)]
        witnesses["w"] = HomotopyWitness(step, family, at_zero, at_one, *isos)
    doc = Document(K, rings=rings, hopf_algebras=hopf, morphisms=morphisms, bundles=bundles,
                   cleavings=cleavings, witnesses=witnesses)
    return doc, shorthands


_documents = _documents_and_shorthands().map(lambda drawn: drawn[0])


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(_documents)
def test_generated_documents_round_trip(doc):
    text = dump_document(doc)
    again = parse_document(text)
    assert again == doc
    assert dump_document(again) == text


@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_constructor_documents_load_back(tmp_path_factory, data):
    """A document of records the constructors build, written by
    ``dump_document``, reads back equal through ``load_document``: a Taft
    algebra and its dual, a Kummer bundle and its trivialization witness,
    a twisted product of C2 and a rank-4 bundle with their cleavings."""
    draw = data.draw
    K, N, q = draw(st.sampled_from(_FIELDS))
    C = laurent_ring(K, "u")
    C2 = cyclic_group_algebra(2, K)
    S = twisted_product(C, C2, Cocycle(C, C2, ((C.one(), C.one()), (C.one(), _unit_of(draw, C)))))
    B = _abg_over(draw, C)[0]
    A, w = kummer_trivialization_witness(N, q, K)
    T = taft(N, q, K)
    doc = Document(K, hopf_algebras={"T": T, "D": dual_hopf(T)}, bundles={"A": A, "S": S, "B": B},
                   cleavings={"s": cleaving_of_twisted_product(S).gamma, "b": abg_cleaving(B).gamma},
                   witnesses={"w": w})
    path, text = tmp_path_factory.mktemp("doc") / "doc.json", dump_document(doc)
    path.write_text(text, encoding="utf-8")
    again = load_document(str(path))  # names the rings and Hopf algebras doc left unnamed
    for kind in ("hopf_algebras", "bundles", "cleavings", "witnesses"):
        assert {name: getattr(again, kind)[name] for name in getattr(doc, kind)} == getattr(doc, kind)
    assert dump_document(again) == text


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(_documents_and_shorthands())
def test_shorthands_build_what_the_normal_form_spells(drawn):
    """A bundle or a witness's family given by its abg, trivial or kummer
    shorthand parses to the object its explicit normal form gives."""
    doc, shorthands = drawn
    raw = json.loads(dump_document(doc))
    for path, spec in shorthands.items():
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = spec
    assert parse_obj(raw) == doc


@pytest.mark.parametrize("name", ["seed0/cli-docs/abg.json", "seed0/bundle-towers/kummer.json",
                                  "seed0/bundle-towers/abg_uvw.json", "taft6_F7_q3.json"])
def test_stored_documents_keep_their_bytes(name):
    """The stored documents that ``dump_document`` wrote, with morphisms,
    antipodes, cleavings and witnesses among them, read back and write
    the same bytes."""
    text = _bench_text(name)
    assert dump_document(parse_document(text)) == text


def test_wrong_arity_coaction_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_obj({
            "field": "Q",
            "rings": {"C": {"gens": []}},
            "hopf_algebras": {"H": {"construction": "sweedler"}},
            "bundles": {"A": {"construction": "explicit", "ring": "C",
                              "hopf": "H", "labels": ["1"],
                              "unit": {"1": "1"},
                              "mult": [["1", "1", {"1": "1"}]],
                              "coaction": [["1", [["1", "1"]]]]}}})
    assert "/bundles/A/coaction" in exc.value.pointer


def test_undefined_ring_reference():
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj({"field": "Q",
                   "bundles": {"A": {"construction": "abg", "ring": "Cbar",
                                     "alpha": "1", "beta": "0", "gamma": "0"}}})
    assert exc.value.name == "Cbar"
    assert exc.value.pointer == "/bundles/A/ring"


def test_bad_scalar_carries_location():
    with pytest.raises(BadScalarError) as exc:
        parse_obj({"field": "F7",
                   "rings": {"C": {"gens": [{"name": "u", "kind": "free"}]}},
                   "bundles": {"A": {"construction": "abg", "ring": "C",
                                     "alpha": "1", "beta": "q", "gamma": "0"}}})
    assert "/bundles/A/beta" in str(exc.value)


_POLY_RING = {"C": {"gens": [{"name": "u", "kind": "free"}, {"name": "z", "kind": "laurent"}]}}


@pytest.mark.parametrize("raw, argv, pointer", [
    # kept `witness verify` running past 10 s
    ({"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "free"}]}},
      "morphisms": {"f": {"source": "C", "target": "C", "images": {"u": "(1+u)^100000"}}}},
     ["witness", "verify", "{}"], "/morphisms/f/images/u"),
    # QQ.parse took 4 s on this scalar
    ({"field": "Q", "hopf_algebras": {"T": {"construction": "taft", "order": 2,
                                            "q": "3^10000000"}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/q"),
])
def test_huge_power_exits_2_quickly(tmp_path, raw, argv, pointer):
    path = tmp_path / "power.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli",
                          *(a.format(path) for a in argv)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 2
    assert pointer in out.stderr and "exponent cap 256" in out.stderr


_UVW_RING = {"C": {"gens": [{"name": g, "kind": "free"} for g in "uvw"]}}


@pytest.mark.parametrize("e", [32, 200])
def test_huge_product_exits_2_in_under_a_second(tmp_path, e):
    # (1+u+v+w)^32 passes the exponent cap and took 6 s to expand
    raw = {"field": "Q", "rings": _UVW_RING, "morphisms": {"f": {
        "source": "C", "target": "C", "images": {"u": f"(1+u+v+w)^{e}", "v": "v", "w": "w"}}}}
    path = tmp_path / "product.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli", "witness", "verify", str(path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert out.returncode == 2
    assert "/morphisms/f/images/u" in out.stderr and "work cap" in out.stderr


_DEEP_SUM = {"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "free"}]}},
             "morphisms": {"f": {"source": "C", "target": "C",
                                 "images": {"u": "+".join(["u"] * 2000)}}}}
_DEEP_SCALAR = {"field": "Q", "hopf_algebras": {"T": {"construction": "taft", "order": 2,
                                                      "q": "+".join(["1"] * 2000)}}}


@pytest.mark.parametrize("text, pointer", [
    (json.dumps(_DEEP_SUM), "at /morphisms/f/images/u: element nests too deeply"),
    (json.dumps(_DEEP_SCALAR), "at /hopf_algebras/T/q: scalar nests too deeply"),
    ("[" * 100000 + "]" * 100000, "/: the document nests too deeply"),
], ids=["element", "scalar", "arrays"])
def test_deep_nesting_exits_2_quickly(tmp_path, text, pointer):
    # each died with a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli", "witness", "verify", str(path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 2.0
    assert out.returncode == 2
    assert pointer in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("text, ok", [
    ("(1+u+v+w)^16", True), ("(1+u+v+w)^8*(1+u+v+w)^8", True),
    ("(1+u+v+w)^8*(1+u+v+w)^8*(1+u+v+w)^8", False), ("(1+u+v+w)^24", False),
    ("((1+u+v+w)^4)^8", False), ("(1+u+v+w)^8*(1+u+v+w)^8/2", True),
])
def test_work_cap_bounds_products_and_powers_together(text, ok):
    """One element string may multiply at most MAX_TERM_PRODUCTS pairs of
    terms, summed over its products and the squarings of its powers."""
    raw = {"field": "Q", "rings": _UVW_RING, "morphisms": {"f": {
        "source": "C", "target": "C", "images": {"u": text, "v": "v", "w": "w"}}}}
    if ok:
        assert not parse_obj(raw).morphisms["f"].images[0].is_zero
    else:
        with pytest.raises(BadScalarError, match="/morphisms/f/images/u.*work cap"):
            parse_obj(raw)


def test_work_cap_covers_the_whole_document(tmp_path):
    """Each string is under the cap, the three together are over it: the
    third is refused, where the budget ran out."""
    text = "(1+u+v+w)^16"
    ring = base_ring(QQ).add_free("u").add_free("v").add_free("w")
    assert not ring.parse_element(text).is_zero
    raw = {"field": "Q", "rings": _UVW_RING, "morphisms": {"f": {
        "source": "C", "target": "C", "images": {"u": text, "v": text, "w": text}}}}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli", "witness", "verify", str(path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 2.0
    assert out.returncode == 2
    assert "at /morphisms/f/images/w:" in out.stderr and "work cap" in out.stderr


@pytest.mark.parametrize("text, ok", [
    ("z^100000000", True), ("-z^-100000000", True), ("(u*z)^100000001", True),
    ("(1+u)^256", True), ("2^256*u", True), ("(1+u)^257", False), ("(2*u)^257", False),
    ("2^257", False), ("(u^2+1)^-300", False), ("((1+u)^16)^16", True),
    ("((1+u)^16)^17", False), ("(((2^7)^7)^7)^7", False),
    ("0^300+u", True), ("(0^300)^300+u", True), ("0^-300+u", False),
])
def test_power_cap_applies_only_where_the_value_grows(text, ok):
    raw = {"field": "Q", "rings": _POLY_RING, "morphisms": {"f": {
        "source": "C", "target": "C", "images": {"u": text, "z": "z"}}}}
    if ok:
        assert not parse_obj(raw).morphisms["f"].images[0].is_zero
    else:
        with pytest.raises(BadScalarError, match="/morphisms/f/images/u"):
            parse_obj(raw)


def test_ring_power_cap_over_a_finite_field_and_under_a_root():
    F = base_ring(PrimeField(61)).add_free("u")
    big = F.parse_element("(5*u)^100000000")
    assert big == F.parse_element("u^100000000") * pow(5, 10**8, 61)
    with pytest.raises(BadScalarError, match="exponent cap"):
        F.parse_element("(1+u)^300")
    F7z = base_ring(PrimeField(7)).add_free("z")
    assert F7z.parse_element("0^300") == F7z.parse_element("(z-z)^100000000") == F7z.zero()
    Z = base_ring(QQ).add_laurent("z")
    R, _, _ = adjoin_root(Z, Z.gen("z"), 3, "r")
    assert R.parse_element("r^100") == R.parse_element("z^33*r")
    with pytest.raises(BadScalarError, match="exponent cap"):
        R.parse_element("r^1000")  # r^3 = z: a power of a root generator is reduced, so it can grow


def test_scalar_power_cap_spares_finite_fields_and_units():
    assert QQ.parse("(-1)^1000001") == -1 and QQ.parse("0^1000000") == 0
    assert PrimeField(61).parse("3^10000000") == pow(3, 10000000, 61)
    assert QQ.parse("(2^16)^16") == 2 ** 256
    for text in ("3^10000000", "2^-257", "(2^16)^17"):
        with pytest.raises(BadScalarError, match="exponent cap"):
            QQ.parse(text)


_PAST_THE_DIGIT_LIMIT = "*".join(["2^256"] * 57)  # 2^14592 has 4,393 digits


@pytest.mark.parametrize("raw, argv, pointer", [
    # crashed in RationalField.format with a traceback (exit 1)
    ({"field": "Q", "hopf_algebras": {"T": {"construction": "taft", "order": 2,
                                            "q": _PAST_THE_DIGIT_LIMIT}}},
     ["verify-hopf", "{}", "T"], "/hopf_algebras/T/q"),
    ({"field": "Q", "rings": {"C": {"gens": [{"name": "u", "kind": "free"}]}},
      "morphisms": {"f": {"source": "C", "target": "C",
                          "images": {"u": f"u/({_PAST_THE_DIGIT_LIMIT})"}}}},
     ["witness", "verify", "{}"], "/morphisms/f/images/u"),
])
def test_scalar_past_the_digit_limit_exits_2(tmp_path, raw, argv, pointer):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli",
                          *(a.format(path) for a in argv)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 2, out.stderr
    assert pointer in out.stderr and "more than 4300 digits" in out.stderr
    assert "Traceback" not in out.stderr


def test_digit_limit_is_exact():
    ten_4096 = "*".join(["10^256"] * 16)
    assert QQ.parse(f"{ten_4096}*10^203") == 10 ** 4299  # 4,300 digits
    assert QQ.parse(f"-1/({ten_4096}*10^203)") == Fraction(-1, 10 ** 4299)
    for text in (f"{ten_4096}*10^204", f"1/({ten_4096}*10^204)"):
        with pytest.raises(BadScalarError, match="more than 4300 digits"):
            QQ.parse(text)
    QW = SimpleExtension(QQ, "w", (QQ.one(), QQ.one(), QQ.one()))
    with pytest.raises(BadScalarError, match="more than 4300 digits"):
        QW.parse(f"1 + w*{ten_4096}*10^204")
    with pytest.raises(BadScalarError, match="more than 4300 digits"):
        base_ring(QQ).add_free("u").parse_element(f"u + {ten_4096}*10^204")


def test_unknown_basis_label_rejected():
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj({
            "field": "Q",
            "rings": {"C": {"gens": []}},
            "cleavings": {"g": {"bundle": "T", "values": []}}})
    assert exc.value.name == "T"
    with pytest.raises(UnresolvedReferenceError):
        parse_obj({
            "field": "Q",
            "rings": {"C": {"gens": []}},
            "hopf_algebras": {"H": {"construction": "sweedler"}},
            "bundles": {"T": {"construction": "trivial", "ring": "C", "hopf": "H"}},
            "cleavings": {"g": {"bundle": "T", "values": [["nope", {"1": "1"}]]}}})


def test_names_in_pointers_are_escaped():
    """A name taken from the document is one RFC 6901 token in a pointer:
    ~ as ~0, then / as ~1."""
    ring = {"gens": [{"name": "u/v", "kind": "free"}]}
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj({"field": "Q", "hopf_algebras": {"H": {"construction": "sweedler"}},
                   "bundles": {"x/y": {"construction": "trivial", "ring": "C", "hopf": "H"}}})
    assert exc.value.pointer == "/bundles/x~1y/ring"
    with pytest.raises(BadScalarError, match="^at /morphisms/f~0g/images/u~1v: "):
        parse_obj({"field": "Q", "rings": {"C": ring},
                   "morphisms": {"f~g": {"source": "C", "target": "C",
                                         "images": {"u/v": "1/0"}}}})
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj({"field": "Q", "hopf_algebras": {"H": {
            "construction": "explicit", "labels": ["1"], "unit": {"1": "1"},
            "mult": [["1", "1", {"1": "1"}]], "comult": [["1", [["1", "1", "1"]]]],
            "counit": {"~/": "1"}, "antipode": [["1", {"1": "1"}]]}}})
    assert exc.value.pointer == "/hopf_algebras/H/counit/~0~1"


def _tables_document():
    C = base_ring(QQ)
    return document_of(Document(
        QQ, hopf_algebras={"H4": sweedler_h4(QQ)},
        bundles={"A": abg_bundle(AbgParams(C, 3, 5, 7))},
        witnesses={"w": cleft_trivialization_witness(AbgParams(C, 3, 5, 7)).links[0][0]}))


@pytest.mark.parametrize("path", [("hopf_algebras", "H4", "comult", 1),
                                  ("bundles", "A", "coaction", 2),
                                  ("witnesses", "w", "family", "coaction", 2)],
                         ids=["comult", "coaction", "family"])
def test_table_terms_are_reported_at_their_pointer(path):
    """The three tables share one reader: an unknown right-leg label and a
    bad value in the first term of a row are reported at that term."""
    pointer = "/" + "/".join(map(str, path)) + "/1/0"

    def first_term(raw):
        node = raw
        for key in path:
            node = node[key]
        return node[1][0]

    raw = _tables_document()
    first_term(raw)[1] = "nope"
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj(raw)
    assert (exc.value.pointer, exc.value.name) == (pointer, "nope")
    raw = _tables_document()
    first_term(raw)[2] = "1/q"
    with pytest.raises(BadScalarError) as exc:
        parse_obj(raw)
    assert str(exc.value).startswith(f"at {pointer}: ")


def test_not_json_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_document("{ not json")


def test_duplicate_labels_rejected():
    with pytest.raises(SchemaError):
        parse_obj({"field": "Q",
                   "hopf_algebras": {"H": {
                       "construction": "explicit", "labels": ["e", "e"],
                       "unit": {"e": "1"}, "counit": {"e": "1"},
                       "mult": [["e", "e", {"e": "1"}]],
                       "comult": [["e", [["e", "e", "1"]]]]}}})


# ------------------------------------------------------------ repeated rows

def _sweedler_raw():
    return document_of(Document(QQ, hopf_algebras={"H": sweedler_h4(QQ)}))


@pytest.mark.parametrize("row", [["1", "X", {"Y": "1"}], ["1", "X", {"X": "0"}]],
                         ids=["replacing", "all-zero"])
def test_repeated_mult_row_is_refused_at_its_pointer(tmp_path, capsys, row):
    """A second row for 1·X used to replace the first, or to be dropped
    when it was all zero; now it is refused where it stands."""
    raw = _sweedler_raw()
    mult = raw["hopf_algebras"]["H"]["mult"]
    mult.append(row)
    pointer = f"/hopf_algebras/H/mult/{len(mult) - 1}"
    with pytest.raises(SchemaError) as exc:
        parse_obj(raw)
    assert str(exc.value) == f"{pointer}: repeats the row at /hopf_algebras/H/mult/1"
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(raw))
    assert main(["verify-hopf", str(path), "H"]) == 2
    assert capsys.readouterr().err == f"error: {pointer}: repeats the row at /hopf_algebras/H/mult/1\n"


def _repeat_last_row(table):
    table.append(json.loads(json.dumps(table[-1])))
    return len(table) - 1


@pytest.mark.parametrize("path", [("hopf_algebras", "H4", "comult"),
                                  ("hopf_algebras", "H4", "antipode"),
                                  ("bundles", "A", "coaction"),
                                  ("witnesses", "w", "family", "mult"),
                                  ("cleavings", "g", "values")])
def test_every_table_refuses_a_repeated_row(path):
    raw = _tables_document()
    C = base_ring(QQ)
    A = abg_bundle(AbgParams(C, 3, 5, 7))
    raw["cleavings"] = {"g": document_of(Document(
        QQ, bundles={"A": A}, cleavings={"g": HModuleMap(A, tuple(
            A.basis_vec(k) for k in range(4)))}))["cleavings"]["g"]}
    node = raw
    for key in path:
        node = node[key]
    r = _repeat_last_row(node)
    at = "/" + "/".join(path)
    with pytest.raises(SchemaError) as exc:
        parse_obj(raw)
    assert exc.value.pointer == f"{at}/{r}"
    assert str(exc.value).endswith(f"repeats the row at {at}/{r - 1}")


def test_repeated_terms_inside_one_row_still_add_up():
    raw = _sweedler_raw()
    raw["hopf_algebras"]["H"]["comult"][0][1] = [["1", "1", "1/2"], ["1", "1", "1/2"]]
    assert parse_obj(raw).hopf_algebras["H"] == sweedler_h4(QQ)


@pytest.mark.parametrize("case", ["ring", "source", "adjunction"])
def test_repeated_generator_name_exits_2_at_its_pointer(tmp_path, capsys, case):
    """A generator name that a ring, or a witness's tower, already gives
    used to end in a ValueError traceback; now it is refused where it
    stands: in a ring's gens, or in an adjunction that repeats a generator
    of the step's source ring or an earlier adjunction."""
    raw = _tables_document()
    step = raw["witnesses"]["w"]["step"]
    adjunctions = step["adjunctions"]
    if case == "ring":
        raw["rings"]["C"] = {"gens": [{"name": "u", "kind": "free"}, {"name": "u", "kind": "free"}]}
        pointer, first = "/rings/C/gens/1/name", "/rings/C/gens/0/name"
    elif case == "source":
        raw["rings"][step["source"]]["gens"] = [{"name": adjunctions[0]["name"], "kind": "free"}]
        pointer = "/witnesses/w/step/adjunctions/0/name"
        first = f"/rings/{step['source']}/gens/0/name"
    else:
        adjunctions.append(dict(adjunctions[0]))
        pointer = "/witnesses/w/step/adjunctions/1/name"
        first = "/witnesses/w/step/adjunctions/0/name"
    path = tmp_path / "names.json"
    path.write_text(json.dumps(raw))
    assert main(["witness", "verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {pointer}: repeats the name at {first}\n"


@pytest.mark.parametrize("case", ["ring", "adjunction"])
def test_generator_named_like_a_field_variable_exits_2_at_its_pointer(tmp_path, capsys, case):
    """Over Q(w) a ring generator named w used to shadow the field's w, so
    a printed value mentioning the field's w read back as the generator;
    now the name is refused where it stands, in a ring's gens or in a
    witness's adjunction."""
    raw = _tables_document()
    raw["field"] = {"base": "Q", "var": "w", "modulus": ["1", "1", "1"]}
    if case == "ring":
        raw["rings"]["C"] = {"gens": [{"name": "w", "kind": "free"}]}
        pointer = "/rings/C/gens/0/name"
    else:
        raw["witnesses"]["w"]["step"]["adjunctions"][0]["name"] = "w"
        pointer = "/witnesses/w/step/adjunctions/0/name"
    path = tmp_path / "names.json"
    path.write_text(json.dumps(raw))
    assert main(["witness", "verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {pointer}: repeats the name at /field/var\n"


def test_image_of_a_name_outside_the_source_exits_2(tmp_path, capsys):
    """An image for a name that is not a generator of the source ring used
    to be dropped, and the push-forward went through with exit 0."""
    raw = {"field": "Q",
           "rings": {"C": {"gens": [{"name": "u", "kind": "free"}]},
                     "D": {"gens": [{"name": "u", "kind": "free"}, {"name": "v", "kind": "free"}]}},
           "hopf_algebras": {"H": {"construction": "sweedler"}},
           "bundles": {"A": {"construction": "trivial", "ring": "C", "hopf": "H"}},
           "morphisms": {"f": {"source": "C", "target": "D", "images": {"u": "u", "w": "v"}}}}
    with pytest.raises(UnresolvedReferenceError) as exc:
        parse_obj(raw)
    assert (exc.value.pointer, exc.value.name) == ("/morphisms/f/images/w", "w")
    path = tmp_path / "images.json"
    path.write_text(json.dumps(raw))
    assert main(["pushforward", str(path), "A", "f"]) == 2
    assert capsys.readouterr().err == "error: /morphisms/f/images/w: unresolved reference 'w'\n"


# --------------------------------------------------------------- value memo

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _bench_text(name):
    path = BENCH_DATA / name
    if not path.is_file():
        pytest.skip("benchmark documents not present")
    return path.read_text()


@pytest.mark.parametrize("name", ["seed0/bundle-towers/kummer.json", "taft6_F7_q3.json"])
def test_memo_reads_what_each_string_reads_on_its_own(monkeypatch, name):
    """Every string the memo answers, hits included, equals the string read
    alone, with a budget of its own, by a fresh copy of its ring or field;
    and the document equals and dumps like one read without the memo."""
    text = _bench_text(name)
    reads, memo_read = [], WorkBudget.read

    def recording(budget, read, s):
        value = memo_read(budget, read, s)
        reads.append((read, s, value))
        return value
    monkeypatch.setattr(WorkBudget, "read", recording)
    doc = parse_document(text)
    assert len(reads) > len({(r, s) for r, s, _ in reads})
    fresh = {}
    for read, s, value in reads:
        owner = read.__self__
        copy_of = fresh.setdefault(id(owner), copy.deepcopy(owner))
        assert copy_of is not owner
        assert getattr(copy_of, read.__name__)(s, WorkBudget()) == value
    monkeypatch.setattr(WorkBudget, "read", lambda budget, read, s: read(s, budget))
    alone = parse_document(text)
    assert alone == doc
    assert dump_document(alone) == dump_document(doc)


def test_memo_keeps_the_cap_and_forgets_errors():
    """A hit re-spends the pairs its first read spent; an error is read
    again, not remembered."""
    C = base_ring(QQ).add_free("u")
    budget = WorkBudget()
    first = budget.read(C.parse_element, "(1+u)^8")
    spent = MAX_TERM_PRODUCTS - budget.room
    assert spent > 0
    assert budget.read(C.parse_element, "(1+u)^8") is first
    assert MAX_TERM_PRODUCTS - budget.room == 2 * spent
    calls = []

    def bad(text, spend):
        calls.append(text)
        raise BadScalarError("no")
    for _ in range(2):
        with pytest.raises(BadScalarError):
            budget.read(bad, "x")
    assert calls == ["x", "x"]


def test_repeated_bad_string_is_reported_at_its_first_pointer():
    raw = {"field": "Q", "rings": _UVW_RING, "morphisms": {"f": {
        "source": "C", "target": "C", "images": {"u": "u", "v": "q", "w": "q"}}}}
    with pytest.raises(BadScalarError, match="^at /morphisms/f/images/v: unknown name 'q'"):
        parse_obj(raw)


def test_verifying_leaves_shared_values_unchanged():
    """Strings read once are shared across the tables; verifying every
    bundle, witness and cleaving must not change any of them."""
    for name in ("seed0/bundle-towers/kummer.json", "seed0/bundle-towers/abg_uvw.json"):
        doc = parse_document(_bench_text(name))
        before = dump_document(doc)
        for A in doc.bundles.values():
            assert verify_bundle(A).ok
        for w in doc.witnesses.values():
            assert verify_witness(w).ok
        for g in doc.cleavings.values():
            check_cleaving(g.algebra, g).verify()
        assert dump_document(doc) == before
