"""Acceptance gate: nine criteria, exact equality, wall-clock budgets.

Each test prints one summary line through the conftest hook.  Random
sweeps are seeded so every run checks the same instances.
"""

import json
import random
import time

import pytest

from hopfgal.bundles import (
    AbgParams,
    abg_bundle,
    abg_cleaving,
    abg_triviality_criterion,
    kummer_bundle,
    search_trivialization,
    sqrt_reduction,
)
from hopfgal.cleft import Cocycle, check_cleaving, extract_cocycle, twisted_product
from hopfgal.cli import main
from hopfgal.comod import (
    ComoduleAlgebra,
    HModuleMap,
    check_iso,
    push_forward,
    trivial_bundle,
)
from hopfgal.document import Document, document_of, dump_document
from hopfgal.errors import NotAssociativeError, NotInvertibleError
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import canonical_matrix, is_galois, verify_bundle
from hopfgal.homotopy import (
    cleft_trivialization_witness,
    grading_witness,
    kummer_trivialization_witness,
    reflexive_witness,
    transport_witness,
    verify_chain,
    verify_witness,
)
from hopfgal.hopf import (
    cyclic_group_algebra,
    dual_hopf,
    sweedler_h4,
    taft,
    verify_hopf,
)
from hopfgal.rings import BaseElement, BaseMorphism, adjoin_root, base_ring, extend_with_t

F5 = PrimeField(5)
F7 = PrimeField(7)


def rational(rng, nonzero=False):
    while True:
        n = rng.randint(-9, 9)
        if not (nonzero and n == 0):
            break
    return QQ.div(QQ.from_int(n), QQ.from_int(rng.randint(1, 9)))


def test_criterion_1_hopf_axioms():
    """criterion 1: reference Hopf algebras pass every axiom in under 1s"""
    t0 = time.perf_counter()
    algebras = [sweedler_h4(QQ),
                taft(3, F7.from_int(2), F7),
                taft(4, F5.from_int(2), F5)]
    algebras += [dual_hopf(cyclic_group_algebra(N, QQ)) for N in range(1, 7)]
    for H in algebras:
        rep = verify_hopf(H)
        assert rep.ok, "\n".join(rep.failures())
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_galois_determinants():
    """criterion 2: unit 16x16 determinants certify 51 bundles, mis-grading rejected"""
    rng = random.Random(41)
    C = base_ring(QQ)
    t0 = time.perf_counter()
    bundles = [trivial_bundle(C, sweedler_h4(QQ))]
    for _ in range(50):
        bundles.append(abg_bundle(AbgParams(
            C, C.from_scalar(rational(rng, nonzero=True)),
            C.from_scalar(rational(rng)), C.from_scalar(rational(rng)))))
    for A in bundles:
        M = canonical_matrix(A)
        assert len(M) == 16 and set().union(*M) <= set(range(16))
        assert is_galois(A).ok
    # same structure constants, coaction paired with the wrong Hopf leg
    good = bundles[1]
    bad = ComoduleAlgebra(good.base, good.hopf, good.labels, good.mult,
                          good.unit,
                          {0: {(0, 0): C.one()}, 1: {(1, 2): C.one()},
                           2: {(0, 2): C.one(), (2, 1): C.one()},
                           3: {(1, 3): C.one(), (3, 0): C.one()}})
    assert not verify_bundle(bad).ok
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_cleft_round_trip():
    """criterion 3: 25 cleft round trips per field over Q and F7"""
    rng = random.Random(43)
    t0 = time.perf_counter()
    for K in (QQ, F7):
        C = base_ring(K)
        for _ in range(25):
            if K is QQ:
                a, b, g = (rational(rng, nonzero=True), rational(rng),
                           rational(rng))
            else:
                a = K.from_int(rng.randint(1, 6))
                b, g = K.from_int(rng.randint(0, 6)), K.from_int(rng.randint(0, 6))
            p = AbgParams(C, C.from_scalar(a), C.from_scalar(b), C.from_scalar(g))
            A = abg_bundle(p)
            cm = abg_cleaving(A)
            rep = cm.verify()           # two-sided convolution identities
            assert rep.ok, "\n".join(rep.failures())
            sigma = extract_cocycle(cm)
            assert sigma.sigma[1][1] == p.alpha     # sigma(X, X) = alpha
            B = twisted_product(C, A.hopf, sigma)
            M = [[BaseElement(C, cm.gamma.values[k].get(i, {})) for k in range(4)]
                 for i in range(4)]
            assert check_iso(B, A, M).ok
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_rank4_criterion_values():
    """criterion 4: (1,0,gamma) non-trivial for gamma 1..5, (4,1,4) trivial at (2,1)"""
    C = base_ring(QQ)
    for g in range(1, 6):
        verdict = abg_triviality_criterion(AbgParams(C, 1, 0, g))
        assert not verdict.trivial
    verdict = abg_triviality_criterion(AbgParams(C, 4, 1, 4))
    assert verdict.trivial
    assert verdict.s == QQ.from_int(2) and verdict.t == QQ.from_int(1)


def test_criterion_5_f3_census():
    """criterion 5: criterion equals exhaustive search on all 18 F3 triples"""
    C = base_ring(PrimeField(3))
    t0 = time.perf_counter()
    trivial = set()
    for a in (1, 2):
        for b in range(3):
            for g in range(3):
                verdict = abg_triviality_criterion(AbgParams(C, a, b, g))
                found = search_trivialization(AbgParams(C, a, b, g))
                assert verdict.trivial == (found is not None), (a, b, g)
                if verdict.trivial:
                    trivial.add((a, b, g))
    assert trivial == {(1, 0, 0), (1, 1, 1), (1, 1, 2)}
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_trivializing_chain():
    """criterion 6: the (3,5,7) witness chain certifies down to (1,0,0)"""
    C = base_ring(QQ)
    p = AbgParams(C, 3, 5, 7)
    t0 = time.perf_counter()
    chain = cleft_trivialization_witness(p)
    assert len(chain) <= 2
    w, forward = chain.links[0]
    assert not forward
    # one admissible step: a square root of 3
    (value, degree, name), = w.step.recipe
    assert degree == 2 and value == C.from_int(3)
    ext = w.step.target
    i = w.step.morphism
    s = ext.gen(name)
    red = sqrt_reduction(AbgParams(ext, i(p.alpha), i(p.beta), i(p.gamma)), s)
    fibre1 = push_forward(w.interval.at_one, w.family)
    assert fibre1 == abg_bundle(red.target)
    fibre0 = push_forward(w.interval.at_zero, w.family)
    assert fibre0 == abg_bundle(AbgParams(ext, ext.one(), ext.zero(), ext.zero()))
    rep = verify_chain(chain, start=abg_bundle(p),
                       end=abg_bundle(AbgParams(C, 1, 0, 0)))
    assert rep.ok, "\n".join(rep.failures())
    assert time.perf_counter() - t0 < 10.0


def test_criterion_7_cyclic_self_trivialization():
    """criterion 7: cyclic bundles verify and self-trivialize etale-locally"""
    t0 = time.perf_counter()
    for N, q, K in ((2, QQ.from_int(-1), QQ), (3, F7.from_int(2), F7)):
        A = kummer_bundle(N, q, K)
        rep = verify_bundle(A)
        assert rep.ok, "\n".join(rep.failures())
        A2, w = kummer_trivialization_witness(N, q, K)
        assert A2 == A
        assert w.at_one == trivial_bundle(A.base, A.hopf)
        wrep = verify_witness(w)
        assert wrep.ok, "\n".join(wrep.failures())
    assert time.perf_counter() - t0 < 5.0


def _random_params(rng, C, K):
    if K is QQ:
        a = C.from_scalar(rational(rng, nonzero=True))
        b = C.from_scalar(rational(rng))
        g = C.from_scalar(rational(rng))
    else:
        q = K.characteristic()
        a = C.from_scalar(K.from_int(rng.randint(1, q - 1)))
        b = C.from_scalar(K.from_int(rng.randint(0, q - 1)))
        g = C.from_scalar(K.from_int(rng.randint(0, q - 1)))
    return AbgParams(C, a, b, g)


def test_criterion_8_functoriality_sweep():
    """criterion 8: 50 push-forwards verify, det maps along, witnesses transport"""
    rng = random.Random(47)
    t0 = time.perf_counter()
    graded = base_ring(QQ).add_free("x", grade=1)
    flat_bases = [(base_ring(QQ), QQ), (base_ring(F5), F5),
                  (base_ring(QQ).add_free("u"), QQ),
                  (base_ring(F7).add_laurent("z"), F7)]
    kinds_seen = set()
    for step_idx in range(50):
        kind = ("include", "at0", "at1", "root", "grading", "subst")[step_idx % 6]
        kinds_seen.add(kind)
        if kind == "grading":
            C, K = graded, QQ
            x = C.gen("x")
            p = AbgParams(C, C.from_scalar(rational(rng, nonzero=True)),
                          x * C.from_scalar(rational(rng)),
                          x * C.from_scalar(rational(rng)))
        else:
            # substitution images must stay units on laurent generators,
            # so that kind draws from the polynomial and field bases only
            pool = 3 if kind == "subst" else len(flat_bases)
            C, K = flat_bases[rng.randrange(pool)]
            p = _random_params(rng, C, K)
            if C.gens and rng.random() < 0.5:
                v = C.gen(C.gens[0].name)
                p = AbgParams(C, p.alpha, p.beta * v, p.gamma)
        A = abg_bundle(p) if rng.random() < 0.8 else trivial_bundle(C, sweedler_h4(K))
        if kind == "include":
            f = extend_with_t(C).include
        elif kind in ("at0", "at1"):
            interval = extend_with_t(C)
            A = push_forward(interval.include, A)
            C = interval.ring
            f = interval.at_zero if kind == "at0" else interval.at_one
        elif kind == "root":
            n = rng.choice((2, 3))
            unit = next(u for u in (C.from_int(c) for c in (2, 3, 5))
                        if C.is_unit(u))
            ext, f, _ = adjoin_root(C, unit, n, "r")
        elif kind == "grading":
            interval = extend_with_t(C)
            f = BaseMorphism(C, interval.ring,
                             {"x": interval.t * interval.include(C.gen("x"))})
        else:
            target = base_ring(K).add_free("v")
            v = target.gen("v")
            images = {g.name: v * v + target.one() for g in C.gens}
            f = BaseMorphism(C, target, images)

        B = push_forward(f, A)
        rep = verify_bundle(B)
        assert rep.ok, (kind, "\n".join(rep.failures()))
        assert is_galois(B).det == f(is_galois(A).det)

        w = grading_witness(A) if kind == "grading" and A.base is graded \
            else reflexive_witness(A)
        moved = transport_witness(f, w)
        wrep = verify_witness(moved)
        assert wrep.ok, (kind, "\n".join(wrep.failures()))
        if kind == "subst" and K is QQ and not C.gens:
            link, _ = cleft_trivialization_witness(p).links[0]
            moved_link = transport_witness(f, link)
            assert verify_witness(moved_link).ok
    assert kinds_seen == {"include", "at0", "at1", "root", "grading", "subst"}
    assert time.perf_counter() - t0 < 30.0


def test_criterion_9_negative_controls(tmp_path):
    """criterion 9: four corrupted inputs rejected, each with exit code 1"""
    C = base_ring(QQ)
    p = AbgParams(C, 3, 5, 7)
    A = abg_bundle(p)
    doc = Document(
        QQ,
        hopf_algebras={"H4": sweedler_h4(QQ)},
        bundles={"A": A},
        cleavings={"dead": HModuleMap(A, ({}, {}, {}, {}))},
        witnesses={"w": cleft_trivialization_witness(p).links[0][0]},
    )
    data = json.loads(dump_document(doc))

    def write(mutate, name):
        local = json.loads(json.dumps(data))
        mutate(local)
        path = tmp_path / name
        path.write_text(json.dumps(local))
        return str(path)

    # altered antipode
    def bad_antipode(d):
        rows = {k: v for k, v in d["hopf_algebras"]["H4"]["antipode"]}
        rows["Y"] = {"XY": "-1"}
        d["hopf_algebras"]["H4"]["antipode"] = sorted(rows.items())
    path = write(bad_antipode, "antipode.json")
    assert main(["verify-hopf", path, "H4"]) == 1

    # non-invertible cleaving: zero map is a comodule morphism, never invertible
    with pytest.raises(NotInvertibleError):
        check_cleaving(A, HModuleMap(A, ({}, {}, {}, {})))
    assert main(["cleft", "check", str(tmp_path / "base.json"), "dead"]) == 2
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(data))
    assert main(["cleft", "check", str(base_path), "dead"]) == 1

    # non-associative sigma rejected at construction, and its product at the CLI
    sigma = extract_cocycle(check_cleaving(A, abg_cleaving(A).gamma))
    table = [list(row) for row in sigma.sigma]
    table[1][2] = table[1][2] + C.one()
    broken = Cocycle(sigma.base, sigma.hopf, tuple(tuple(r) for r in table))
    with pytest.raises(NotAssociativeError):
        twisted_product(C, A.hopf, broken)

    def bad_mult(d):
        rows = {(a, b): vec for a, b, vec in d["bundles"]["A"]["mult"]}
        rows[("x", "y")] = {"1": "1", "xy": "1"}
        d["bundles"]["A"]["mult"] = [[a, b, vec] for (a, b), vec in rows.items()]
    path = write(bad_mult, "mult.json")
    assert main(["verify-bundle", path, "A"]) == 1

    # corrupted witness isos
    def bad_iso(d):
        d["witnesses"]["w"]["iso_one"][1][1] = "2*s"
    path = write(bad_iso, "witness.json")
    assert main(["witness", "verify", path]) == 1
