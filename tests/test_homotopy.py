"""Equivalence witnesses: construction, verification, and transport.

The straight-line family (1, t*b, t*g) interpolates between the untwisted
bundle at 0 and the rescaled one at 1, so a single reversed link carries a
four-parameter bundle down to (1, 0, 0); the tests pin that shape and then
try to break the verifier with tampered matrices, swapped endpoints, and
inadmissible steps.  Morphism homotopies are exercised on the polynomial
ring with the contraction path x -> t*x.
"""

import json
import random
from pathlib import Path

import pytest

from hopfgal import homotopy, rings
from hopfgal.bundles import AbgParams, abg_bundle, kummer_root_data
from hopfgal.comod import check_iso, push_forward, trivial_bundle
from hopfgal.errors import (
    BaseMismatchError,
    CharTwoError,
    MathError,
    NotCommutativeError,
    NotEtaleInclusionError,
)
from hopfgal.document import Document, dump_document, parse_document
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.homotopy import (
    EtaleStep,
    HomotopyWitness,
    WitnessChain,
    cleft_trivialization_witness,
    compose_steps,
    etale_trivialization_witness,
    grading_witness,
    identity_matrix,
    identity_step,
    kummer_trivialization_witness,
    morphism_homotopy_witness,
    reflexive_witness,
    root_step,
    transport_step,
    transport_witness,
    verify_chain,
    verify_morphism_homotopy,
    verify_step,
    verify_witness,
)
from hopfgal.hopf import sweedler_h4
from hopfgal.rings import (
    FREE,
    ROOT,
    BaseMorphism,
    BaseRing,
    Generator,
    base_ring,
    extend_with_t,
    identity_morphism,
    inclusion_morphism,
    laurent_ring,
    polynomial_ring,
)

Q = base_ring(QQ)


def qp(a, b, g):
    return AbgParams(Q, a, b, g)


def untwisted(C):
    return abg_bundle(AbgParams(C, C.one(), C.zero(), C.zero()))


def forged_towers():
    """Inclusions into towers that are not etale over their source: a free
    generator past it, a square root of the non-unit u, a cube root over F3,
    and a square root whose value names the root itself (r^2 = 2r - 1, so
    r - 1 is nilpotent, while the value read below r is -1)."""
    Cu = polynomial_ring(QQ, "u")
    F3 = PrimeField(3)
    C3 = base_ring(F3)
    towers = (
        (Q, BaseRing(QQ, (Generator("x", FREE),), (None,))),
        (Cu, BaseRing(QQ, (Generator("u", FREE), Generator("r", ROOT, degree=2)),
                      (None, {(1, 0): QQ.one()}))),
        (C3, BaseRing(F3, (Generator("r", ROOT, degree=3),), ({(0,): F3.from_int(2)},))),
        (Q, BaseRing(QQ, (Generator("r", ROOT, degree=2),),
                     ({(1,): QQ.from_int(2), (0,): QQ.from_int(-1)},))))
    for C, T in towers:
        yield inclusion_morphism(C, T)


def test_steps_replay_and_reject_forgeries():
    assert verify_step(identity_step(Q))
    step, s = root_step(Q, Q.from_scalar(QQ.from_int(3)), 2, "s")
    assert verify_step(step)
    assert s * s == step.morphism(Q.from_scalar(QQ.from_int(3)))
    # towers compose; the second root lives over the first extension
    top, u = root_step(step.target, s, 3, "c")
    tower = compose_steps(step, top)
    assert verify_step(tower)
    assert len(tower.recipe) == 2
    # a step is printed as an identity only when its target is its source
    assert repr(identity_step(Q)) == "<identity step on Q>"
    assert repr(tower) == "<step adjoining s^2 = 3, c^3 = s>"
    # towers that are not etale over their source, and a morphism that is
    # not the inclusion of its target's tower, are refused as steps
    Cu = polynomial_ring(QQ, "u")
    u = Cu.gen("u")
    twist = BaseMorphism(Cu, Cu, {"u": u * u})
    for forged in (*forged_towers(), twist):
        with pytest.raises(NotEtaleInclusionError) as exc:
            EtaleStep(forged)
        assert str(exc.value) == "step is not a tower of root adjunctions over its source"


def test_a_step_is_checked_on_its_own_target(monkeypatch):
    """verify_step reads a step's premises on its target and builds no
    tower: with ``adjoin_root`` refused, every step the library builds and
    every step of seed-0 kummer.json still passes, as a step and rebuilt
    from its inclusion, and the forged towers are still refused."""
    three = Q.from_scalar(QQ.from_int(3))
    step, s = root_step(Q, three, 2, "s")
    top, _ = root_step(step.target, s, 3, "c")
    Cu = polynomial_ring(QQ, "u")
    steps = [identity_step(Q), step, compose_steps(step, top),
             transport_step(step, BaseMorphism(Q, polynomial_ring(QQ, "s"), {}))[0],
             transport_step(step, BaseMorphism(Q, Cu, {}))[0],
             cleft_trivialization_witness(qp(3, 5, 7)).links[0][0].step,
             kummer_trivialization_witness(2, QQ.from_int(-1), QQ)[1].step,
             grading_witness(untwisted(polynomial_ring(QQ, "x", grades=[1]))).step]
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "seed0"
    doc = parse_document((path / "bundle-towers" / "kummer.json").read_text(encoding="utf-8"))
    steps += [w.step for w in doc.witnesses.values()]
    forged = list(forged_towers())

    def refused(*args, **kwargs):
        raise AssertionError("verify_step built a tower")
    monkeypatch.setattr(rings, "adjoin_root", refused)
    monkeypatch.setattr(homotopy, "adjoin_root", refused)
    for each in steps:
        assert verify_step(each) and EtaleStep(each.morphism) == each
    for f in forged:
        with pytest.raises(NotEtaleInclusionError):
            EtaleStep(f)


def test_a_recipe_is_the_adjunctions_that_built_the_step():
    three = Q.from_scalar(QQ.from_int(3))
    assert identity_step(Q).recipe == ()
    step, s = root_step(Q, three, 2, "s")
    assert step.recipe == ((three, 2, "s"),)
    top, _ = root_step(step.target, s, 3, "c")
    assert compose_steps(step, top).recipe == ((three, 2, "s"), (s, 3, "c"))
    Cs = polynomial_ring(QQ, "s")
    moved, _ = transport_step(step, BaseMorphism(Q, Cs, {}))
    assert moved.recipe == ((Cs.from_scalar(QQ.from_int(3)), 2, "s2"),)
    w = cleft_trivialization_witness(qp(3, 5, 7)).links[0][0]
    assert w.step.recipe == ((three, 2, "s"),)
    A, wk = kummer_trivialization_witness(2, QQ.from_int(-1), QQ)
    assert wk.step.recipe == ((A.base.gen("z"), 2, "w"),)
    raw = json.loads(dump_document(Document(QQ, witnesses={"w": wk})))
    assert raw["witnesses"]["w"]["step"]["adjunctions"] == [
        {"name": "w", "degree": 2, "value": "z"}]
    parsed = parse_document(json.dumps(raw)).witnesses["w"].step
    assert parsed.recipe == ((parsed.source.gen("z"), 2, "w"),)


def test_reflexive_witness():
    A = abg_bundle(qp(3, 5, 7))
    w = reflexive_witness(A)
    assert w.step.recipe == ()
    assert w.at_zero == A and w.at_one == A
    assert verify_witness(w).ok


def test_trivialization_chain_over_rationals():
    p = qp(3, 5, 7)
    chain = cleft_trivialization_witness(p)
    assert len(chain) == 1
    assert chain.start == abg_bundle(p)
    assert chain.end == untwisted(Q)
    rep = verify_chain(chain, start=abg_bundle(p), end=untwisted(Q))
    assert rep.ok, list(rep.failures())
    # the extension adjoined exactly one square root of alpha
    (w, forward), = chain.links
    assert not forward
    assert [e[1] for e in w.step.recipe] == [2]
    s = w.step.target.gen(w.step.recipe[0][2])
    assert s * s == w.step.morphism(Q.from_scalar(QQ.from_int(3)))


def test_endpoint_identifies_with_product_bundle():
    # (1, 0, 0) and the product bundle have identical structure constants
    H = sweedler_h4(QQ)
    rep = check_iso(untwisted(Q), trivial_bundle(Q, H), identity_matrix(Q, 4))
    assert rep.ok


def test_chain_when_leading_parameter_is_one():
    p = qp(1, 5, 3)
    chain = cleft_trivialization_witness(p)
    (w, _), = chain.links
    assert w.step.recipe == () and w.step.target == Q
    assert verify_chain(chain, start=abg_bundle(p), end=untwisted(Q)).ok


def test_chain_over_polynomial_and_laurent_bases():
    Cu = polynomial_ring(QQ, "u")
    u = Cu.gen("u")
    p = AbgParams(Cu, Cu.from_scalar(QQ.from_int(4)), u, u * u)
    rep = verify_chain(cleft_trivialization_witness(p),
                       start=abg_bundle(p), end=untwisted(Cu))
    assert rep.ok, list(rep.failures())
    # adjoining a square root of the coordinate itself
    Cz = laurent_ring(QQ, "z")
    z = Cz.gen("z")
    p2 = AbgParams(Cz, z, Cz.zero(), z)
    assert verify_chain(cleft_trivialization_witness(p2)).ok


def test_chain_characteristic_two_rejected():
    C2 = base_ring(PrimeField(2))
    with pytest.raises(CharTwoError):
        cleft_trivialization_witness(AbgParams(C2, C2.one(), C2.one(), C2.zero()))


def test_chain_reverse_and_concatenate():
    chain = cleft_trivialization_witness(qp(4, 1, 4))
    rev = chain.reverse()
    assert rev.start == chain.end and rev.end == chain.start
    assert verify_chain(rev).ok
    loop = chain.then(rev)
    assert len(loop) == 2 and loop.start == loop.end == chain.start
    with pytest.raises(BaseMismatchError):
        chain.then(chain)


def test_verifier_rejects_tampering():
    chain = cleft_trivialization_witness(qp(3, 5, 7))
    w = chain.links[0][0]
    two = w.step.target.from_scalar(QQ.from_int(2))
    bad = tuple(tuple(e * two for e in row) if i == 1 else row
                for i, row in enumerate(w.iso_one))
    forged = HomotopyWitness(w.step, w.family, w.at_zero, w.at_one, w.iso_zero, bad)
    rep = verify_witness(forged)
    assert not rep.ok
    assert any("fibre at 1" in f for f in rep.failures())

    def claiming(at_zero):
        return HomotopyWitness(w.step, w.family, at_zero, w.at_one, w.iso_zero, w.iso_one)
    # a witness claiming to connect a bundle it does not connect
    assert not verify_witness(claiming(abg_bundle(qp(3, 5, 7)))).ok
    # endpoint over an alien base is refused outright
    Cu = polynomial_ring(QQ, "u")
    with pytest.raises(BaseMismatchError):
        verify_witness(claiming(untwisted(Cu)))


def test_morphism_homotopy_contraction_path():
    Cx = polynomial_ring(QQ, "x")
    f = BaseMorphism(Cx, Cx, {"x": Cx.zero()})
    g = identity_morphism(Cx)
    iv = extend_with_t(Cx)
    path = BaseMorphism(Cx, iv.ring, {"x": iv.t * iv.ring.gen("x")})
    assert verify_morphism_homotopy(f, g, identity_step(Cx), path).ok
    # a path ending at t*t lands on the constant 1, not on x
    stray = BaseMorphism(Cx, iv.ring, {"x": iv.t * iv.t})
    rep = verify_morphism_homotopy(f, g, identity_step(Cx), stray)
    fails = list(rep.failures())
    assert fails == ["morphism homotopy: endpoint 1 on x "
                     "[path does not end at the second morphism]"]
    with pytest.raises(MathError):
        morphism_homotopy_witness(f, g, identity_step(Cx), stray,
                                  abg_bundle(AbgParams(Cx, 1, Cx.gen("x"), 0)))


def test_morphism_homotopy_witness_bundle():
    Cx = polynomial_ring(QQ, "x")
    x = Cx.gen("x")
    A = abg_bundle(AbgParams(Cx, 1, x, 0))
    f = BaseMorphism(Cx, Cx, {"x": Cx.zero()})
    iv = extend_with_t(Cx)
    path = BaseMorphism(Cx, iv.ring, {"x": iv.t * iv.ring.gen("x")})
    w = morphism_homotopy_witness(f, identity_morphism(Cx),
                                  identity_step(Cx), path, A)
    assert w.at_one == A and w.at_zero == untwisted(Cx)
    assert verify_witness(w).ok


def test_grading_contracts_onto_degree_zero():
    Cg = polynomial_ring(QQ, "x", grades=(1,))
    x = Cg.gen("x")
    A = abg_bundle(AbgParams(Cg, 1, x, 0))
    w = grading_witness(A)
    assert w.step.recipe == ()
    assert w.at_one == A and w.at_zero == untwisted(Cg)
    assert verify_witness(w).ok
    # trivially graded base: the witness degenerates to the reflexive one
    B = abg_bundle(qp(3, 5, 7))
    wt = grading_witness(B)
    assert wt.at_zero == B and wt.at_one == B
    assert verify_witness(wt).ok


def test_etale_self_trivialization_of_kummer_bundles():
    A, w = kummer_trivialization_witness(2, QQ.from_int(-1), QQ)
    assert w.at_zero == A
    assert w.at_one == trivial_bundle(A.base, A.hopf)
    assert verify_witness(w).ok
    F7 = PrimeField(7)
    A3, w3 = kummer_trivialization_witness(3, F7.from_int(2), F7)
    rep = verify_witness(w3)
    assert rep.ok, list(rep.failures())


def test_etale_witness_guards():
    A, ext, incl, images = kummer_root_data(2, QQ.from_int(-1), QQ)
    step = EtaleStep(incl)
    # images that do not satisfy the bundle's multiplication table
    with pytest.raises(NotEtaleInclusionError):
        etale_trivialization_witness(A, step, [ext.one(), images[1] + ext.one()])
    # noncommutative total algebras are refused before anything else
    nc = abg_bundle(qp(1, 0, 1))
    with pytest.raises(NotCommutativeError):
        etale_trivialization_witness(nc, identity_step(Q), [Q.one()] * 4)


def test_transport_preserves_witnesses():
    chain = cleft_trivialization_witness(qp(3, 5, 7))
    w = chain.links[0][0]
    Cu = polynomial_ring(QQ, "u")
    w2 = transport_witness(BaseMorphism(Q, Cu, {}), w)
    assert w2.step.source == Cu
    assert w2.at_zero == untwisted(Cu)
    assert verify_witness(w2).ok
    # the replay renames the adjoined root when the new base already uses s
    Cs = polynomial_ring(QQ, "s")
    w3 = transport_witness(BaseMorphism(Q, Cs, {}), w)
    assert [g.name for g in w3.step.target.gens] == ["s", "s2"]
    assert verify_witness(w3).ok


def test_transport_substitutes_into_the_root_value():
    Cu = polynomial_ring(QQ, "u")
    u = Cu.gen("u")
    p = AbgParams(Cu, Cu.from_scalar(QQ.from_int(4)), u, Cu.zero())
    w = cleft_trivialization_witness(p).links[0][0]
    Cv = polynomial_ring(QQ, "v")
    v = Cv.gen("v")
    f = BaseMorphism(Cu, Cv, {"u": v * v + Cv.one()})
    step2, fbar = transport_step(w.step, f)
    assert verify_step(step2)
    # the transported tower adjoins a root of the substituted value
    assert step2.recipe[0][0] == Cv.from_scalar(QQ.from_int(4))
    w2 = transport_witness(f, w)
    assert w2.at_one == push_forward(f, w.at_one)
    assert verify_witness(w2).ok


def test_random_parameters_trivialize():
    rng = random.Random(23)
    for k, span in ((QQ, 9), (PrimeField(5), 4), (PrimeField(7), 6)):
        C = base_ring(k)
        target = untwisted(C)
        for _ in range(4):
            a = 0
            while C.from_scalar(k.from_int(a)) == C.zero():
                a = rng.randint(-span, span)
            p = AbgParams(C, a, rng.randint(-span, span), rng.randint(-span, span))
            rep = verify_chain(cleft_trivialization_witness(p),
                               start=abg_bundle(p), end=target)
            assert rep.ok, (repr(p), list(rep.failures()))


def test_a_kummer_witness_over_q_w_verifies_after_a_round_trip():
    """Over Q(w) the root the witness adjoins is named w2, not w: a ring
    generator named like a field variable shadows it when a printed value
    is read back, so the stored witness failed its endpoint at 0."""
    QW = SimpleExtension(QQ, "w", (QQ.one(), QQ.one(), QQ.one()))
    _, w = kummer_trivialization_witness(3, QW.gen(), QW)
    assert w.step.target.gens[-1].name == w.step.recipe[0][2] == "w2"
    again = parse_document(dump_document(Document(QW, witnesses={"w": w}))).witnesses["w"]
    assert again == w
    assert verify_witness(again).ok


def test_a_kummer_witness_over_q_z_verifies_after_a_round_trip():
    """Over Q(z) the bundle's Laurent generator is named z2: a ring
    generator may not take the name of a variable of its field."""
    QZ = SimpleExtension(QQ, "z", (QQ.one(), QQ.one(), QQ.one()))
    A, w = kummer_trivialization_witness(3, QZ.gen(), QZ)
    assert [g.name for g in A.base.gens] == ["z2"]
    again = parse_document(dump_document(Document(QZ, witnesses={"w": w}))).witnesses["w"]
    assert again == w
    assert verify_witness(again).ok
