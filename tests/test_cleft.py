"""Cleaving maps, cocycle extraction, twisted and crossed products.

Hand-derived facts frozen below:

* with sigma(X,X) = sigma(X,Y) = 1 and all else as in the untwisted case,
  the candidate product satisfies x*y = xy-elem + 1, x*x = 1, and the
  triple (x, x, y) separates (x*x)*y = y from x*(x*y) = y + x;
* on the rank-4 group algebra k[a,b : a^2 = b^2 = 1] coacted by the order-2
  group algebra through a alone, gamma(g) = 2a + ab is a comodule map with
  (2a + ab)^2 = 5 + 4b invertible, but 5 + 4b is not a scalar multiple of
  the unit, so cocycle extraction must refuse.
"""

import contextlib
import importlib
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal import axioms
from hopfgal.bundles import AbgParams, abg_bundle, abg_cleaving
from hopfgal.cleft import (
    CleavingMap,
    Cocycle,
    central_coefficient,
    check_cleaving,
    cleaving_of_twisted_product,
    crossed_product,
    extract_cocycle,
    push_cocycle,
    quasi_action,
    trivial_action,
    trivial_cocycle,
    twisted_product,
)
from hopfgal.comod import ComoduleAlgebra, HModuleMap, push_forward, trivial_bundle
from hopfgal.document import load_document
from hopfgal.errors import (
    BadNormalizationError,
    NonCentralDatumError,
    NotAssociativeError,
    NotComoduleMapError,
    NotInvertibleError,
)
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import NOT_BIJECTIVE, is_galois, verify_bundle
from hopfgal.hopf import cyclic_group_algebra, sweedler_h4
from hopfgal.rings import BaseMorphism, base_ring, laurent_ring, polynomial_ring
import reference_axioms as ref
from reference_axioms import crossed_multiply, dense, elements

H4 = sweedler_h4(QQ)
C2 = cyclic_group_algebra(2, QQ)
RINGS = [R for K in (QQ, PrimeField(7))
         for R in (polynomial_ring(K, "u"), laurent_ring(K, "u"), laurent_ring(K, "u").add_free("v"))]
SEED0 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "seed0"


def test_trivial_cleaving_and_cocycle():
    C = base_ring(QQ)
    A = trivial_bundle(C, H4)
    cm = cleaving_of_twisted_product(A)
    assert cm.verify().ok
    assert extract_cocycle(cm) == trivial_cocycle(C, H4)


def test_check_cleaving_rejects_non_comodule_map():
    C = base_ring(QQ)
    A = trivial_bundle(C, H4)
    # sending X to the Y coordinate breaks equivariance
    gamma = HModuleMap(A, ({0: C.one()}, {2: C.one()}, {2: C.one()}, {3: C.one()}))
    with pytest.raises(NotComoduleMapError):
        check_cleaving(A, gamma)


def test_check_cleaving_rejects_non_invertible():
    C = base_ring(QQ)
    A = trivial_bundle(C, H4)
    # gamma built from the functional u(1) = 1, u = 0 elsewhere: a genuine
    # comodule map with gamma(X) = 0, so no convolution inverse exists
    gamma = HModuleMap(A, ({0: C.one()}, {}, {2: C.one()}, {}))
    with pytest.raises(NotInvertibleError):
        check_cleaving(A, gamma)


def test_untwisted_product_is_trivial_bundle():
    for C in (base_ring(QQ), polynomial_ring(QQ, "u")):
        assert twisted_product(C, H4, trivial_cocycle(C, H4)) == trivial_bundle(C, H4)


def test_twisted_product_square_root_bundle():
    # sigma(g, g) = u over the Laurent base builds the Kummer-type rank-2
    # bundle; over the polynomial base the same product exists but is not
    # Galois since u is not invertible there
    for make, galois_expected in ((laurent_ring, True), (polynomial_ring, False)):
        C = make(QQ, "u")
        u = C.gen("u")
        sigma = Cocycle(C, C2, ((C.one(), C.one()), (C.one(), u)))
        A = twisted_product(C, C2, sigma)
        assert elements(C, A.mul_vec(A.basis_vec(1), A.basis_vec(1))) == {0: u}
        v = is_galois(A)
        assert v.ok == galois_expected
        if not galois_expected:
            assert v.status == NOT_BIJECTIVE


def test_twisted_product_round_trip_through_cocycle():
    C = laurent_ring(QQ, "u")
    u = C.gen("u")
    sigma = Cocycle(C, C2, ((C.one(), C.one()), (C.one(), u * u * 3)))
    A = twisted_product(C, C2, sigma)
    cm = cleaving_of_twisted_product(A)
    assert extract_cocycle(cm) == sigma
    assert verify_bundle(A).ok


def test_bad_normalization_rejected():
    C = base_ring(QQ)
    t = [list(row) for row in trivial_cocycle(C, H4).sigma]
    t[0][2] = C.one()  # sigma(1, Y) must be counit(Y) = 0
    with pytest.raises(BadNormalizationError):
        twisted_product(C, H4, Cocycle(C, H4, tuple(tuple(r) for r in t)))


def test_non_associative_cocycle_rejected():
    C = base_ring(QQ)
    t = [list(row) for row in trivial_cocycle(C, H4).sigma]
    t[1][2] = C.one()  # sigma(X, Y) = 1 on top of sigma(X, X) = 1
    with pytest.raises(NotAssociativeError):
        twisted_product(C, H4, Cocycle(C, H4, tuple(tuple(r) for r in t)))


def test_quasi_action_is_trivial_on_bundles():
    C = laurent_ring(QQ, "u")
    u = C.gen("u")
    sigma = Cocycle(C, C2, ((C.one(), C.one()), (C.one(), u)))
    cm = cleaving_of_twisted_product(twisted_product(C, C2, sigma))
    A = cm.algebra
    for k in range(2):
        eps = C2.counit.get(k, QQ.zero())
        for c in (C.one(), u, u * u + 5):
            got = quasi_action(cm, c)[k]
            want = {i: C.from_scalar(eps) * c * w for i, w in elements(C, A.unit).items()}
            want = {i: v for i, v in want.items() if not v.is_zero}
            assert elements(C, got) == want


def test_extract_cocycle_refuses_oversized_coinvariants():
    # k[a, b] with a^2 = b^2 = 1, ab = ba, coaction reading only a
    C = base_ring(QQ)
    one = C.one()
    idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    mult = {}
    for (i, j), p in idx.items():
        for (k, l), q in idx.items():
            mult[(p, q)] = {idx[((i + k) % 2, (j + l) % 2)]: one}
    coaction = {p: {(p, i): one} for (i, j), p in idx.items()}
    A = ComoduleAlgebra(C, C2, ("1", "a", "b", "ab"), mult, {0: one}, coaction)
    two = C.from_int(2)
    gamma = HModuleMap(A, ({0: one}, {1: two, 3: one}))
    cm = check_cleaving(A, gamma)
    sq = A.mul_vec(gamma.values[1], gamma.values[1])
    assert elements(C, sq) == {0: C.from_int(5), 2: C.from_int(4)}
    assert central_coefficient(A, sq) is None
    with pytest.raises(NonCentralDatumError):
        extract_cocycle(cm)


def test_crossed_multiply_trivial_action_matches_twisted():
    C = polynomial_ring(QQ, "u")
    act = trivial_action(C, H4)
    sigma = trivial_cocycle(C, H4)
    T = twisted_product(C, H4, sigma)
    for i in range(4):
        for j in range(4):
            got = crossed_multiply(C, H4, act, sigma,
                                   (C.one(), {i: QQ.one()}), (C.one(), {j: QQ.one()}))
            assert got == elements(C, T.mul_vec(T.basis_vec(i), T.basis_vec(j)))


def test_crossed_multiply_sign_action_smash_product():
    # genuine order-2 action u -> -u; smash product stays associative
    C = polynomial_ring(QQ, "u")
    u = C.gen("u")
    flip = BaseMorphism(C, C, {"u": -u})

    def act(k, c):
        return c if k == 0 else flip(c)

    sigma = trivial_cocycle(C, C2)
    got = crossed_multiply(C, C2, act, sigma, (C.one(), {1: QQ.one()}), (u, {0: QQ.one()}))
    assert got == {1: -u}

    def mul(X, Y):
        out = {}
        for lx, cx in X.items():
            for ly, cy in Y.items():
                for l, c in crossed_multiply(C, C2, act, sigma,
                                             (cx, {lx: QQ.one()}), (cy, {ly: QQ.one()})).items():
                    s = out.get(l, C.zero()) + c
                    if s.is_zero:
                        out.pop(l, None)
                    else:
                        out[l] = s
        return out

    samples = [{0: C.one()}, {1: u}, {0: u * u, 1: C.from_int(3)}, {1: u + 1}]
    for X in samples:
        for Y in samples:
            for Z in samples:
                assert mul(mul(X, Y), Z) == mul(X, mul(Y, Z))


def test_crossed_product_requires_trivial_action():
    C = polynomial_ring(QQ, "u")
    u = C.gen("u")
    flip = BaseMorphism(C, C, {"u": -u})

    def act(k, c):
        return c if k == 0 else flip(c)

    with pytest.raises(NonCentralDatumError):
        crossed_product(C, C2, act, trivial_cocycle(C, C2))
    T = crossed_product(C, C2, trivial_action(C, C2), trivial_cocycle(C, C2))
    assert T == trivial_bundle(C, C2)


def test_push_forward_commutes_with_twisting():
    C = laurent_ring(QQ, "u")
    u = C.gen("u")
    f = BaseMorphism(C, C, {"u": u * u * 5})
    sigma = Cocycle(C, C2, ((C.one(), C.one()), (C.one(), u * 7)))
    left = push_forward(f, twisted_product(C, C2, sigma))
    right = twisted_product(C, C2, push_cocycle(f, sigma))
    assert left == right


def test_a_cleaving_and_its_cocycle_build_no_ring_ops(monkeypatch):
    """A bundle record builds its coefficient operations once, and the maps
    into it use them: certifying the stored cleaving of the ABG bundle over
    Q[u,v,w] and extracting its cocycle builds no Ops, not even for the
    convolution solve."""
    g = load_document(str(SEED0 / "bundle-towers" / "abg_uvw.json")).cleavings["g"]
    built = []
    ring_ops = axioms.ring_ops

    def counting(C):
        built.append(C)
        return ring_ops(C)
    for info in pkgutil.iter_modules(hopfgal.__path__):
        module = importlib.import_module(f"hopfgal.{info.name}")
        if getattr(module, "ring_ops", None) is ring_ops:
            monkeypatch.setattr(module, "ring_ops", counting)
    extract_cocycle(check_cleaving(g.algebra, g))
    assert built == []


def test_a_second_check_of_a_cleaving_tests_no_unit_again(monkeypatch):
    """The convolution solve tests its entries for units through the
    bundle's own memoized Ops: checking the stored ABG cleaving over
    Q[u,v,w] a second time calls no try_inverse."""
    g = load_document(str(SEED0 / "bundle-towers" / "abg_uvw.json")).cleavings["g"]
    C, calls = g.algebra.base, []
    try_inverse = type(C).try_inverse

    def counting(ring, a):
        calls.append(a)
        return try_inverse(ring, a)
    monkeypatch.setattr(type(C), "try_inverse", counting)
    first = check_cleaving(g.algebra, g)
    assert calls
    calls.clear()
    assert check_cleaving(g.algebra, g) == first
    assert calls == []


def _scalar(draw, K, nonzero=False):
    n = draw(st.integers(-3, 3).filter(lambda n: n or not nonzero))
    return K.div(K.from_int(n), K.from_int(draw(st.integers(1, 3))))


def _element(draw, R):
    out = R.zero()
    for _ in range(draw(st.integers(0, 3))):
        out = out + R.monomial({g.name: draw(st.integers(-2 if g.kind == "laurent" else 0, 2))
                                for g in R.gens}, _scalar(draw, R.field))
    return out


def _unit(draw, R):
    """A nonzero scalar times a Laurent monomial: the units of these rings."""
    return R.monomial({g.name: draw(st.integers(-2, 2)) for g in R.gens if g.kind == "laurent"},
                      _scalar(draw, R.field, nonzero=True))


def _abg_cleaving(draw, R):
    return abg_cleaving(abg_bundle(AbgParams(R, _unit(draw, R), _element(draw, R),
                                             _element(draw, R))))


def _sums_match_their_formulas(cm, c) -> Cocycle:
    """quasi_action on 1, the generators and c, extract_cocycle, and
    twisted_product of that cocycle, each equal to the reference formula."""
    A = cm.algebra
    C, H, n = A.base, A.hopf, A.dim
    for x in (C.one(), *(C.gen(g.name) for g in C.gens), c):
        assert [dense(C, v, n) for v in quasi_action(cm, x)] == ref.quasi_action(cm, x)
    sigma = extract_cocycle(cm)
    one = dense(C, A.unit, n)
    assert [[[s * u for u in one] for s in row] for row in sigma.sigma] == ref.cocycle_values(cm)
    T = twisted_product(C, H, sigma)
    want = ref.twisted_table(H, sigma)
    assert {ab: dense(C, T.mult.get(ab, {}), H.dim) for ab in want} == want
    return sigma


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cleft_sums_match_their_formulas_on_abg(data):
    """The rank-4 family over Q and F7 base rings, alpha a unit."""
    R = data.draw(st.sampled_from(RINGS))
    _sums_match_their_formulas(_abg_cleaving(data.draw, R), _element(data.draw, R))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cleft_sums_match_their_formulas_on_twisted_products(data):
    """Twisted products of C2, sigma(g, g) a unit, and of H4, sigma the
    cocycle of a rank-4 bundle; each cleaving gives its sigma back."""
    draw = data.draw
    R = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        H = cyclic_group_algebra(2, R.field)
        sigma = Cocycle(R, H, ((R.one(), R.one()), (R.one(), _unit(draw, R))))
    else:
        H = sweedler_h4(R.field)
        sigma = extract_cocycle(_abg_cleaving(draw, R))
    T = twisted_product(R, H, sigma)
    want = ref.twisted_table(H, sigma)
    assert {ab: dense(R, T.mult.get(ab, {}), H.dim) for ab in want} == want
    cm = cleaving_of_twisted_product(T)
    assert _sums_match_their_formulas(cm, _element(draw, R)) == sigma


# --------------------------------------------------------------------------
# the cleaving's comodule-map witness against a brute-force check
# --------------------------------------------------------------------------

def _certified_cleavings():
    """The cleaving maps the library certifies on the ABG bundle over Q, on
    the stored one over Q[u,v,w] and on a twisted product of H4 over
    Q[u^+-1] by the cocycle of an ABG bundle there."""
    Q, L = base_ring(QQ), laurent_ring(QQ, "u")
    u = L.gen("u")
    sigma = extract_cocycle(abg_cleaving(abg_bundle(AbgParams(L, u, L.from_int(2), u))))
    return [abg_cleaving(abg_bundle(AbgParams(Q, 3, 5, 7))).gamma,
            load_document(str(SEED0 / "bundle-towers" / "abg_uvw.json")).cleavings["g"],
            cleaving_of_twisted_product(twisted_product(L, H4, sigma)).gamma]


CLEAVINGS = _certified_cleavings()


def _first_not_intertwined(gamma):
    """The first k with rho(gamma(h_k)) != (gamma (x) id) Delta(h_k), or
    None: both sides formed on BaseElements through the reference coaction
    and comultiplication."""
    A = gamma.algebra
    C, H = A.base, A.hopf
    for k in range(H.dim):
        rhs = {}
        for (a, b), s in ref._h_comult_vec(H, {k: H.field.one()}).items():
            for l, c in elements(C, gamma.values[a]).items():
                ref._vadd(rhs, (l, b), c * C.from_scalar(s))
        if ref._a_coact_vec(A, elements(C, gamma.values[k])) != rhs:
            return k
    return None


@pytest.mark.parametrize("gamma", CLEAVINGS, ids=["abg-Q", "abg-Q[u,v,w]", "twisted"])
def test_a_certified_cleaving_is_a_comodule_map(gamma):
    assert _first_not_intertwined(gamma) is None
    assert check_cleaving(gamma.algebra, gamma).verify().ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_corrupted_cleaving_fails_where_a_brute_force_check_does(data):
    """One coordinate of one value changed, added or zeroed: check_cleaving
    names the first h_k that the brute-force check finds, and when that
    finds none the map passes as a comodule map."""
    gamma = data.draw(st.sampled_from(CLEAVINGS))
    A = gamma.algebra
    values = list(gamma.values)
    k, i = data.draw(st.integers(0, A.hopf.dim - 1)), data.draw(st.integers(0, A.dim - 1))
    values[k] = {**values[k], i: _element(data.draw, A.base).coeffs}
    bad = HModuleMap(A, tuple(values))
    want = _first_not_intertwined(bad)
    if want is None:
        with contextlib.suppress(NotInvertibleError):
            check_cleaving(A, bad)
    else:
        with pytest.raises(NotComoduleMapError, match=f" on {re.escape(A.hopf.labels[want])}$"):
            check_cleaving(A, bad)
