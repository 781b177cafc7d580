"""Unit tests and inverses of root towers against oracles sharing no library code,
plus the certificates that must survive ``python -O`` and the hash contract."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal import linalg
from hopfgal.axioms import ring_ops
from hopfgal.fields import QQ, PrimeField
from hopfgal.rings import (
    BaseRing,
    adjoin_root,
    base_ring,
    laurent_ring,
    polynomial_ring,
)

import reference_units as ref

F5 = PrimeField(5)
F7 = PrimeField(7)


def _root_ring(field, c, n):
    k = base_ring(field)
    ring, _, _ = adjoin_root(k, k.from_int(c), n, name="r")
    return ring


# ------------------------------------------------------------ Q[r | r^n = c]

@settings(deadline=None, max_examples=80)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sampled_from((1, -1, 2, 3, 4, -4, 5, 8, 9, 16, -27)),
    st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
def test_root_inverse_matches_sympy_invert(case) -> None:
    n, c, coeffs = case
    ring = _root_ring(QQ, c, n)
    a = ring.element({(i,): Fraction(x) for i, x in enumerate(coeffs)})
    x = sympy.Symbol("x")
    try:
        expect = sympy.Poly(sympy.invert(sum(v * x ** i for i, v in enumerate(coeffs)),
                                         x ** n - c, x), x)
    except sympy.polys.polyerrors.NotInvertible:
        expect = None
    got = ring.try_inverse(a)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        want = {(i,): Fraction(int(v.p), int(v.q))
                for (i,), v in expect.terms() if v != 0}
        assert got.coeffs == want


# ------------------------------------------------------------ F5[r | r^n = u]

def _mul_mod(a, b, u, n, p):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            out[k % n] = (out[k % n] + x * y * (u if k >= n else 1)) % p
    return tuple(out)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("u", (1, 2, 3, 4))
def test_root_units_exhaustive_f5(n, u) -> None:
    ring = _root_ring(F5, u, n)
    elems = list(product(range(5), repeat=n))
    one = (1,) + (0,) * (n - 1)
    brute = {}
    for a in elems:
        for b in elems:
            if _mul_mod(a, b, u, n, 5) == one:
                brute[a] = b
                break
    for a in elems:
        inv = ring.try_inverse(ring.element({(i,): x for i, x in enumerate(a)}))
        if a not in brute:
            assert inv is None, a
        else:
            assert inv is not None, a
            assert inv.coeffs == {(i,): x for i, x in enumerate(brute[a]) if x}


# ------------------------------------------------------------ charpoly

@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_matches_sympy(rows) -> None:
    k = base_ring(QQ)
    M = [[{(): Fraction(x)} if x else {} for x in row] for row in rows]
    got = [Fraction(c.get((), 0)) for c in ref._charpoly_dicts(k, M)]
    expect = [Fraction(int(v.p), int(v.q)) for v in sympy.Matrix(rows).charpoly().all_coeffs()]
    assert got == expect


# ------------------------------------------------------------ Kummer towers

@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_kummer_tower_units(n) -> None:
    rng = random.Random(n)
    K = PrimeField(241)
    C = laurent_ring(K, "z")
    ring, _, r = adjoin_root(C, C.gen("z"), n, name="r")
    assert ring.try_inverse(ring.one() + r) is None
    for _ in range(30):
        a = ring.monomial({"z": rng.randint(-5, 5), "r": rng.randint(0, n - 1)},
                          rng.randint(1, 240))
        inv = ring.try_inverse(a)
        assert inv is not None and a * inv == ring.one()
        assert ring.try_inverse(inv) == a


# ------------------------------------------------------------ Laurent monomials

def _towers_with_roots():
    K = PrimeField(241)
    C = laurent_ring(K, "z")
    kummer, _, _ = adjoin_root(C, C.gen("z"), 8, name="r")
    L = laurent_ring(QQ, "y", "z")
    two_roots, _, s = adjoin_root(L, L.gen("y") * L.gen("z"), 2, name="s")
    two_roots, _, _ = adjoin_root(two_roots, s, 3, name="t")
    free = polynomial_ring(QQ, "x").add_laurent("z")
    split, _, _ = adjoin_root(free, free.from_int(4), 2, name="r")
    return [kummer, two_roots, split]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_towers_with_roots()), st.data())
def test_laurent_monomial_inverse_matches_the_charpoly_route(ring, data) -> None:
    """c m with m a monomial in the Laurent generators is inverted directly;
    the elimination route of the top root generator gives the same."""
    exps = tuple(data.draw(st.integers(-4, 4)) if g.kind == "laurent" else 0
                 for g in ring.gens)
    c = ring.field.from_int(data.draw(st.integers(1, 9)))
    d = {exps: c}
    inv = ring._try_inv_dict(d)
    assert inv == ring._root_try_inv(d) == {tuple(-e for e in exps): ring.field.inv(c)}
    assert ring.element(d) * ring.element(inv) == ring.one()


def test_only_laurent_monomials_skip_the_charpoly(monkeypatch) -> None:
    ring = _towers_with_roots()[0]  # F241[z^+-1, r | r^8 = z]
    calls = []
    route = type(ring)._root_try_inv

    def recording(self, d):
        calls.append(d)
        return route(self, d)
    monkeypatch.setattr(type(ring), "_root_try_inv", recording)
    z, r = ring.gen("z"), ring.gen("r")
    for a in (z, 5 * z ** -3, ring.from_int(7)):
        assert ring.try_inverse(a) is not None
    assert calls == []
    assert ring.try_inverse(3 * z * r) * (3 * z * r) == ring.one()
    assert ring.try_inverse(z + r) is None  # its norm is z^8 - z
    assert len(calls) == 2
    x = _towers_with_roots()[2].gen("x")
    assert x.ring.try_inverse(x) is None  # a free generator is no unit


# ------------------------------------------------------------ the elimination route

def _root_over(prefix, u, n):
    ring, _, _ = adjoin_root(prefix, u, n, name="r")
    return ring


@st.composite
def _under_a_root(draw):
    """(ring, coefficient dict): r^n = u with n in 2..6 over Q, F7, F7[z] or
    F7[z^+-1], u a constant, a Laurent monomial or 1 (a split root), and an
    element of up to four terms; often free of z or a single term, so that
    units and non-units both occur."""
    prefix = draw(st.sampled_from((base_ring(QQ), base_ring(F7), polynomial_ring(F7, "z"),
                                   laurent_ring(F7, "z"))))
    u = prefix.from_int(draw(st.sampled_from((1, 1, -1, 2, 3))))
    if prefix.gens and prefix.gens[0].kind == "laurent" and draw(st.booleans()):
        u = u * prefix.gen("z") ** draw(st.sampled_from((-2, -1, 1, 3)))
    n = draw(st.integers(2, 6))
    ring = _root_over(prefix, u, n)
    shape = draw(st.sampled_from(("any", "free of z", "one term")))
    lo = -2 if prefix.gens and prefix.gens[0].kind == "laurent" else 0
    zexp = st.just(0) if shape == "free of z" else st.integers(lo, 2)
    mono = st.tuples(*[zexp] * len(prefix.gens), st.integers(0, n - 1))
    terms = draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool), min_size=1,
                                 max_size=1 if shape == "one term" else 4))
    return ring, {m: ring.field.from_int(c) for m, c in terms.items()}


@settings(deadline=None, max_examples=300)
@given(_under_a_root())
def test_root_inverse_matches_the_cayley_hamilton_oracle(case) -> None:
    ring, d = case
    got = ring.try_inverse(ring.element(d))
    assert (None if got is None else got.coeffs) == ref.root_try_inv(ring, d)


def _by_root_power(ring, coeffs: dict) -> dict:
    """An element of the ring as {k: coefficient of r^k over the prefix}."""
    out = {}
    for mono, c in coeffs.items():
        out.setdefault(mono[-1], {})[mono[:-1]] = c
    return out


@settings(deadline=None, max_examples=200)
@given(_under_a_root())
def test_the_regular_representation_matches_the_root_oracles(case) -> None:
    """linalg.regular on the table of r^j r^k, formed by ring arithmetic:
    inv is the Cayley-Hamilton inverse and norm the Berkowitz determinant
    of the multiplication matrix, both from reference_units."""
    ring, d = case
    sub, n, r = ring.prefix(len(ring.gens) - 1), ring.gens[-1].degree, ring.gen("r")
    table = {(j, k): _by_root_power(ring, (r ** j * r ** k).coeffs)
             for j in range(n) for k in range(n)}
    algebra, norm = linalg.regular(ring_ops(sub), n, table, {0: sub.one().coeffs})
    x = _by_root_power(ring, d)
    want = ref.root_try_inv(ring, d)
    assert algebra.inv(x) == (None if want is None else _by_root_power(ring, want))
    assert algebra.is_unit(x) == (want is not None)
    assert norm(x) == ref.root_norm(ring, d)
    if want is not None:
        assert algebra.is_one(algebra.mul(x, algebra.inv(x)))


def _refuse_charpoly(ring, M):
    raise AssertionError("the charpoly was taken")


def test_rows_with_unit_entries_never_take_the_charpoly(monkeypatch) -> None:
    """1+r (r^64 = z over F7[z^+-1]), 3z r^5 and 2+s+3s^2 (s^64 = 3 over
    F7): every row of their multiplication matrix has a unit entry, so the
    kernel decides them by unit pivots alone."""
    L = laurent_ring(F7, "z")
    R = _root_over(L, L.gen("z"), 64)
    S = _root_over(base_ring(F7), base_ring(F7).from_int(3), 64)
    z, r, s = R.gen("z"), R.gen("r"), S.gen("r")
    cases = [(R, R.one() + r), (R, 3 * z * r ** 5), (S, 2 + s + 3 * s * s)]
    want = [ref.root_try_inv(ring, x.coeffs) for ring, x in cases]
    monkeypatch.setattr(linalg, "_charpoly", _refuse_charpoly)
    monkeypatch.setattr(linalg, "_berkowitz", _refuse_charpoly)
    got = [ring.try_inverse(x) for ring, x in cases]
    assert [None if y is None else y.coeffs for y in got] == want
    assert got[0] is None and got[1] is not None and got[2] is not None


# ------------------------------------------------------------ ring_ops

def _ops_rings():
    L = laurent_ring(PrimeField(7), "z")
    root, _, _ = adjoin_root(L, L.gen("z"), 3, name="r")
    return [polynomial_ring(QQ, "u"), L, root]


def _element(ring, data):
    """An element with at most three terms, often one (a unit, off the free
    generators)."""
    def exponent(g):
        return {"laurent": st.integers(-2, 2), "root": st.integers(0, g.degree - 1)}.get(
            g.kind, st.integers(0, 2))
    terms = data.draw(st.dictionaries(st.tuples(*map(exponent, ring.gens)),
                                      st.integers(-3, 3), max_size=3))
    return ring.element({m: ring.field.from_int(c) for m, c in terms.items()})


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_ops_rings()), st.data())
def test_ring_ops_agree_with_the_element_operators(ring, data) -> None:
    """Over Q[u], F7[z^+-1] and F7[z^+-1, r | r^3 = z], ring_ops works on
    coefficient dicts as the BaseElement operators and try_inverse do."""
    ops = ring_ops(ring)
    a, b = _element(ring, data), _element(ring, data)
    for x, y in ((a, b), (a, ring.one()), (ring.one(), b)):
        assert ops.add(x.coeffs, y.coeffs) == (x + y).coeffs
        assert ops.mul(x.coeffs, y.coeffs) == (x * y).coeffs
    assert ops.neg(a.coeffs) == (-a).coeffs
    assert ops.is_zero(a.coeffs) == a.is_zero
    assert ops.is_one(a.coeffs) == (a == ring.one())
    inv = ring.try_inverse(a)
    assert ops.inv(a.coeffs) == (None if inv is None else inv.coeffs)
    assert ops.is_unit(a.coeffs) == (inv is not None)


def test_ring_ops_inverse_is_memoized_and_certified(monkeypatch) -> None:
    ring = _ops_rings()[2]
    r, ops = ring.gen("r"), ring_ops(ring)
    want = ring.inverse(r).coeffs
    calls = []
    try_inverse = BaseRing.try_inverse

    def recording(self, a):
        if self is ring:  # not the prefix ring's unit tests inside the inverse
            calls.append(a)
        return try_inverse(self, a)
    monkeypatch.setattr(BaseRing, "try_inverse", recording)
    assert ops.inv(r.coeffs) == ops.inv(dict(r.coeffs)) == want
    assert len(calls) == 1
    # a wrong inverse fails try_inverse's a * a^-1 = 1 check
    monkeypatch.setattr(BaseRing, "_try_inv_dict", lambda self, d: {(0, 0): 5})
    with pytest.raises(RuntimeError):
        ring_ops(ring).inv(r.coeffs)


# ------------------------------------------------------------ certificates

_UNDER_O = """
import sys
from hopfgal.fields import QQ
from hopfgal.rings import BaseRing, adjoin_root, base_ring
from hopfgal.axioms import ring_ops
k = base_ring(QQ)
ring, _, r = adjoin_root(k, k.from_int(2), 3, name="r")
print("optimize", sys.flags.optimize)
BaseRing._try_inv_dict = lambda self, d: {(0,): QQ.from_int(5)}
for name, call, exc in (("inverse", lambda: ring.try_inverse(r), RuntimeError),
                        ("ops inverse", lambda: ring_ops(ring).inv(r.coeffs), RuntimeError),
                        ("pow", lambda: ring._pow(r.coeffs, -1), ValueError)):
    try:
        call()
    except exc:
        print(name, "raised")
    else:
        print(name, "passed")
"""


def test_certificates_survive_python_O() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, timeout=30, check=True).stdout
    assert out.split("\n")[:4] == ["optimize 1", "inverse raised", "ops inverse raised",
                                   "pow raised"]


# ------------------------------------------------------------ hashing

def test_equal_elements_from_separate_rings_hash_equal() -> None:
    a = polynomial_ring(QQ, "x").gen("x")
    b = polynomial_ring(QQ, "x").gen("x")
    assert a.ring is not b.ring and a == b
    assert len({a, b}) == 1


def _kummer(field):
    L = laurent_ring(field, "z")
    ring, _, _ = adjoin_root(L, L.gen("z"), 3, name="w")
    return ring


_terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                         st.integers(-3, 3), max_size=3)


@settings(deadline=None, max_examples=80)
@given(_terms, _terms, st.booleans())
def test_equal_implies_equal_hash(ta, tb, same) -> None:
    R1, R2 = _kummer(QQ), _kummer(QQ)
    a = R1.element({m: Fraction(c) for m, c in ta.items()})
    b = R2.element({m: Fraction(c) for m, c in (ta if same else tb).items()})
    if a == b:
        assert hash(a) == hash(b)
    if same:
        assert a == b and len({a, b}) == 1
