import math
import os
import re
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgal
from hopfgal.bundles import kummer_bundle
from hopfgal.errors import BadRootOfUnityError, BadScalarError, RootSearchUnsupportedError
from hopfgal.fields import (
    QQ,
    PrimeField,
    RationalField,
    SimpleExtension,
    field_from_name,
    is_prime,
    power,
)
from hopfgal.hopf import taft
from hopfgal.rings import adjoin_root, polynomial_ring
from reference_scalars import random_scalar, reference_parse

F7 = PrimeField(7)
F3 = PrimeField(3)
QI = SimpleExtension(QQ, "i", [Fraction(1), Fraction(0), Fraction(1)])


def test_rational_sqrt_matches_brute_force() -> None:
    """Every k/d with |k| <= 40 and d <= 12; a root of one has numerator
    at most 6 and denominator at most 3, so the candidates hold it."""
    candidates = [Fraction(j, e) for j in range(7) for e in range(1, 4)]
    for k in range(-40, 41):
        for d in range(1, 13):
            a = QQ.div(k, d)
            roots = sorted({x for x in candidates if x * x == a})
            root = QQ.sqrt(a)
            assert root == (roots[0] if roots else None), a
            if root is not None:
                assert type(root) is (int if Fraction(root).denominator == 1 else Fraction)


def test_prime_field_arithmetic_exhaustive() -> None:
    p = 7
    for a in range(p):
        for b in range(p):
            assert F7.add(a, b) == (a + b) % p
            assert F7.mul(a, b) == (a * b) % p
        if a:
            assert F7.mul(a, F7.inv(a)) == 1
    assert F7.sqrt(2) == 3
    assert F7.sqrt(3) is None  # 3 is not a square mod 7
    assert F7.has_order(3, 6)
    assert F7.has_order(2, 3)


def test_prime_field_rejects_composite() -> None:
    with pytest.raises(ValueError):
        PrimeField(6)


def test_extension_q_sqrt3() -> None:
    K = SimpleExtension(QQ, "a", [Fraction(-3), Fraction(0), Fraction(1)])
    a = K.gen()
    assert K.mul(a, a) == K.from_int(3)
    inv = K.inv(a)
    assert K.mul(a, inv) == K.one()
    # (1 + a)(1 - a) = 1 - 3 = -2
    x = K.add(K.one(), a)
    y = K.sub(K.one(), a)
    assert K.mul(x, y) == K.from_int(-2)
    with pytest.raises(RootSearchUnsupportedError):
        K.sqrt(K.from_int(3))


def test_a_tower_of_extensions_prints_its_value() -> None:
    """K2 = Q(i)[v]/(v^2 - i): a coefficient from Q(i) prints without its
    annotation, in parentheses when it is a sum, in K2's name, in K2's
    scalars and in the elements of a ring over K2."""
    K2 = SimpleExtension(QI, "v", (QI.neg(QI.gen()), QI.zero(), QI.one()))
    x = (QI.one(), QI.add(QI.one(), QI.gen()))  # (i+1)*v+1
    assert K2.name == "Q[i]/(i^2+1)[v]/(v^2-i)"
    assert K2.format(x) == "(i+1)*v+1 in Q[i]/(i^2+1)[v]/(v^2-i)"
    R = polynomial_ring(K2, "x")
    assert R.format_coeffs({(0,): x}) == "((i+1)*v+1)"
    assert R.format_coeffs({(1,): x, (0,): K2.neg(K2.gen())}) == "((i+1)*v+1)*x-v"
    assert R.format_coeffs({(2,): (QI.zero(), QI.one()), (1,): K2.from_int(-1)}) == "v*x^2-x"


def test_a_tower_of_extensions_parses_its_printing() -> None:
    """Every variable of a field tower is a name when a scalar is read: over
    K2 = Q(i)[v]/(v^2 - i) and K3 = K2[c]/(c^3 - v), a scalar printed with
    i, v and c parses back to itself."""
    K2 = SimpleExtension(QI, "v", (QI.neg(QI.gen()), QI.zero(), QI.one()))
    K3 = SimpleExtension(K2, "c", (K2.neg(K2.gen()), K2.zero(), K2.zero(), K2.one()))
    i2 = (QI.gen(), QI.zero())  # i in K2
    for K, x in ((K2, (QI.one(), QI.add(QI.one(), QI.gen()))),  # (i+1)*v+1
                 (K2, K2.add(K2.from_int(3), i2)),
                 (K3, (K2.add(K2.gen(), i2), K2.one(), K2.zero())),
                 (K3, (K2.zero(), K2.zero(), i2))):
        assert K.parse(K.format(x)) == x, K.format(x)


def test_extension_f4_is_a_field() -> None:
    F2 = PrimeField(2)
    F4 = SimpleExtension(F2, "a", [1, 1, 1])  # a^2 + a + 1 = 0
    elems = list(F4.elements())
    assert len(elems) == 4
    for x in elems:
        if F4.is_zero(x):
            continue
        assert F4.mul(x, F4.inv(x)) == F4.one()
    a = F4.gen()
    # a has order 3 in F4*
    assert F4.has_order(a, 3)


def test_field_ops_random_consistency() -> None:
    rng = random.Random(7)
    Ka = SimpleExtension(QQ, "a", [Fraction(-3), Fraction(0), Fraction(1)])
    for K in (QQ, F7, F3, Ka):
        for _ in range(200):
            a = random_scalar(K, rng)
            b = random_scalar(K, rng)
            c = random_scalar(K, rng)
            assert K.add(a, b) == K.add(b, a)
            assert K.mul(a, b) == K.mul(b, a)
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.sub(a, a) == K.zero()
            if not K.is_zero(a):
                assert K.mul(a, K.inv(a)) == K.one()
            assert K.pow(a, 3) == K.mul(a, K.mul(a, a))


def test_scalar_parse_format_round_trip() -> None:
    rng = random.Random(11)
    Ka = SimpleExtension(QQ, "a", [Fraction(-3), Fraction(0), Fraction(1)])
    for K in (QQ, F7, Ka):
        for _ in range(100):
            x = random_scalar(K, rng)
            assert K.parse(K.format(x)) == x


def test_scalar_parse_examples() -> None:
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert F7.parse("2 mod 7") == 2
    assert F7.parse("-1") == 6
    Ka = SimpleExtension(QQ, "a", [Fraction(-3), Fraction(0), Fraction(1)])
    assert Ka.parse("a+1") == Ka.add(Ka.gen(), Ka.one())
    assert Ka.parse("a+1 in Q[a]/(a^2-3)") == Ka.add(Ka.gen(), Ka.one())
    assert Ka.parse("a^2") == Ka.from_int(3)
    assert Ka.parse("1/a") == Ka.inv(Ka.gen())


def test_scalar_parse_rejects_garbage() -> None:
    with pytest.raises(BadScalarError):
        QQ.parse("import os")
    with pytest.raises(BadScalarError):
        QQ.parse("x+1")
    with pytest.raises(BadScalarError):
        QQ.parse("1/0")
    with pytest.raises(BadScalarError):
        F7.parse("2 mod 5")


# Q, a small and a large prime field, Q(w) with w^2 + w + 1 = 0, and
# Q[w]/(w^2 - 1), whose w - 1 and w + 1 are zero divisors
_PARSE_FIELDS = [QQ, F7, PrimeField(4294967311),
                 SimpleExtension(QQ, "w", [Fraction(1), Fraction(1), Fraction(1)]),
                 SimpleExtension(QQ, "w", [Fraction(-1), Fraction(0), Fraction(1)])]
_EXPONENTS = (0, 1, 2, 3, -1, -2, 16, 17, 255, 256, 257, -257, 300, -300, 10 ** 6)
_EXPRESSIONS = st.recursive(
    st.one_of(st.integers(-12, 12).map(str), st.integers(-2 ** 70, 2 ** 70).map(str),
              st.sampled_from(("0", "w", "x", "1.5", "'w'"))),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        # quotients by 0, by zero divisors of Q[w]/(w^2 - 1) and by units
        st.tuples(inner, st.sampled_from(("0", "w+1", "w-1", "w"))).map(lambda t: f"({t[0]})/({t[1]})"),
        st.tuples(inner, st.sampled_from(_EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda a: f"-({a})")),
    max_leaves=8)


def _parsed(parse, K, text):
    try:
        return parse(K, text)
    except BadScalarError:
        return "refused"


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(_PARSE_FIELDS), _EXPRESSIONS, st.booleans())
def test_scalar_parse_matches_the_reference_parser(K, text, annotated) -> None:
    """Field.parse reads scalars through BaseRing.parse_element; the
    reference is the field-level evaluator it replaced."""
    if annotated and K != QQ:
        text += f" mod {K.p}" if isinstance(K, PrimeField) else f" in {K.name}"
    assert _parsed(type(K).parse, K, text) == _parsed(reference_parse, K, text)


def test_field_from_name() -> None:
    assert field_from_name("Q") == RationalField()
    assert field_from_name("F7") == PrimeField(7)
    with pytest.raises(BadScalarError):
        field_from_name("Z")


# ------------------------------------------------- square roots and exact orders

@pytest.mark.parametrize("p", [p for p in range(60) if is_prime(p)] + [97])
def test_prime_sqrt_matches_brute_force(p) -> None:
    # 17, 41 and 97 are 1 mod 8, so Tonelli-Shanks runs its inner loop
    K = PrimeField(p)
    for a in range(p):
        roots = [x for x in range(p) if x * x % p == a]
        assert K.sqrt(a) == (roots[0] if roots else None)


def test_extension_sqrt_matches_brute_force() -> None:
    """F49 = F7[u]/(u^2 + 1): the root found is the first in ``elements()``
    order, and every square of F49 has one."""
    K = SimpleExtension(F7, "u", (1, 0, 1))
    elems = list(K.elements())
    for a in elems:
        roots = [x for x in elems if K.mul(x, x) == a]
        assert K.sqrt(a) == (roots[0] if roots else None)
    assert sum(K.sqrt(a) is not None for a in elems) == 25  # 0 and the 24 nonzero squares


def test_prime_sqrt_large_two_adic_prime() -> None:
    p = 998244353  # 119 * 2^23 + 1
    K = PrimeField(p)
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(p)
        assert K.sqrt(a * a % p) == min(a, p - a)
    assert K.sqrt(3) is None  # 3 generates the unit group, so it is no square


def _counted_order(K, a, bound):
    """The least k <= bound with a^k = 1 by repeated multiplication, else None."""
    if K.is_zero(a):
        return None
    x = a
    for k in range(1, bound + 1):
        if x == K.one():
            return k
        x = K.mul(x, a)
    return None


def test_has_order_matches_brute_force_order() -> None:
    F4 = SimpleExtension(PrimeField(2), "a", [1, 1, 1])  # a^2 + a + 1
    F9 = SimpleExtension(F3, "u", [1, 0, 1])  # u^2 + 1
    samples = [(K, list(K.elements()))
               for K in (*(PrimeField(p) for p in (2, 7, 13, 17)), F4, F9)]
    samples.append((QI, [QI.zero(), QI.one(), QI.from_int(-1), QI.gen(), QI.neg(QI.gen()),
                         QI.add(QI.one(), QI.gen()), QI.from_int(2),
                         (Fraction(3, 5), Fraction(4, 5))]))
    for K, elems in samples:
        for a in elems:
            # over Q(i) a unit of finite order has order at most 4
            order = _counted_order(K, a, 17 if K.is_finite() else 8)
            for n in range(1, 40):
                assert K.has_order(a, n) == (order == n), (K, a, n)


def test_has_order_past_ten_thousand() -> None:
    F101 = PrimeField(101)
    K = SimpleExtension(F101, "u", [2, 0, 1])  # u^2 + 2, irreducible mod 101
    a = (1, 1)
    assert K.has_order(a, 10200)
    assert K.has_order(K.pow(a, 102), 100)


def test_has_order_in_characteristic_zero() -> None:
    """Q and Q(w); Q(i) is among the brute-force samples above."""
    QW = SimpleExtension(QQ, "w", [1, 1, 1])  # w^2 + w + 1
    assert QQ.has_order(Fraction(1), 1) and QQ.has_order(Fraction(-1), 2)
    assert QW.has_order(QW.gen(), 3) and QW.has_order(QW.neg(QW.gen()), 6)
    assert not any(QQ.has_order(a, n) for a in (QQ.zero(), Fraction(2)) for n in range(1, 40))


def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_matches_trial_division() -> None:
    assert [n for n in range(100_000) if is_prime(n)] == \
        [n for n in range(100_000) if _trial_division_prime(n)]


def test_miller_rabin_strong_pseudoprimes_and_bound() -> None:
    # strong pseudoprimes to the bases 2, 3, 5, 7; to 2, ..., 31; to 2, ..., 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # prime, but past the bound where the bases are exact
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)
    with pytest.raises(BadScalarError):
        field_from_name(f"F{2**89 - 1}")


def test_order_checks_end_quickly_over_a_large_prime() -> None:
    K = PrimeField(1000000007)
    with pytest.raises(BadRootOfUnityError):
        taft(2, 3, K)  # 3 has order p - 1; counting up to it took minutes
    with pytest.raises(BadRootOfUnityError):
        kummer_bundle(4, 5, K)
    assert taft(2, -1, K).dim == 4


def test_h4_criterion_over_a_large_prime_field() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    run = [sys.executable, "-m", "hopfgal.cli", "h4", "criterion", "--field", "F1000000007"]
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(run + ["--alpha", "5", "--beta", "1", "--gamma", "4"], env=env,
                         capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout) == (1, "not trivial\n")
    out = subprocess.run(run + ["--alpha", "4", "--beta", "1", "--gamma", "4"], env=env,
                         capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout) == (0, "trivial, s=2 mod 1000000007, t=1 mod 1000000007\n")


def test_h4_criterion_over_a_mersenne_prime_field() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfgal.__file__)))
    p = 2**61 - 1  # trial division was still running when killed at 5 s
    out = subprocess.run([sys.executable, "-m", "hopfgal.cli", "h4", "criterion",
                          "--field", f"F{p}", "--alpha", "4", "--beta", "1", "--gamma", "4"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout) == (0, f"trivial, s=2 mod {p}, t=1 mod {p}\n")


# zero often, so the zero-skipping paths of the product and the reduction run
_small_q = st.just(Fraction(0)) | st.fractions(-4, 4, max_denominator=3)


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(_small_q, min_size=d, max_size=d),
    st.lists(_small_q, min_size=d, max_size=d),
    st.lists(_small_q, min_size=d, max_size=d))))
def test_extension_mul_matches_sympy_rem(case) -> None:
    tail, a, b = case
    K = SimpleExtension(QQ, "u", tuple(tail) + (Fraction(1),))
    u = sympy.Symbol("u")

    def poly(coeffs):
        return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in coeffs])), u, domain="QQ")

    want = sympy.rem(poly(a) * poly(b), poly(K.modulus)).all_coeffs()[::-1]
    want = [Fraction(int(c.p), int(c.q)) for c in want] + [Fraction(0)] * K.degree
    assert K.mul(tuple(a), tuple(b)) == tuple(want[:K.degree])


def _irreducible_moduli(rng, d: int, count: int) -> list:
    """``count`` monic moduli of degree d over Q with coefficients in
    [-3, 3], drawn by ``rng`` and kept when sympy finds them irreducible."""
    u, out = sympy.Symbol("u"), []
    while len(out) < count:
        modulus = tuple(rng.randint(-3, 3) for _ in range(d)) + (1,)
        if sympy.Poly(modulus[::-1], u, domain="QQ").is_irreducible:
            out.append(modulus)
    return out


# F5[s]/(s^2 + 1) is not a field: s^2 + 1 = (s - 2)(s + 2) mod 5; then two
# random fields Q[u]/(f) of each degree 2-5
_EXTENSIONS = [SimpleExtension(QQ, "i", (1, 0, 1)), SimpleExtension(QQ, "w", (1, 1, 1)),
               SimpleExtension(F7, "t", (3, 0, 0, 1)), SimpleExtension(PrimeField(5), "s", (1, 0, 1))] + [
    SimpleExtension(QQ, "u", f) for d in (2, 3, 4, 5) for f in _irreducible_moduli(random.Random(d), d, 2)]


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(_EXTENSIONS), st.data())
def test_extension_inverse_matches_sympy_invert(K, data) -> None:
    """The inverse against sympy's ``invert`` (its extended Euclid); where
    sympy finds none, the element is refused as a zero divisor."""
    p = K.characteristic()
    scalar = st.integers(0, p - 1) if p else _small_q
    a = tuple(data.draw(st.lists(scalar, min_size=K.degree, max_size=K.degree)))
    if K.is_zero(a):
        with pytest.raises(ZeroDivisionError, match="^inverse of 0 in "):
            K.inv(a)
        return
    u = sympy.Symbol("u")

    def poly(coeffs):
        terms = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, reversed(coeffs))]
        return sympy.Poly(terms, u, **({"modulus": p} if p else {"domain": "QQ"}))

    try:
        want = sympy.invert(poly(a), poly(K.modulus)).all_coeffs()[::-1]
    except sympy.polys.polyerrors.NotInvertible:
        with pytest.raises(ZeroDivisionError, match="is a zero divisor; modulus of .* is reducible$"):
            K.inv(a)
        return
    want = [int(c) % p if p else Fraction(int(c.p), int(c.q)) for c in want] + [0] * K.degree
    assert K.inv(a) == tuple(want[:K.degree])


@pytest.mark.parametrize("modulus", [(2, 0, 1), (1, 1, 0, 1), (3, 0, 0, 1), (0, 1, 1)])
def test_extension_mul_matches_schoolbook_mod_5(modulus) -> None:
    p, d = 5, len(modulus) - 1
    K = SimpleExtension(PrimeField(p), "u", modulus)

    def reference(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for e in range(2 * d - 2, d - 1, -1):  # subtract prod[e] u^(e-d) f
            c = prod[e]
            for j, m in enumerate(modulus):
                prod[e - d + j] -= c * m
        return tuple(c % p for c in prod[:d])

    elems = list(K.elements())
    for a in elems:
        for b in elems:
            assert K.mul(a, b) == reference(a, b), (a, b)


# ------------------------------------- Q: ints when integral, else Fraction

_RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)).map(
        lambda r: r.numerator if r.denominator == 1 else r),
)


def _normal_q(value, expected) -> None:
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS, st.integers(-4, 4))
def test_rational_ops_match_fraction(a, b, e) -> None:
    fa, fb = Fraction(a), Fraction(b)
    _normal_q(QQ.add(a, b), fa + fb)
    _normal_q(QQ.sub(a, b), fa - fb)
    _normal_q(QQ.mul(a, b), fa * fb)
    _normal_q(QQ.neg(a), -fa)
    if a != 0:
        _normal_q(QQ.inv(a), 1 / fa)
        _normal_q(QQ.pow(a, e), fa ** e)
    elif e >= 0:
        _normal_q(QQ.pow(a, e), fa ** e)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.pow(a, e)
    _normal_q(QQ.sqrt(QQ.mul(a, a)), abs(fa))


def test_rational_constants_are_ints() -> None:
    assert [type(QQ.zero()), type(QQ.one()), type(QQ.from_int(-7))] == [int, int, int]
    assert QQ.inv(1) == 1 and QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    rng = random.Random(5)
    for _ in range(200):
        r = random_scalar(QQ, rng)
        assert type(r) is (int if Fraction(r).denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RATIONALS, min_size=2, max_size=2), st.sampled_from([0, 1, 2, 3, 4, 5, 6]))
def test_extension_is_zero_and_is_one_are_coordinatewise(coords, c) -> None:
    Q2 = SimpleExtension(QQ, "a", (-3, 0, 1))
    F49 = SimpleExtension(F7, "a", (1, 0, 1))   # x^2 + 1 has no root mod 7
    x = coords[0]
    for K, a in ((Q2, tuple(coords)), (Q2, (x, 0)), (Q2, (0, x)), (Q2, (0, 0)), (Q2, (1, 0)),
                 (F49, (c, x % 7)), (F49, (c, 0)), (F49, (0, c))):
        assert K.is_zero(a) == all(K.base.is_zero(x) for x in a)
        assert K.is_one(a) == (K.base.is_one(a[0]) and all(map(K.base.is_zero, a[1:])))


# ------------------------- inverses in the regular representation, and powers

@pytest.mark.parametrize("p, modulus", [
    (2, (1, 1, 0, 1)), (2, (1, 0, 1)),        # u^3+u+1 irreducible; u^2+1 = (u+1)^2
    (3, (1, 2, 0, 1)), (3, (2, 1, 0, 1)),     # u^3+2u+1 irreducible; u^3+u+2 has the root 2
    (5, (1, 1, 0, 1)), (5, (1, 0, 1)),        # u^3+u+1 irreducible; u^2+1 = (u-2)(u+2)
])
def test_extension_inverse_matches_brute_force(p, modulus) -> None:
    """Every nonzero element of F_p[u]/(f): its inverse is the one element
    whose product with it is 1, and an element with none, a zero divisor of
    a reducible f, is refused with the message it always had."""
    K = SimpleExtension(PrimeField(p), "u", modulus)
    elements = list(K.elements())
    for a in elements[1:]:
        inverses = [b for b in elements if K.mul(a, b) == K.one()]
        if inverses:
            assert [K.inv(a)] == inverses
        else:
            with pytest.raises(ZeroDivisionError) as err:
                K.inv(a)
            assert str(err.value) == (
                f"{K.format(a)} is a zero divisor; modulus of {K.name} is reducible")
    with pytest.raises(ZeroDivisionError, match=f"^inverse of 0 in {re.escape(K.name)}$"):
        K.inv(elements[0])


def test_every_power_is_repeated_multiplication() -> None:
    """``fields.power``, ``Field.pow`` (negative exponents through the
    inverse) and ``BaseRing._pow`` against repeated multiplication; a power
    costs one product per set bit of e and one square per bit past the first."""
    calls = []

    def mul(a, b):
        calls.append(1)
        return a * b
    for e in range(40):
        calls.clear()
        assert power(3, e, mul, 1) == 3 ** e
        assert len(calls) == (bin(e).count("1") + e.bit_length() - 1 if e else 0)
    for K, a in ((SimpleExtension(F7, "t", (3, 0, 0, 1)), (2, 5, 1)),
                 (SimpleExtension(QQ, "i", (1, 0, 1)), (Fraction(1, 2), 3))):
        for e in range(-6, 13):
            want, b = K.one(), a if e >= 0 else K.inv(a)
            for _ in range(abs(e)):
                want = K.mul(want, b)
            assert K.pow(a, e) == want, (K, e)
    L = polynomial_ring(QQ, "x").add_laurent("z")
    S, _, r = adjoin_root(L, L.one(), 2, name="r")
    R, _, w = adjoin_root(S, (2 + r) * S.gen("z"), 3, name="w")  # (2 + r)(2 - r) = 3
    x = R.gen("x") + w + 2
    u = {m + (0,): c for m, c in R.root_value(3).coeffs.items()}
    want, root_want = R.one().coeffs, R.one().coeffs
    for e in range(10):
        assert R._pow(x.coeffs, e) == want
        assert e == 0 or R._root_power(3, e) == root_want
        want, root_want = R._mul(want, x.coeffs), R._mul(root_want, u)
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        R._pow(x.coeffs, -1)
