import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopfgal.errors import (
    BadScalarError,
    CharDividesError,
    GradingError,
    MathError,
    NonUnitError,
    RingMismatchError,
    TowerOrderError,
)
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.rings import (
    BaseMorphism,
    adjoin_root,
    base_ring,
    compose,
    extend_with_t,
    extension_levels,
    identity_morphism,
    inclusion_morphism,
    laurent_ring,
    polynomial_ring,
)

from reference_scalars import random_scalar
from reference_units import _berkowitz_dicts

F7 = PrimeField(7)


def _rand_element(ring, rng, terms=3, emax=3):
    out = ring.zero()
    for _ in range(terms):
        exps = {}
        for g in ring.gens:
            lo = -emax if g.kind == "laurent" else 0
            hi = g.degree - 1 if g.kind == "root" else emax
            exps[g.name] = rng.randint(lo, hi)
        out = out + ring.monomial(exps, random_scalar(ring.field, rng, 5))
    return out


def sample_rings():
    Qx = polynomial_ring(QQ, "x")
    Lz = laurent_ring(QQ, "z")
    T4, _, _ = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(4), 2, name="T")
    F7T, _, _ = adjoin_root(base_ring(F7), base_ring(F7).from_int(2), 3, name="T")
    kum, _, _ = adjoin_root(laurent_ring(QQ, "z"), laurent_ring(QQ, "z").gen("z"), 2, name="w")
    return [Qx, Lz, T4, F7T, kum]


def test_arithmetic_laws_random() -> None:
    rng = random.Random(1)
    for ring in sample_rings():
        for _ in range(60):
            a = _rand_element(ring, rng)
            b = _rand_element(ring, rng)
            c = _rand_element(ring, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - a == ring.zero()
            assert a * ring.one() == a
            assert a * ring.zero() == ring.zero()


def test_zero_divisor_ring_q_times_q() -> None:
    # Q[T]/(T^2 - 4) is isomorphic to Q x Q: (T-2)(T+2) = 0
    ring, _, T = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(4), 2, name="T")
    assert (T - 2) * (T + 2) == ring.zero()
    assert not ring.is_unit(T - 2)
    assert not ring.is_unit(T + 2)
    # T itself is a unit: T * (T/4) = T^2/4 = 1
    inv = ring.inverse(T)
    assert inv == ring.parse_element("T/4")
    assert T * inv == ring.one()


def test_cube_root_inverse_f7() -> None:
    # r^3 = 2 in F7[T]/(T^3 - 2); r * (4 r^2) = 4 r^3 = 8 = 1
    ring, _, r = adjoin_root(base_ring(F7), base_ring(F7).from_int(2), 3, name="r")
    assert r * r * r == ring.from_int(2)
    inv = ring.inverse(r)
    assert inv == 4 * r * r
    assert r * inv == ring.one()


def test_laurent_units() -> None:
    ring = laurent_ring(QQ, "z")
    z = ring.gen("z")
    assert ring.inverse(z) == ring.parse_element("z^-1")
    assert ring.is_unit(3 * z ** 5)
    assert not ring.is_unit(ring.one() + z)
    assert not ring.is_unit(ring.zero())


def test_polynomial_units() -> None:
    ring = polynomial_ring(QQ, "x")
    x = ring.gen("x")
    assert not ring.is_unit(x)
    assert not ring.is_unit(1 + x)
    assert ring.is_unit(ring.from_scalar(Fraction(-3, 4)))


def test_root_tower_normalization() -> None:
    # Q < Q(sqrt 2) < Q(2^(1/4)) as nested root adjunctions
    R1, _, r = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(2), 2, name="r")
    R2, _, s = adjoin_root(R1, r, 2, name="s")
    assert s ** 4 == R2.from_int(2)
    assert s ** 8 == R2.from_int(4)
    assert s ** 5 == R2.from_int(2) * s
    inv = R2.inverse(s)
    assert inv == R2.parse_element("s^3/2")


def test_kummer_ring_root_inverse() -> None:
    L = laurent_ring(QQ, "z")
    ring, _, w = adjoin_root(L, L.gen("z"), 2, name="w")
    z = ring.gen("z")
    assert w * w == z
    assert ring.inverse(w) == ring.parse_element("w*z^-1")
    # the laurent monomial absorbed under a root extension
    assert ring.is_unit(3 * z ** -2 * w)


def test_adjoin_root_refusals() -> None:
    Qx = polynomial_ring(QQ, "x")
    with pytest.raises(NonUnitError):
        adjoin_root(Qx, Qx.gen("x"), 2)
    with pytest.raises(CharDividesError):
        adjoin_root(base_ring(F7), base_ring(F7).from_int(3), 7)
    with pytest.raises(CharDividesError):
        adjoin_root(base_ring(F7), base_ring(F7).from_int(3), 14)


def test_extend_with_t_evaluations() -> None:
    ring = polynomial_ring(QQ, "x")
    ext = extend_with_t(ring)
    x, t = ext.ring.gen("x"), ext.t
    el = x * t + t * t * 3
    assert ext.at_zero(el) == ring.zero()
    assert ext.at_one(el) == ring.gen("x") + 3
    assert compose(ext.include, ext.at_zero) == identity_morphism(ring)
    assert compose(ext.include, ext.at_one) == identity_morphism(ring)
    # fresh naming avoids clashes
    ext2 = extend_with_t(polynomial_ring(QQ, "t"))
    assert ext2.t_name != "t"


def test_grading_validation() -> None:
    from hopfgal.rings import BaseRing, Generator

    with pytest.raises(GradingError):
        BaseRing(QQ, (Generator("z", "laurent", grade=1),), (None,))
    with pytest.raises(GradingError):
        BaseRing(QQ, (Generator("x", "free", grade=-1),), (None,))
    graded = polynomial_ring(QQ, "x", grades=(2,))
    assert tuple(g.grade for g in graded.gens) == (2,)
    assert tuple(g.grade for g in laurent_ring(QQ, "z").gens) == (0,)


def test_laurent_above_root_refused() -> None:
    # in Q[r | r^2=1][z^+-1], a = e z + f z^2 with the idempotents
    # e, f = (1 +- r)/2 is a unit (inverse e z^-1 + f z^-2) that is no single
    # Laurent monomial times a unit, so the tower is refused
    E, _, _ = adjoin_root(base_ring(QQ), base_ring(QQ).one(), 2, name="r")
    with pytest.raises(TowerOrderError, match="laurent generator z"):
        E.add_laurent("z")
    assert issubclass(TowerOrderError, MathError) and issubclass(GradingError, MathError)
    E.add_free("x")  # a free generator above a root stays admissible
    kum, _, _ = adjoin_root(laurent_ring(QQ, "z"), laurent_ring(QQ, "z").gen("z"), 2, name="w")
    assert kum.is_unit(kum.gen("w"))


def test_element_reduces_root_exponents() -> None:
    """A coefficient dict with a root exponent out of range is taken to its
    normal form, as a product is: over F241[z^+-1][w | w^2 = z], w^2 is z."""
    L = laurent_ring(PrimeField(241), "z")
    R, _, w = adjoin_root(L, L.gen("z"), 2, name="w")
    z = R.gen("z")
    assert R.element({(0, 2): 1}) == z and repr(R.element({(0, 2): 1})) == "z"
    # 5 w^3 = 5 z w cancels -5 z w
    assert R.element({(0, 3): 5, (1, 1): 236}) == R.zero()
    assert R.element({(0, 0): 0, (2, 1): 3}).coeffs == {(2, 1): 3}
    assert R.monomial({"z": -1, "w": 5}) == z * w


def test_element_refuses_a_negative_exponent_off_laurent() -> None:
    """Over F241[z^+-1][w | w^2 = z], w^-1 as a coefficient dict is refused
    as ``monomial`` refuses it, while z^-1 is a Laurent monomial."""
    L = laurent_ring(PrimeField(241), "z")
    R, _, w = adjoin_root(L, L.gen("z"), 2, name="w")
    for make in (lambda: R.element({(0, -1): 1}), lambda: R.monomial({"w": -1})):
        with pytest.raises(ValueError, match="^negative exponent on non-laurent generator w$"):
            make()
    assert R.element({(-1, 1): 1}) == R.gen("z") ** -1 * w


def test_parse_format_round_trip() -> None:
    rng = random.Random(5)
    for ring in sample_rings():
        for _ in range(40):
            a = _rand_element(ring, rng)
            assert ring.parse_element(ring.format_element(a)) == a
    assert polynomial_ring(QQ, "x").parse_element("(x+1)^2") == polynomial_ring(QQ, "x").parse_element("x^2+2*x+1")
    with pytest.raises(BadScalarError):
        polynomial_ring(QQ, "x").parse_element("y+1")
    with pytest.raises(BadScalarError):
        polynomial_ring(QQ, "x").parse_element("1/x")


def test_berkowitz_matches_cofactor_expansion() -> None:
    rng = random.Random(9)

    def cofactor_det(ring, M):
        n = len(M)
        if n == 0:
            return ring.one()
        if n == 1:
            return M[0][0]
        acc = ring.zero()
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            term = M[0][j] * cofactor_det(ring, minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    for ring in sample_rings():
        for n in (1, 2, 3, 4):
            M = [[_rand_element(ring, rng, terms=1, emax=2) for _ in range(n)] for _ in range(n)]
            got = ring.element(_berkowitz_dicts(ring, [[e.coeffs for e in row] for row in M]))
            assert got == cofactor_det(ring, M)


def test_random_unit_inverse_round_trip() -> None:
    rng = random.Random(13)
    L = laurent_ring(QQ, "z")
    kum, _, w = adjoin_root(L, L.gen("z"), 2, name="w")
    T4, _, T = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(4), 2, name="T")
    for ring in (kum, T4):
        hits = 0
        for _ in range(60):
            a = _rand_element(ring, rng, terms=2, emax=2)
            inv = ring.try_inverse(a)
            if inv is not None:
                hits += 1
                assert a * inv == ring.one()
        assert hits > 0


def test_morphisms() -> None:
    Qx = polynomial_ring(QQ, "x")
    Qy = polynomial_ring(QQ, "y")
    f = BaseMorphism(Qx, Qy, {"x": Qy.parse_element("y^2+1")})
    assert f(Qx.parse_element("x^2-x")) == Qy.parse_element("(y^2+1)^2-(y^2+1)")
    g = BaseMorphism(Qy, Qy, {"y": Qy.parse_element("2*y")})
    assert compose(f, g)(Qx.gen("x")) == Qy.parse_element("4*y^2+1")
    with pytest.raises(RingMismatchError):
        compose(g, f)
    # laurent images must be units
    Lz = laurent_ring(QQ, "z")
    with pytest.raises(NonUnitError):
        BaseMorphism(Lz, Qy, {"z": Qy.gen("y")})
    ok = BaseMorphism(Lz, Lz, {"z": Lz.parse_element("3*z^-2")})
    assert ok(Lz.parse_element("z^-1")) == Lz.parse_element("z^2/3")
    # root images must satisfy the relation
    T4, incl, T = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(4), 2, name="T")
    with pytest.raises(RingMismatchError):
        BaseMorphism(T4, T4, {"T": T4.one()})
    swap = BaseMorphism(T4, T4, {"T": -T})
    assert swap(T * T) == T4.from_int(4)
    assert identity_morphism(T4)(T) == T
    assert inclusion_morphism(base_ring(QQ), T4)(base_ring(QQ).from_int(5)) == T4.from_int(5)


# --------------------------------------------------------------------------
# multiplication against sympy's normal form modulo a Groebner basis
# --------------------------------------------------------------------------

def _ranges(kinds, degrees):
    """The exponents a drawn monomial takes on each generator: small ones on
    free and Laurent generators, all of range(n) on a root of degree n."""
    return [range(3) if k == "free" else range(-2, 3) if k == "laurent" else range(n)
            for k, n in zip(kinds, degrees)]


@st.composite
def _scalars(draw, p):
    """A nonzero scalar of F_p (p > 0) or of Q (p == 0), as the field holds it."""
    if p:
        return draw(st.integers(1, p - 1))
    c = Fraction(draw(st.sampled_from([k for k in range(-6, 7) if k])), draw(st.integers(1, 4)))
    return c.numerator if c.denominator == 1 else c


@st.composite
def _coeff_dicts(draw, p, ranges, max_terms):
    monos = draw(st.lists(st.tuples(*(st.sampled_from(r) for r in ranges)),
                          min_size=1, max_size=max_terms, unique=True))
    return {m: draw(_scalars(p)) for m in monos}


@st.composite
def _towers_and_pairs(draw):
    """(p, kinds, degrees, root values, a, b): free and Laurent generators,
    then free generators and roots, each root over a monomial unit of the
    generators below it, so roots over Laurent generators and over roots."""
    p = draw(st.sampled_from([0, 3, 5]))
    kinds = (draw(st.lists(st.sampled_from(["free", "laurent"]), max_size=2))
             + draw(st.lists(st.sampled_from(["free", "root"]), max_size=2)))
    if not kinds:
        kinds = [draw(st.sampled_from(["free", "laurent", "root"]))]
    degrees, values = [], []
    for i, k in enumerate(kinds):
        degrees.append(draw(st.sampled_from([n for n in (2, 3, 4) if not p or n % p]))
                       if k == "root" else 0)
        ranges = [r if kinds[j] != "free" else range(1)
                  for j, r in enumerate(_ranges(kinds[:i], degrees))]
        values.append(draw(_coeff_dicts(p, ranges, 1)) if k == "root" else None)
    ranges = _ranges(kinds, degrees)
    return (p, kinds, degrees, values,
            draw(_coeff_dicts(p, ranges, 4)), draw(_coeff_dicts(p, ranges, 4)))


def _sympy_normal_form(p, kinds, degrees, values, a, b):
    """The product a b as {exponents: scalar}, reduced by sympy modulo
    G = {g^n - u for each root} + {z z' - 1 for each Laurent z}, z^-k
    written z'^k.  In lex order with later generators larger the leading
    terms g^n and z z' are pairwise coprime, so G is a Groebner basis and
    the remainder is the normal form."""
    xs = sympy.symbols(f"x0:{len(kinds)}")
    ys = sympy.symbols(f"y0:{len(kinds)}")

    def poly(coeffs):
        out = 0
        for mono, c in coeffs.items():
            term = sympy.Integer(c) if p else sympy.Rational(Fraction(c).numerator,
                                                             Fraction(c).denominator)
            for x, y, e in zip(xs, ys, mono):
                term *= x ** e if e >= 0 else y ** -e
            out += term
        return out
    G = [xs[i] ** degrees[i] - poly(values[i])
         for i, k in enumerate(kinds) if k == "root"]
    G += [xs[i] * ys[i] - 1 for i, k in enumerate(kinds) if k == "laurent"]
    order = [v for i in reversed(range(len(kinds)))
             for v in ((xs[i], ys[i]) if kinds[i] == "laurent" else (xs[i],))]
    opts = {"modulus": p} if p else {}
    f = sympy.expand(poly(a) * poly(b))
    r = sympy.reduced(f, G, *order, order="lex", **opts)[1] if G else f
    out = {}
    for monom, c in sympy.Poly(r, *order, **opts).as_dict().items():
        e = dict(zip(order, monom))
        mono = tuple(e[xs[i]] - e.get(ys[i], 0) for i in range(len(kinds)))
        out[mono] = int(c) % p if p else Fraction(int(c.p), int(c.q))
    return out


@settings(max_examples=200, deadline=None)
@given(_towers_and_pairs())
def test_ring_multiplication_matches_sympy_normal_form(case) -> None:
    """a * b against sympy's remainder modulo the tower's Groebner basis, on
    towers over Q and F_p with free, Laurent and root generators, roots over
    Laurent generators and over roots; the product is in normal form: no
    zero coefficient and every root exponent in range(n)."""
    p, kinds, degrees, values, a, b = case
    R = base_ring(PrimeField(p) if p else QQ)
    for i, (k, n) in enumerate(zip(kinds, degrees)):
        if k == "free":
            R = R.add_free(f"g{i}")
        elif k == "laurent":
            R = R.add_laurent(f"g{i}")
        else:
            R, _, _ = adjoin_root(R, R.element(values[i]),
                                  n, name=f"g{i}")
    got = (R.element(a) * R.element(b)).coeffs
    assert not any(R.field.is_zero(c) for c in got.values())
    assert all(m[i] in range(n) for m in got for i, n in enumerate(degrees) if n)
    want = _sympy_normal_form(p, kinds, degrees, values, a, b)
    assert {m: c % p if p else Fraction(c) for m, c in got.items()} == want


# Every field the constructors build: Q, F_p, simple extensions and towers
# of them (Q(i)[v]/(v^2 - i)[c]/(c^3 - v); F49 = F7[s]/(s^2 - 3), and
# F49[t]/(t^3 - s), s not a cube in F49).
_QI = SimpleExtension(QQ, "i", (QQ.one(), QQ.zero(), QQ.one()))
_QI2 = SimpleExtension(_QI, "v", (_QI.neg(_QI.gen()), _QI.zero(), _QI.one()))
_QI3 = SimpleExtension(_QI2, "c", (_QI2.neg(_QI2.gen()), _QI2.zero(), _QI2.zero(), _QI2.one()))
_F49 = SimpleExtension(F7, "s", (F7.from_int(-3), F7.zero(), F7.one()))
_F49T = SimpleExtension(_F49, "t", (_F49.neg(_F49.gen()), _F49.zero(), _F49.zero(), _F49.one()))
TOWER_FIELDS = (QQ, PrimeField(2), F7, _QI, _QI2, _QI3, _F49, _F49T)


def _scalar(draw, K):
    if isinstance(K, SimpleExtension):
        return tuple(_scalar(draw, K.base) for _ in range(K.degree))
    if isinstance(K, PrimeField):
        return draw(st.integers(0, K.p - 1))
    return Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 9)))


def _ring_tower(draw):
    """base_ring(K) with up to three free, Laurent or root generators, the
    Laurent ones below every root; a root's value is a unit monomial and
    its degree is invertible in K.  A generator named like a variable of
    K's tower (c over Q(i)[v][c]) is refused with ValueError, and left out."""
    K = draw(st.sampled_from(TOWER_FIELDS))
    R = base_ring(K)
    for name in "abc"[:draw(st.integers(0, 3))]:
        rooted = any(g.kind == "root" for g in R.gens)
        kind = draw(st.sampled_from(("free", "root") if rooted else ("free", "laurent", "root")))
        if name in {L.var for L in extension_levels(K)}:
            with pytest.raises(ValueError, match="is a variable of"):
                if kind == "root":
                    adjoin_root(R, R.one(), 1, name)
                else:
                    getattr(R, f"add_{kind}")(name)
        elif kind == "free":
            R = R.add_free(name)
        elif kind == "laurent":
            R = R.add_laurent(name)
        else:
            c = _scalar(draw, K)
            u = R.monomial({g.name: draw(st.integers(-2 if g.kind == "laurent" else 0, 2))
                            for g in R.gens if g.kind != "free"}, K.one() if K.is_zero(c) else c)
            degrees = [n for n in (2, 3) if not K.is_zero(K.from_int(n))]
            R, _, _ = adjoin_root(R, u, draw(st.sampled_from(degrees)), name)
    return R


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_scalar_parses_back_from_its_printing(data) -> None:
    K = data.draw(st.sampled_from(TOWER_FIELDS))
    x = _scalar(data.draw, K)
    assert K.parse(K.format(x)) == x, K.format(x)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_ring_element_is_normal_and_parses_back(data) -> None:
    """``element`` of any coefficient dict, exponents negative or past a
    root's degree among them, either refuses a negative exponent off a
    Laurent generator with ValueError or is in normal form: no zero
    coefficient, every root exponent below its degree, no negative
    exponent off a Laurent generator.  The normal form is a fixed point of
    ``element`` and parses back from its printing."""
    draw = data.draw
    R = _ring_tower(draw)
    exps = [st.integers(-3, 3) if g.kind == "laurent"
            else st.one_of(st.integers(0, 5), st.integers(-2, -1)) for g in R.gens]
    raw = {tuple(draw(e) for e in exps): _scalar(draw, R.field)
           for _ in range(draw(st.integers(0, 4)))}
    negative = any(e < 0 and g.kind != "laurent" for m in raw for g, e in zip(R.gens, m))
    try:
        x = R.element(raw)
    except ValueError:
        assert negative
        return
    assert not negative
    assert not any(R.field.is_zero(c) for c in x.coeffs.values())
    assert all(0 <= e < g.degree if g.kind == "root" else e >= 0 or g.kind == "laurent"
               for m in x.coeffs for g, e in zip(R.gens, m)), R.format_element(x)
    assert R.element(x.coeffs) == x
    assert R.parse_element(R.format_element(x)) == x, R.format_element(x)
