"""Exact ground fields: Q, prime fields F_p, and simple extensions k0[u]/(f).

Scalars are raw values (``Fraction`` for Q, ``int`` in ``range(p)`` for F_p,
tuples of base scalars for extensions) and all arithmetic goes through the
field object.  ``fractions`` is imported when Q makes its first scalar, so
a run over F_p never loads it.  Representations are normalized, so ``==`` on raw values is
exact equality.  No floating point is used anywhere.

Root extraction is exact: over Q by integer Newton iteration on numerator and
denominator, square roots in F_p by Tonelli-Shanks, other roots over finite
fields by exhaustive search (these fields are small by construction).  Over
an infinite extension field root search raises ``RootSearchUnsupportedError``
rather than guessing.  Primality is deterministic Miller-Rabin, refused past
the size where its bases are proven exact, and an order test
(``has_order``) reads the prime factors of the order, with no search.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from itertools import product

from .errors import BadScalarError, RootSearchUnsupportedError


def _int_nth_root(m: int, n: int) -> tuple[int, bool]:
    """Return (floor(m ** (1/n)), exact?) for m >= 0 using integer Newton."""
    if m < 0:
        raise ValueError("negative radicand")
    if n == 1 or m in (0, 1):
        return m, True
    if n == 2:
        r = math.isqrt(m)
        return r, r * r == m
    x = 1 << ((m.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > m:
        x -= 1
    while (x + 1) ** n <= m:
        x += 1
    return x, x ** n == m


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above 3.317e24, where
    these bases no longer decide primality."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large for an exact primality test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class Field:
    """Common interface; subclasses fix the scalar representation."""

    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one()
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

    def characteristic(self) -> int:
        raise NotImplementedError

    def is_finite(self) -> bool:
        raise NotImplementedError

    def elements(self):
        """Iterate every scalar (finite fields only)."""
        raise RootSearchUnsupportedError(f"{self.name} is not finite")

    def nth_root(self, a, n: int):
        """An exact x with x**n == a, or None if there is none."""
        raise NotImplementedError

    def sqrt(self, a):
        return self.nth_root(a, 2)

    def has_order(self, a, n: int) -> bool:
        """Whether a has multiplicative order exactly n >= 1.

        a^n = 1 and a^(n/r) != 1 for every prime r dividing n; no search,
        so the answer is exact for every field size.
        """
        one = self.one()
        return (not self.is_zero(a) and self.pow(a, n) == one
                and all(self.pow(a, n // r) != one for r in _prime_factors(n)))

    def random_scalar(self, rng, size: int = 9):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    _constants = None  # base_ring(self), built on first parse

    def parse(self, text: str, spend=None):
        """The scalar ``text`` spells, read by BaseRing.parse_element as a
        constant of base_ring(self): the same grammar, caps and work budget,
        with an extension field's variable as the only name.  Subclasses
        strip their own annotation first."""
        if self._constants is None:
            from .rings import base_ring
            self._constants = base_ring(self)
        return self._constants.parse_element(text, spend, "scalar").constant_scalar()

    def __repr__(self):
        return self.name


# --------------------------------------------------------------------------
# the rationals
# --------------------------------------------------------------------------

class RationalField(Field):
    name = "Q"

    @cached_property
    def fraction(self):
        """``fractions.Fraction``, imported when the first rational is made."""
        from fractions import Fraction
        return Fraction

    def zero(self):
        return self.fraction(0)

    def one(self):
        return self.fraction(1)

    def from_int(self, n):
        return self.fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def pow(self, a, e):
        return a ** e

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def characteristic(self):
        return 0

    def is_finite(self):
        return False

    def nth_root(self, a, n):
        if a == 0:
            return self.fraction(0)
        if n % 2 == 0 and a < 0:
            return None
        num, den = abs(a.numerator), a.denominator
        rn, okn = _int_nth_root(num, n)
        rd, okd = _int_nth_root(den, n)
        if not (okn and okd):
            return None
        r = self.fraction(rn, rd)
        return -r if a < 0 else r

    def random_scalar(self, rng, size=9):
        return self.fraction(rng.randint(-size, size), rng.randint(1, size))

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


# --------------------------------------------------------------------------
# prime fields
# --------------------------------------------------------------------------

class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def is_one(self, a):
        return a == 1

    def characteristic(self):
        return self.p

    def is_finite(self):
        return True

    def elements(self):
        return iter(range(self.p))

    def nth_root(self, a, n):
        for x in range(self.p):
            if pow(x, n, self.p) == a % self.p:
                return x
        return None

    def sqrt(self, a):
        """The smaller of the two square roots (Euler's criterion, then
        Tonelli-Shanks), or None for a non-residue."""
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        q, m = p - 1, 0
        while q % 2 == 0:
            q, m = q // 2, m + 1
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def random_scalar(self, rng, size=9):
        return rng.randrange(self.p)

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    def parse(self, text, spend=None):
        m = re.fullmatch(r"(.*?)\s+mod\s+(\d+)", text.strip())
        if m:
            if int(m.group(2)) != self.p:
                raise BadScalarError(f"scalar {text!r} declares modulus {m.group(2)}, field is {self.name}")
            text = m.group(1)
        return super().parse(text, spend)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


# --------------------------------------------------------------------------
# simple extensions k0[u]/(f), f monic;  irreducibility is trusted input and
# a failed inverse (non-trivial gcd with f) surfaces as ZeroDivisionError
# --------------------------------------------------------------------------

class SimpleExtension(Field):
    def __init__(self, base: Field, var: str, modulus):
        # modulus: coefficients c_0..c_d of a monic degree-d polynomial,
        # leading coefficient included and required to be 1
        modulus = tuple(modulus)
        if len(modulus) < 3:
            raise ValueError("extension degree must be at least 2")
        if modulus[-1] != base.one():
            raise ValueError("modulus must be monic")
        self.base = base
        self.var = var
        self.modulus = modulus
        self.degree = len(modulus) - 1
        # the nonzero coefficients below the monic top, for reduction
        self._reduction = tuple((j, c) for j, c in enumerate(modulus[:-1])
                                if not base.is_zero(c))
        self.name = f"{base.name}[{var}]/({self._poly_str(modulus)})"

    def _poly_str(self, coeffs) -> str:
        terms = []
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if self.base.is_zero(c):
                continue
            cs = self.base.format(c)
            if isinstance(self.base, PrimeField):
                cs = cs.split(" mod ")[0]
            if e == 0:
                mono = cs
            else:
                head = "" if cs == "1" else ("-" if cs == "-1" else cs + "*")
                mono = head + (self.var if e == 1 else f"{self.var}^{e}")
            terms.append(mono)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    # elements are tuples of length self.degree over the base field
    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * (self.degree - 1)

    def gen(self):
        z, o = self.base.zero(), self.base.one()
        return (z, o) + (z,) * (self.degree - 2)

    def from_int(self, n):
        return (self.base.from_int(n),) + (self.base.zero(),) * (self.degree - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        d, K = self.degree, self.base
        add, mul, is_zero = K.add, K.mul, K.is_zero
        prod = [K.zero()] * (2 * d - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
        for i, x in enumerate(a):
            if is_zero(x):
                continue
            for j, y in b_terms:
                prod[i + j] = add(prod[i + j], mul(x, y))
        # reduce by the monic modulus: u^d = -(c_0 + ... + c_{d-1} u^{d-1})
        for e in range(2 * d - 2, d - 1, -1):
            c = prod[e]
            if is_zero(c):
                continue
            for j, m in self._reduction:
                prod[e - d + j] = K.sub(prod[e - d + j], mul(c, m))
        return tuple(prod[:d])

    def inv(self, a):
        # extended Euclid in base[x] against the modulus
        K = self.base
        if all(K.is_zero(c) for c in a):
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")

        def degree(p):
            for i in range(len(p) - 1, -1, -1):
                if not K.is_zero(p[i]):
                    return i
            return -1

        def scale(p, c):
            return [K.mul(x, c) for x in p]

        def sub_shift(p, q, c, s):
            # p - c * x^s * q
            out = list(p) + [K.zero()] * max(0, len(q) + s - len(p))
            for i, y in enumerate(q):
                out[i + s] = K.sub(out[i + s], K.mul(c, y))
            return out

        r0, r1 = list(self.modulus), list(a)
        t0, t1 = [K.zero()], [K.one()]
        while degree(r1) > 0:
            d0, d1 = degree(r0), degree(r1)
            if d0 < d1:
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            c = K.div(r0[d0], r1[d1])
            r0 = sub_shift(r0, r1, c, d0 - d1)
            t0 = sub_shift(t0, t1, c, d0 - d1)
        if degree(r1) != 0:
            raise ZeroDivisionError(f"{self.format(a)} is a zero divisor; modulus of {self.name} is reducible")
        lead = self.base.inv(r1[0])
        t = scale(t1, lead)
        t = (t + [K.zero()] * self.degree)[: self.degree]
        return tuple(t)

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def is_one(self, a):
        return self.base.is_one(a[0]) and all(map(self.base.is_zero, a[1:]))

    def characteristic(self):
        return self.base.characteristic()

    def is_finite(self):
        return self.base.is_finite()

    def elements(self):
        for coeffs in product(list(self.base.elements()), repeat=self.degree):
            yield tuple(coeffs)

    def nth_root(self, a, n):
        if not self.is_finite():
            raise RootSearchUnsupportedError(
                f"no exact root search over the infinite field {self.name}")
        for x in self.elements():
            if self.pow(x, n) == a:
                return x
        return None

    def random_scalar(self, rng, size=9):
        return tuple(self.base.random_scalar(rng, size) for _ in range(self.degree))

    def format(self, a):
        return f"{self._poly_str(a)} in {self.name}"

    def parse(self, text, spend=None):
        m = re.fullmatch(r"(.*?)\s+in\s+(\S+)", text.strip())
        if m:
            if m.group(2) != self.name:
                raise BadScalarError(f"scalar {text!r} declares field {m.group(2)}, expected {self.name}")
            text = m.group(1)
        return super().parse(text, spend)

    def __eq__(self, other):
        return (isinstance(other, SimpleExtension) and other.base == self.base
                and other.var == self.var and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.base, self.var, self.modulus))


# --------------------------------------------------------------------------
# the digit limit on parsed scalars
# --------------------------------------------------------------------------

def _too_long(v) -> bool:
    """Whether a raw value holds an integer past the interpreter's int-to-str
    digit limit, which no report could print."""
    if isinstance(v, tuple):
        return any(_too_long(c) for c in v)
    if not isinstance(v, int):  # a rational
        return _too_long(v.numerator) or _too_long(v.denominator)
    limit = sys.get_int_max_str_digits()
    # 8^limit < 10^limit, so a shorter integer has at most `limit` digits
    return limit > 0 and abs(v).bit_length() > 3 * limit and abs(v) >= 10 ** limit


def check_digits(field: Field, values, text: str):
    """Refuse parsed values that could not be printed; the values of a finite
    field are bounded by its size."""
    if not field.is_finite() and any(_too_long(v) for v in values):
        raise BadScalarError(f"{text!r} evaluates to a number of more than "
                             f"{sys.get_int_max_str_digits()} digits")


def field_from_name(name: str) -> Field:
    """Resolve "Q" or "F<p>" (used by CLI flags; extensions come as JSON)."""
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        try:
            return PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise BadScalarError(str(exc)) from None
    raise BadScalarError(f"unknown field name {name!r} (expected Q or F<p>)")
