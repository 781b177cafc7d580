"""Exact ground fields: Q, prime fields F_p, and simple extensions k0[u]/(f).

Scalars are raw values (over Q an ``int`` when integral and a ``Fraction``
otherwise, ``int`` in ``range(p)`` for F_p, tuples of base scalars for
extensions) and all arithmetic goes through the field object.  ``fractions``
is imported when Q makes its first non-integer, so a run over F_p, or over Q
with integral scalars only, never loads it; ``Fraction(n)`` equals ``n`` and
hashes equal, so both spellings are the same key.  Representations are
normalized, so ``==`` on raw values is exact equality.  No floating point is
used anywhere.  ``power`` is the one square-and-multiply loop, which
``BaseRing`` shares; Q and F_p use the builtin ``**`` and ``pow``.  An
extension field inverts in its regular representation (``linalg.regular``).

Square roots are exact: over Q by ``math.isqrt`` on numerator and
denominator, in F_p by Tonelli-Shanks, and over a finite extension by a
search of its elements (these fields are small by construction).  Over an
infinite extension field the search raises ``RootSearchUnsupportedError``
rather than guessing.  Primality is deterministic Miller-Rabin, refused
past the size where its bases are proven exact, and an order test
(``has_order``) reads the prime factors of the order, with no search.

One printer, ``format_polynomial``, writes the polynomials of both layers:
an extension field's scalars and modulus, and the elements of a ``BaseRing``.
It is the one place that strips a coefficient's field annotation.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from itertools import product

from .errors import BadScalarError, RootSearchUnsupportedError


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


def power(a, e: int, mul, one):
    """a^e for e >= 0, by the one square-and-multiply loop of the package."""
    r = one
    while e:
        if e & 1:
            r = mul(r, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return r


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
        return self.pow(self.inv(a), -e) if e < 0 else power(a, e, self.mul, self.one())

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

    def sqrt(self, a):
        """An exact x with x * x == a, or None if there is none."""
        raise NotImplementedError

    def has_order(self, a, n: int) -> bool:
        """Whether a has multiplicative order exactly n >= 1.

        a^n = 1 and a^(n/r) != 1 for every prime r dividing n; no search,
        so the answer is exact for every field size.
        """
        one = self.one()
        return (not self.is_zero(a) and self.pow(a, n) == one
                and all(self.pow(a, n // r) != one for r in _prime_factors(n)))

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
        """``fractions.Fraction``, imported when the first non-integer is made."""
        from fractions import Fraction
        return Fraction

    # an integral result is returned as its numerator, so ints stay ints
    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        if type(a) is int:
            return a if a in (1, -1) else self.fraction(1, a)
        r = 1 / a
        return r if r.denominator != 1 else r.numerator

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = a ** e
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def characteristic(self):
        return 0

    def is_finite(self):
        return False

    def sqrt(self, a):
        """The non-negative square root, or None."""
        if a < 0:
            return None
        rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
        if rn * rn != a.numerator or rd * rd != a.denominator:
            return None
        return rn if rd == 1 else self.fraction(rn, rd)

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


def format_polynomial(K: Field, terms) -> str:
    """The sum of the (c, m) in ``terms``, each the nonzero scalar c of K
    times m, a product of variables written out ("" for 1).  A coefficient
    is printed without its field annotation, and in parentheses when it is
    itself a sum or a product."""
    out = []
    for c, m in terms:
        cs = K.format(c).split(" mod ")[0].split(" in ")[0]
        if any(op in cs[1:] for op in "+-") or "*" in cs:
            cs = f"({cs})"
        if not m:
            out.append(cs)
        elif cs == "1":
            out.append(m)
        elif cs == "-1":
            out.append("-" + m)
        else:
            out.append(f"{cs}*{m}")
    if not out:
        return "0"
    return out[0] + "".join(t if t.startswith("-") else "+" + t for t in out[1:])


# --------------------------------------------------------------------------
# simple extensions k0[u]/(f), f monic;  irreducibility is trusted input and
# a failed inverse (a zero divisor, when f is reducible) surfaces as
# ZeroDivisionError
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
        self._zero, self._one = self.zero(), self.one()
        self._regular = None  # the regular representation, built on the first inverse
        self.name = f"{base.name}[{var}]/({self._polynomial(modulus)})"

    def _polynomial(self, coeffs) -> str:
        """sum_e coeffs[e] var^e, highest power first."""
        var = self.var
        return format_polynomial(self.base, (
            (c, "" if e == 0 else var if e == 1 else f"{var}^{e}")
            for e, c in reversed(list(enumerate(coeffs))) if not self.base.is_zero(c)))

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
        """a^-1 in the regular representation over the base field on
        1, u, ..., u^(d-1) (``linalg.regular``); it has none exactly when a
        is a zero divisor."""
        if self.is_zero(a):
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        K, d = self.base, self.degree
        if self._regular is None:  # the table of u^j u^k = u^(j+k), read off mul
            from . import axioms, linalg  # they import this module
            powers = [self.pow(self.gen(), m) for m in range(2 * d - 1)]
            table = {(j, k): {l: c for l, c in enumerate(powers[j + k]) if not K.is_zero(c)}
                     for j in range(d) for k in range(d)}
            self._regular = linalg.regular(axioms.field_ops(K), d, table, {0: K.one()})[0]
        y = self._regular.inv({i: c for i, c in enumerate(a) if not K.is_zero(c)})
        if y is None:
            raise ZeroDivisionError(f"{self.format(a)} is a zero divisor; modulus of {self.name} is reducible")
        return tuple(y.get(i, K.zero()) for i in range(d))

    def is_zero(self, a):
        return a == self._zero

    def is_one(self, a):
        return a == self._one

    def characteristic(self):
        return self.base.characteristic()

    def is_finite(self):
        return self.base.is_finite()

    def elements(self):
        for coeffs in product(list(self.base.elements()), repeat=self.degree):
            yield tuple(coeffs)

    def sqrt(self, a):
        """The first square root in ``elements()`` order, or None."""
        if not self.is_finite():
            raise RootSearchUnsupportedError(
                f"no exact root search over the infinite field {self.name}")
        return next((x for x in self.elements() if self.mul(x, x) == a), None)

    def format(self, a):
        return f"{self._polynomial(a)} in {self.name}"

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
