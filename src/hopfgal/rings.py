"""Base rings for bundles: towers of tame extensions of an exact field.

A ring is a ground field k together with an ordered list of generators, each
of one of three kinds:

* free       -- a polynomial variable (exponents >= 0)
* laurent    -- an invertible variable (exponents in Z, g * g^-1 = 1)
* root       -- g with g^n = u, where u is a unit of the subring generated by
                the *earlier* generators and n is invertible in k
                (exponents reduced into range(n))

Elements are finite sums of monomials with exact scalar coefficients, stored
as a dict from exponent tuples to scalars.  A product is summed once, term by
term; when a root exponent of the sum is out of range, one ``_reduce``
rewrites it down into range, always from the highest generator index toward
the lowest, which terminates because a root relation only involves earlier
generators.  The resulting normal form is unique, so ``==`` is decidable
equality.

Every ring built this way is commutative, reduced (root adjunctions of units
with invertible degree are etale) and free as a module over each prefix of
its tower.  Unit testing follows that structure: an element is a unit iff it
is constant in the free generators, its single Laurent monomial factor is
absorbed, and for each root extension its multiplication operator L on the
rank-n free module over the prefix ring is invertible, recursing to k: the
root's regular representation (``linalg.regular``, built once per ring)
solves L y = e_0 over the prefix ring, or answers None when det L is no
unit, and y is the inverse; the ring keeps each answer by value.  Each
inverse is re-verified by multiplication (an explicit check, not an assert,
so ``python -O`` keeps it).  A scalar times a monomial in the Laurent
generators alone is inverted directly, whatever roots lie above them.
Laurent generators must precede every root adjunction (TowerOrderError
otherwise): above a root adjunction that created idempotents, a unit need
not be a single Laurent monomial times a unit.  This module holds no linear
algebra: ``linalg`` imports it, so the root unit test imports ``linalg``
when it first runs.  Every power, a root value's included, is taken by
``fields.power``.

The strings of one document share one ``WorkBudget``, which also reads
each distinct string once: a repeat costs a dictionary lookup and
re-spends the work its first reading spent.  A string is parsed into the
syntax tree ``ast.parse`` would give, with the node classes of the C
module ``_ast``, so reading a document never loads ``ast``.

An optional grading assigns a non-negative degree to each generator.  Only
free generators may carry positive degree: a graded unit would otherwise be
forced into positive degree, which cannot happen in a non-negatively graded
ring.

A ``BaseMorphism`` computes on coefficient dicts, the form every record
holds: ``apply`` maps one of the source to one of the target, and calling
the morphism on a BaseElement checks its ring and wraps the image once.
"""

from __future__ import annotations

import _ast
import operator

from .errors import (
    BadScalarError,
    CharDividesError,
    GradingError,
    NonUnitError,
    RingMismatchError,
    TowerOrderError,
)
from .fields import Field, SimpleExtension, check_digits, format_polynomial, power
from .record import Record

# the pairs of terms the products and powers of one document may multiply
MAX_TERM_PRODUCTS = 1 << 16
# Largest |e| in a power b^e whose value can grow.  Exponents of nested powers
# multiply, so ((2^16)^16)^16 is refused like 2^4096.
MAX_POWER = 256

FREE = "free"
LAURENT = "laurent"
ROOT = "root"


class Generator(Record, frozen=True):
    name: str
    kind: str
    degree: int = 0  # root generators: the n of g^n = u
    grade: int = 0   # grading degree


def extension_levels(K: Field):
    """K and each field below it in its tower that is a simple extension,
    top first; their variables are the names a ring over K may not take."""
    while isinstance(K, SimpleExtension):
        yield K
        K = K.base


def refusal(gens: tuple, g: Generator):
    """The GradingError or TowerOrderError that refuses g above the
    generators gens, or None when g may follow them."""
    if g.grade < 0:
        return GradingError(f"generator {g.name} has negative grade")
    if g.grade > 0 and g.kind != FREE:
        return GradingError(
            f"generator {g.name} is {g.kind}; only free generators may have positive grade")
    if g.kind == LAURENT and any(h.kind == ROOT for h in gens):
        return TowerOrderError(f"laurent generator {g.name} comes after a root adjunction")
    return None


class BaseRing:
    """Immutable tower k[g_1, ..., g_m] as described in the module docstring.

    ``root_values[i]`` holds, for a root generator, the coefficient dict of u
    (an element supported on generators < i, exponent tuples already padded
    to full length); None for the other kinds.  Outside this module a root
    adjunction is read through ``root_value(i)``.
    """

    def __init__(self, field: Field, gens=(), root_values=()):
        self.field = field
        self.gens = tuple(gens)
        self.root_values = tuple(root_values)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for L in extension_levels(field):
            if L.var in names:
                raise ValueError(f"generator name {L.var} is a variable of {field.name}")
        for i, g in enumerate(self.gens):
            refused = refusal(self.gens[:i], g)
            if refused is not None:
                raise refused
        self._index = {g.name: i for i, g in enumerate(self.gens)}
        self._root_indices = tuple(i for i, g in enumerate(self.gens) if g.kind == ROOT)
        self._prefix_cache: dict[int, BaseRing] = {}
        self._root_pow_cache: dict[tuple[int, int], dict] = {}
        self._regular = None  # a top root's regular representation, built on first use
        self._root_inverses: dict = {}  # its inverses by coefficient dict, None for a non-unit
        self._names: dict | None = None  # _parse_names(), built on first use
        self._hash = None

    # -------------------------------------------------------------- basics

    @property
    def is_field(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, BaseRing) and self.field == other.field
                and self.gens == other.gens and self.root_values == other.root_values)

    def __hash__(self):
        if self._hash is None:
            rv = tuple(None if v is None else frozenset(v.items()) for v in self.root_values)
            self._hash = hash((self.field, self.gens, rv))
        return self._hash

    def __repr__(self):
        if not self.gens:
            return self.field.name
        parts = []
        for i, g in enumerate(self.gens):
            if g.kind == FREE:
                parts.append(g.name if g.grade == 0 else f"{g.name}({g.grade})")
            elif g.kind == LAURENT:
                parts.append(f"{g.name}^+-1")
            else:
                parts.append(f"{g.name}|{g.name}^{g.degree}={self.root_value(i)}")
        return f"{self.field.name}[{','.join(parts)}]"

    def root_value(self, i: int) -> BaseElement:
        """The u of root generator i (g_i^n = u), an element of the ring below it."""
        return BaseElement(self.prefix(i), {m[:i]: c for m, c in self.root_values[i].items()})

    # ------------------------------------------------------- constructing

    def _extended(self, gen: Generator, root_value=None) -> BaseRing:
        pad = tuple(None if v is None else {m + (0,): c for m, c in v.items()}
                    for v in self.root_values + (root_value,))
        ext = BaseRing(self.field, self.gens + (gen,), pad)
        ext._prefix_cache[len(self.gens)] = self  # a root value read off ext lies in self
        return ext

    def add_free(self, name: str, grade: int = 0) -> BaseRing:
        return self._extended(Generator(name, FREE, grade=grade))

    def add_laurent(self, name: str) -> BaseRing:
        return self._extended(Generator(name, LAURENT))

    def is_etale_over(self, k: int) -> bool:
        """Whether this tower is its stage k and then root adjunctions that
        ``adjoin_root`` would make, read on the tower itself: every root value
        lies on the generators before its own, and each generator from k on
        is a root meeting the premises ``root_refusal`` names."""
        m = len(self.gens)
        return (all(len(e) == m and not any(e[i:]) for i in self._root_indices
                    for e in self.root_values[i])
                and all(g.kind == ROOT and root_refusal(self.prefix(i), self.root_value(i),
                                                        g.degree) is None
                        for i, g in enumerate(self.gens[k:], k)))

    def prefix(self, k: int) -> BaseRing:
        if k == len(self.gens):
            return self
        if k not in self._prefix_cache:
            rv = tuple(None if v is None else {m[:k]: c for m, c in v.items()}
                       for v in self.root_values[:k])
            self._prefix_cache[k] = BaseRing(self.field, self.gens[:k], rv)
        return self._prefix_cache[k]

    # --------------------------------------------------------- elements

    def element(self, coeffs: dict) -> BaseElement:
        """The element with coefficient dict ``coeffs``, in normal form: zero
        coefficients dropped and root exponents past their degree reduced.
        A negative exponent off a Laurent generator raises ValueError."""
        K = self.field
        for m in coeffs:
            for g, e in zip(self.gens, m):
                if e < 0 and g.kind != LAURENT:
                    raise ValueError(f"negative exponent on non-laurent generator {g.name}")
        return BaseElement(self, self._normal({m: c for m, c in coeffs.items() if not K.is_zero(c)}))

    def zero(self) -> BaseElement:
        return BaseElement(self, {})

    def one(self) -> BaseElement:
        return BaseElement(self, {(0,) * len(self.gens): self.field.one()})

    def from_scalar(self, c) -> BaseElement:
        return self.element({(0,) * len(self.gens): c})

    def from_int(self, n: int) -> BaseElement:
        return self.from_scalar(self.field.from_int(n))

    def gen(self, name_or_index) -> BaseElement:
        i = name_or_index if isinstance(name_or_index, int) else self._index[name_or_index]
        m = [0] * len(self.gens)
        m[i] = 1
        return BaseElement(self, {tuple(m): self.field.one()})

    def monomial(self, exps: dict, coeff=None) -> BaseElement:
        m = [0] * len(self.gens)
        for name, e in exps.items():
            m[self._index[name]] = e
        c = coeff if coeff is not None else self.field.one()
        return self.element({tuple(m): c})

    # ----------------------------------------------- raw dict arithmetic

    def _add(self, A: dict, B: dict) -> dict:
        K = self.field
        out = dict(A)
        for m, c in B.items():
            if m in out:
                s = K.add(out[m], c)
                if K.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return out

    def _neg(self, A: dict) -> dict:
        K = self.field
        return {m: K.neg(c) for m, c in A.items()}

    def _scale(self, c, A: dict) -> dict:
        K = self.field
        if K.is_zero(c):
            return {}
        return {m: K.mul(c, x) for m, x in A.items()}

    def _mul(self, A: dict, B: dict) -> dict:
        K = self.field
        add, mul, is_zero = K.add, K.mul, K.is_zero
        out: dict = {}
        for m1, c1 in A.items():
            for m2, c2 in B.items():
                m = tuple(map(operator.add, m1, m2))
                c = mul(c1, c2)
                if m in out:
                    s = add(out[m], c)
                    if is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return self._normal(out)

    def _normal(self, terms: dict) -> dict:
        """terms, or ``_reduce(terms)`` when some root exponent is out of range."""
        roots, gens = self._root_indices, self.gens
        if roots and any(m[i] >= gens[i].degree for m in terms for i in roots):
            return self._reduce(terms)
        return terms

    def _reduce(self, terms: dict) -> dict:
        """Rewrite root exponents into range, highest generator first."""
        out: dict = {}
        K = self.field
        stack = list(terms.items())
        while stack:
            m, c = stack.pop()
            over = None
            for i in reversed(self._root_indices):
                if m[i] >= self.gens[i].degree:
                    over = i
                    break
            if over is None:
                out[m] = K.add(out[m], c) if m in out else c
                continue
            n = self.gens[over].degree
            q, r = divmod(m[over], n)
            base = list(m)
            base[over] = r
            for mu, cu in self._root_power(over, q).items():
                mm = tuple(map(operator.add, base, mu))
                stack.append((mm, K.mul(c, cu)))
        return {m: c for m, c in out.items() if not K.is_zero(c)}

    def _root_power(self, i: int, q: int) -> dict:
        """Normal form of u_i ** q as a coefficient dict (support on gens < i)."""
        key = (i, q)
        if key not in self._root_pow_cache:
            self._root_pow_cache[key] = self._pow(self.root_values[i], q)
        return self._root_pow_cache[key]

    def _pow(self, A: dict, e: int, mul=None) -> dict:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        return power(A, e, mul or self._mul, {(0,) * len(self.gens): self.field.one()})

    # ------------------------------------------------------------- units

    def try_inverse(self, a: BaseElement):
        """The inverse of a, or None if a is not a unit."""
        if a.ring != self:
            raise RingMismatchError("element of a different ring")
        inv = self._try_inv_dict(a.coeffs)
        if inv is None:
            return None
        result = BaseElement(self, inv)
        if a * result != self.one():
            raise RuntimeError(f"internal error: computed inverse of {a} fails a * inv == 1")
        return result

    def is_unit(self, a: BaseElement) -> bool:
        return self.try_inverse(a) is not None

    def inverse(self, a: BaseElement) -> BaseElement:
        inv = self.try_inverse(a)
        if inv is None:
            raise NonUnitError(f"{a} is not a unit of {self!r}")
        return inv

    def _try_inv_dict(self, d: dict):
        if not d:
            return None
        m = len(self.gens)
        if len(d) == 1:
            [(mono, c)] = d.items()
            if all(e == 0 or g.kind == LAURENT for e, g in zip(mono, self.gens)):
                # c * m with m a Laurent monomial: (c m)^-1 = c^-1 m^-1
                return {tuple(-e for e in mono): self.field.inv(c)}
        if self.gens[-1].kind == ROOT:
            return self._root_try_inv(d)
        # a unit of this reduced ring is constant in a free generator; no root
        # lies below a Laurent generator, so the prefix is a domain and a unit
        # has a single exponent e there
        [e, *more] = {mono[-1] for mono in d}
        if more or (e and self.gens[-1].kind == FREE):
            return None
        inv = self.prefix(m - 1)._try_inv_dict({mono[:-1]: c for mono, c in d.items()})
        if inv is None:
            return None
        return {mono + (-e,): c for mono, c in inv.items()}

    def _root_try_inv(self, d: dict):
        """_try_inv_dict when the last generator is a root r with r^n = u: the inverse
        in the regular representation over the prefix ring on 1, r, ..., r^(n-1)."""
        if self._regular is None:  # r^j r^k is r^(j+k), or u r^(j+k-n) once j + k >= n
            from . import axioms, linalg  # they import this module
            sub, n = self.prefix(len(self.gens) - 1), self.gens[-1].degree
            one, u = sub.one().coeffs, self.root_value(len(self.gens) - 1).coeffs
            table = {(j, k): {(j + k) % n: u if j + k >= n else one} for j in range(n) for k in range(n)}
            self._regular = linalg.regular(axioms.ring_ops(sub), n, table, {0: one})[0]
        key = frozenset(d.items())
        if key not in self._root_inverses:
            coords = {}
            for mono, c in d.items():
                coords.setdefault(mono[-1], {})[mono[:-1]] = c
            y = self._regular.inv(coords)  # None, or the inverse's nonzero coordinates
            self._root_inverses[key] = y and {m + (k,): c for k, yk in y.items() for m, c in yk.items()}
        return self._root_inverses[key]

    # --------------------------------------------------------- formatting

    def format_element(self, a: BaseElement) -> str:
        return self.format_coeffs(a.coeffs)

    def format_coeffs(self, coeffs: dict) -> str:
        """The element with coefficient dict ``coeffs``, as ``format_element``
        writes it."""
        names = [g.name for g in self.gens]
        return format_polynomial(self.field, (
            (coeffs[mono], "*".join(nm if e == 1 else f"{nm}^{e}"
                                    for nm, e in zip(names, mono) if e))
            for mono in sorted(coeffs, reverse=True)))

    def _parse_names(self) -> dict:
        """The names parse_element reads: the generators, then each variable
        of the field tower, embedded into the top."""
        if self._names is None:
            self._names = {g.name: self.gen(i) for i, g in enumerate(self.gens)}
            embed = lambda x: x
            for K in extension_levels(self.field):
                self._names[K.var] = self.from_scalar(embed(K.gen()))
                embed = lambda x, up=embed, K=K: up((x, *K.zero()[1:]))  # K.base into the top
        return self._names

    def parse_element(self, text: str, spend=None, noun: str = "element") -> BaseElement:
        """The element ``text`` spells: integer literals, the generators (and
        an extension field's variable) by name, +, -, *, division by a unit,
        and integer powers written ^ or **.

        A power of a value that can grow raises to at most MAX_POWER,
        counted through nested powers.  Products and powers pay the pairs of
        terms they multiply from ``spend`` (a ``WorkBudget``), one budget
        per call unless the caller shares one.  Anything else raises
        BadScalarError, whose message calls ``text`` the ``noun``.
        """
        self._parse_names()
        spend = spend or WorkBudget()

        def mul(A: dict, B: dict) -> dict:
            spend(len(A) * len(B))
            return self._mul(A, B)
        try:
            tree = syntax_tree(text.replace("^", "**").strip())
            a = self._eval_node(tree.body, noun, mul)
        except SyntaxError as exc:
            raise BadScalarError(f"cannot parse {noun} {text!r}: {exc.msg}") from None
        except ZeroDivisionError:  # a zero divisor of a reducible extension field
            raise BadScalarError(f"division by zero in {noun} {text!r}") from None
        except RecursionError:
            raise BadScalarError(f"{noun} nests too deeply to parse") from None
        check_digits(self.field, a.coeffs.values(), text)
        return a

    def _power_grows(self, a: BaseElement) -> bool:
        """Whether powers of a can grow.  They cannot when a is 0, or one term
        free of root generators whose coefficient is +-1 or lies in a finite
        field."""
        if len(a.coeffs) != 1:
            return bool(a.coeffs)
        [(m, c)] = a.coeffs.items()
        K = self.field
        return (any(m[i] for i in self._root_indices)
                or not (K.is_finite() or c in (K.one(), K.neg(K.one()))))

    def _eval_node(self, node, noun, mul, room=MAX_POWER) -> BaseElement:
        if isinstance(node, _ast.Constant):
            if isinstance(node.value, int):
                return self.from_int(node.value)
            raise BadScalarError(f"non-integer literal {node.value!r} in {noun}")
        if isinstance(node, _ast.Name):
            if node.id in self._names:
                return self._names[node.id]
            raise BadScalarError(f"unknown name {node.id!r} in {noun} over {self!r}")
        if isinstance(node, _ast.UnaryOp) and isinstance(node.op, (_ast.USub, _ast.UAdd)):
            v = self._eval_node(node.operand, noun, mul, room)
            return -v if isinstance(node.op, _ast.USub) else v
        if isinstance(node, _ast.BinOp):
            if isinstance(node.op, _ast.Pow):
                e = exponent(node.right)
                base = self._eval_node(node.left, noun, mul, room // max(abs(e), 1))
                check_power(e, room, self._power_grows(base))
                if e < 0:
                    inv = self.try_inverse(base)
                    if inv is None:
                        raise BadScalarError(f"negative power of the non-unit {base}")
                    base = inv
                return BaseElement(self, self._pow(base.coeffs, abs(e), mul))
            a = self._eval_node(node.left, noun, mul, room)
            b = self._eval_node(node.right, noun, mul, room)
            if isinstance(node.op, _ast.Add):
                return a + b
            if isinstance(node.op, _ast.Sub):
                return a - b
            if isinstance(node.op, _ast.Div):
                inv = self.try_inverse(b)
                if inv is None:
                    raise BadScalarError(f"division by the non-unit {b}")
                b = inv
            if isinstance(node.op, (_ast.Mult, _ast.Div)):
                return BaseElement(self, mul(a.coeffs, b.coeffs))
        raise BadScalarError(f"unsupported syntax in {noun} expression")


def syntax_tree(text: str):
    """``ast.parse(text, mode="eval")``, made by the compile() call that
    ast.parse makes, with the node classes of ``_ast``, the C module that
    ``ast`` re-exports; so parsing loads no ``ast`` module."""
    return compile(text, "<unknown>", "eval", _ast.PyCF_ONLY_AST, dont_inherit=True)


def exponent(node) -> int:
    """The integer literal, possibly negated, that an ast power node raises to."""
    sign = 1
    if isinstance(node, _ast.UnaryOp) and isinstance(node.op, _ast.USub):
        sign, node = -1, node.operand
    if not (isinstance(node, _ast.Constant) and isinstance(node.value, int)):
        raise BadScalarError("exponent must be an integer literal")
    return sign * node.value


def check_power(e: int, room: int, grows: bool):
    """Refuse b^e when b can grow and |e| exceeds the room the enclosing powers left."""
    if grows and abs(e) > room:
        nested = "" if room == MAX_POWER else " once multiplied by the enclosing exponents"
        raise BadScalarError(f"exponent {e} exceeds the exponent cap {MAX_POWER}{nested}")


class WorkBudget:
    """A spend(pairs) that refuses once the products and powers paid from it
    have multiplied more than MAX_TERM_PRODUCTS pairs of terms in all, with
    the memo of the values ``read`` under it."""

    __slots__ = ("room", "_memo")

    def __init__(self):
        self.room = MAX_TERM_PRODUCTS
        self._memo = {}

    def __call__(self, pairs: int):
        self.room -= pairs
        if self.room < 0:
            raise BadScalarError("products and powers multiply more pairs of terms than "
                                 f"the work cap of {MAX_TERM_PRODUCTS}")

    def read(self, read, text: str):
        """read(text, self), once per reader and text: a repeat re-spends
        the pairs the first read spent, so the cap trips at the same
        string, and returns the same value.  Errors are not remembered."""
        key = (read, text)
        hit = self._memo.get(key)
        if hit is None:
            room = self.room
            value = read(text, self)
            hit = self._memo[key] = (value, room - self.room)
        else:
            self(hit[1])
        return hit[0]


class BaseElement:
    """A normal-form element of a BaseRing.  Immutable by convention."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: BaseRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixing elements of {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        self._check(other)
        return BaseElement(self.ring, self.ring._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return BaseElement(self.ring, self.ring._neg(self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return BaseElement(self.ring, self.ring._scale(self.ring.field.from_int(other), self.coeffs))
        self._check(other)
        return BaseElement(self.ring, self.ring._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.ring.inverse(self) ** (-e)
        return BaseElement(self.ring, self.ring._pow(self.coeffs, e))

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self * self.ring.inverse(other)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_scalar(self):
        """The scalar c when self == c * 1, else None."""
        if not self.coeffs:
            return self.ring.field.zero()
        zero_mono = (0,) * len(self.ring.gens)
        if set(self.coeffs) == {zero_mono}:
            return self.coeffs[zero_mono]
        return None

    def __eq__(self, other):
        if not isinstance(other, BaseElement):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __repr__(self):
        return self.ring.format_element(self)


# --------------------------------------------------------------------------
# ring constructors
# --------------------------------------------------------------------------

def base_ring(field: Field) -> BaseRing:
    return BaseRing(field)


def polynomial_ring(field: Field, *names: str, grades=None) -> BaseRing:
    R = BaseRing(field)
    grades = grades or (0,) * len(names)
    for nm, gr in zip(names, grades):
        R = R.add_free(nm, grade=gr)
    return R


def laurent_ring(field: Field, *names: str) -> BaseRing:
    R = BaseRing(field)
    for nm in names:
        R = R.add_laurent(nm)
    return R


def fresh_name(ring: BaseRing, stem: str) -> str:
    """The first of stem, stem2, ... that names nothing parse_element reads."""
    used = ring._parse_names()
    if stem not in used:
        return stem
    i = 2
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


def root_refusal(ring: BaseRing, u: BaseElement, n: int):
    """The error that refuses an n-th root of u over ring, or None when the
    adjunction is etale: n >= 1, n prime to the characteristic, u a unit."""
    if n < 1:
        return ValueError("root degree must be positive")
    p = ring.field.characteristic()
    if p and n % p == 0:
        return CharDividesError(f"degree {n} is not invertible in characteristic {p}")
    if not ring.is_unit(u):
        return NonUnitError(f"cannot adjoin a root of the non-unit {u}")
    return None


def adjoin_root(ring: BaseRing, u: BaseElement, n: int, name: str | None = None):
    """Adjoin an n-th root of the unit u: returns (extension, inclusion, root).

    The extension k-tower gains one root generator r with r^n = u.  Requires
    u to be a unit (NonUnitError) and n to be invertible in the ground field
    (CharDividesError); under those hypotheses the extension is etale, hence
    still reduced.  A root generator takes no grade.
    """
    if u.ring != ring:
        raise RingMismatchError("root value must live in the ring being extended")
    refused = root_refusal(ring, u, n)
    if refused is not None:
        raise refused
    nm = name or fresh_name(ring, "r")
    if nm in {g.name for g in ring.gens}:
        raise ValueError(f"generator name {nm} already used")
    ext = ring._extended(Generator(nm, ROOT, degree=n), root_value=u.coeffs)
    incl = inclusion_morphism(ring, ext)
    return ext, incl, ext.gen(nm)


class IntervalRing(Record, frozen=True):
    """A ring C[t] with inclusion and the two evaluation morphisms."""

    ring: BaseRing
    t: BaseElement
    include: "BaseMorphism"
    at_zero: "BaseMorphism"
    at_one: "BaseMorphism"
    t_name: str


def extend_with_t(ring: BaseRing) -> IntervalRing:
    """Adjoin a free interval variable t with evaluation maps at 0 and 1."""
    nm = fresh_name(ring, "t")
    ext = ring.add_free(nm)
    incl = inclusion_morphism(ring, ext)
    images0 = {g.name: ring.gen(g.name) for g in ring.gens}
    ev0 = BaseMorphism(ext, ring, {**images0, nm: ring.zero()})
    ev1 = BaseMorphism(ext, ring, {**images0, nm: ring.one()})
    return IntervalRing(ext, ext.gen(nm), incl, ev0, ev1, nm)


def inclusion_morphism(small: BaseRing, big: BaseRing) -> BaseMorphism:
    return BaseMorphism(small, big, {g.name: big.gen(g.name) for g in small.gens})


# --------------------------------------------------------------------------
# morphisms
# --------------------------------------------------------------------------

class BaseMorphism:
    """A ring homomorphism fixing the ground field, given on generators.

    Validated at construction: Laurent generator images must be units and
    root generator images must satisfy the image of the defining relation.
    Powers of the generator images are cached as coefficient dicts, a
    Laurent generator's inverse as its power -1.
    """

    def __init__(self, source: BaseRing, target: BaseRing, images: dict):
        if source.field != target.field:
            raise RingMismatchError("morphisms must fix the ground field")
        self.source = source
        self.target = target
        self.images: list[BaseElement] = []
        for g in source.gens:
            if g.name not in images:
                raise RingMismatchError(f"no image given for generator {g.name}")
            img = images[g.name]
            if img.ring != target:
                raise RingMismatchError(f"image of {g.name} lives in the wrong ring")
            self.images.append(img)
        self._pow_cache: dict[tuple[int, int], dict] = {}
        for i, g in enumerate(source.gens):
            if g.kind == LAURENT:
                inv = target.try_inverse(self.images[i])
                if inv is None:
                    raise NonUnitError(f"image of laurent generator {g.name} must be a unit")
                self._pow_cache[i, -1] = inv.coeffs
            elif g.kind == ROOT:
                u = source.root_values[i]
                if target._pow(self.images[i].coeffs, g.degree) != self.apply(u):
                    raise RingMismatchError(f"image of root generator {g.name} violates "
                                            f"{g.name}^{g.degree} = {source.format_coeffs(u)}")

    def _gen_power(self, i: int, e: int) -> dict:
        if (i, e) not in self._pow_cache:
            base = self.images[i].coeffs if e > 0 else self._pow_cache[i, -1]
            self._pow_cache[i, e] = self.target._pow(base, abs(e))
        return self._pow_cache[i, e]

    def apply(self, a: dict) -> dict:
        """The image of the source element with coefficient dict a, as the
        target's coefficient dict."""
        T = self.target
        const, out = (0,) * len(T.gens), {}
        for mono, c in a.items():
            term = {const: c}
            for i, e in enumerate(mono):
                if e:
                    term = T._mul(term, self._gen_power(i, e))
            out = T._add(out, term)
        return out

    def __call__(self, a: BaseElement) -> BaseElement:
        if a.ring != self.source:
            raise RingMismatchError("element is not in the source ring")
        return BaseElement(self.target, self.apply(a.coeffs))

    def __eq__(self, other):
        if not isinstance(other, BaseMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, tuple(frozenset(i.coeffs.items()) for i in self.images)))

    def __repr__(self):
        ims = ", ".join(f"{g.name}->{img}" for g, img in zip(self.source.gens, self.images))
        return f"<{self.source!r} -> {self.target!r}: {ims}>"


def identity_morphism(ring: BaseRing) -> BaseMorphism:
    return BaseMorphism(ring, ring, {g.name: ring.gen(g.name) for g in ring.gens})


def compose(f: BaseMorphism, g: BaseMorphism) -> BaseMorphism:
    """The composite 'f then g' (source of g must be the target of f)."""
    if f.target != g.source:
        raise RingMismatchError("morphisms do not compose")
    images = {gen.name: g(img) for gen, img in zip(f.source.gens, f.images)}
    return BaseMorphism(f.source, g.target, images)
