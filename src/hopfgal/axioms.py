"""One axiom checker on structure-constant tables.

An algebra A of rank n is read from tables in a record's form,
{key: {index: coeff}} with no zero coefficient, so no entry is tested for
zero again and a missing row reads as zero (``.get(key, {})``):
``mult[(i, j)]`` holds a_i a_j as {l: c}, ``unit`` holds 1_A as {i: c},
and ``coaction[i]`` holds rho(a_i) in A (x) H as {(j, k): c}.  The
coacting Hopf algebra H gives ``hmult``, ``hcomult`` and ``hcounit`` with
coefficients in the same ring; a Hopf algebra checked against itself is
the case A = H, rho = Delta.  Coefficients are handled by ``Ops``, the one
coefficient interface that ``linalg`` shares: the ground field's
operations on scalars for a Hopf algebra, the base ring's operations on
coefficient dicts for a bundle.  A record's tables hold their entries in
that form, field scalars in a Hopf algebra and coefficient dicts
{monomial: scalar} in a bundle, put there by ``normal`` when the record is
built, which also refuses an index out of range and an entry of another
ring; so every check reads the tables it was built with, as they are.

A product of basis elements is read off the table instead of being formed
from basis vectors, and a product with a coefficient 1 is the other
factor, so neither costs a multiplication.  Each check returns the first
failing basis index or tuple in the order its docstring gives, or None.

Map checks.  ``algebra_map`` and ``comodule_map`` test a map phi: A -> B
given by each phi(a_i) as a vector, and B by a function that yields the
terms of its product or coaction, so no table of B is built to be read
once.  Delta, the counit and a coaction are algebra maps (into A (x) A,
k, A (x) H), and coassociativity says rho is a comodule map into A (x) H
coacted on by id (x) Delta, whose terms are read off Delta's table.

Checks on generators.  ``word_tree`` finds, by a closure search over the
multiplication table, a generating set S such that every basis element is
a unit times a word s_1 (s_2 (... (s_k 1))) in S.  One ``Verdict`` per
algebra, its ``unit`` and associativity with the tree kept only when both
pass, is the premise of every reduction; the record holds it beside its
``ops`` as ``verdict``, built when first read, and each caller adds only
its map's own (phi(1) = 1, the target's verdict).  A reduction only ever
certifies a pass, so a failure, a failed premise or a missing tree (1 not
a unit times one basis element) runs the full scan, whose witness is
reported:

* associativity, inside the verdict once ``unit`` holds: the left nucleus
  {a : (a b) c = a (b c) for all b, c} is a subalgebra containing 1, so
  rows i in S suffice;
* multiplicativity of an algebra map phi: A -> B, among them Delta, the
  counit, a coaction and a bundle isomorphism, given A's tree once B
  passes its verdict and phi(1) = 1: the a with phi(a b) = phi(a) phi(b)
  for all b form a subalgebra, so rows i in S suffice
  (``algebra_map(..., tree)``);
* the antipode (``hopf.solve_antipode``), given H's tree once counit and
  coassociativity hold: S * id = counit(-) 1 is solved on the root and S
  closed under the left legs of Delta, then extended by
  S(a_s a_r) = S(a_r) S(a_s); the result is kept only when both antipode
  identities hold on every basis element, as then it is the unique
  inverse of id in the convolution algebra.  A singular sub-system, or
  one that is the whole system, runs the full solve.

Convolution.  ``convolution`` forms f * g for maps H -> A, every Sweedler
sum (over H (x) H for a cocycle), with identity ``counit_unit``, and
``solve_convolution`` solves x * g = expect for x: the antipode inverts id
over the ground field (A = H), a cleaving's inverse the cleaving over C.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import DimensionMismatchError, RingMismatchError
from .rings import BaseElement, BaseRing


# Coefficient operations of a field (on scalars) or of a base ring (on
# coefficient dicts, where {} is zero), the form in which the records hold
# their tables and ``linalg`` takes and returns matrix entries.  ``mul``
# skips a factor 1 and ``inv`` answers None for a non-unit.  Ops and
# WordTree are collections.namedtuples, so this module imports no
# ``typing``.
Ops = namedtuple("Ops", "zero one add neg mul is_zero is_one is_unit inv")


def _skipping_one(mul, is_one):
    # coefficients are kept in normal form, so a product with 1 is the
    # other factor as it stands
    def times(a, b):
        if is_one(a):
            return b
        if is_one(b):
            return a
        return mul(a, b)
    return times


def field_ops(K) -> Ops:
    """A field's operations; a unit is a nonzero, found with no inverse."""
    def inv(c):
        return None if K.is_zero(c) else K.inv(c)
    return Ops(K.zero(), K.one(), K.add, K.neg, _skipping_one(K.mul, K.is_one), K.is_zero,
               K.is_one, lambda c: not K.is_zero(c), inv)


def ring_ops(C) -> Ops:
    """The base ring C's operations on coefficient dicts.

    An element is 1 when its only term is the field's 1 on the constant
    monomial.  ``inv`` is ``C.try_inverse``, which re-checks a a^-1 = 1,
    memoized by value for the life of these Ops, so no entry is tested twice.
    """
    is_one_scalar, constant = C.field.is_one, (0,) * len(C.gens)

    def is_one(a):
        return len(a) == 1 and constant in a and is_one_scalar(a[constant])
    memo = {}

    def inv(a):
        key = frozenset(a.items())
        if key not in memo:
            e = C.try_inverse(BaseElement(C, a))
            memo[key] = None if e is None else e.coeffs
        return memo[key]
    return Ops({}, {constant: C.field.one()}, C._add, C._neg, _skipping_one(C._mul, is_one),
               operator.not_, is_one, lambda a: is_one(a) or inv(a) is not None, inv)


def normal(name: str, table: dict, keys: tuple, cols, over) -> dict:
    """A copy of table as a record holds it: zero entries and empty rows
    dropped, so that equality is field by field, and a BaseElement entry
    read as its coefficient dict.  ``over`` is the field of its scalars or
    the base ring of its coefficient dicts (RingMismatchError for an entry
    that is neither such a dict nor a BaseElement of it).  ``keys`` gives the bound n of each index of a key and
    ``cols`` of a row's keys, None for a vector (a row itself); an index
    outside range(n) raises DimensionMismatchError "<name> index out of range".
    """
    if isinstance(over, BaseRing):
        def vec(row):
            return {k: e for k, c in row.items() if (e := _coefficients(over, c))}
    elif any(map(over.is_zero, set(table.values() if cols is None else
                                   chain.from_iterable(map(dict.values, table.values()))))):
        def vec(row):
            return {k: c for k, c in row.items() if not over.is_zero(c)}
    else:
        vec = dict  # no entry is zero, found once per distinct scalar
    if cols is None:
        out = vec(table)
    else:
        out = {key: v for key, row in table.items() if (v := vec(row))}
        _in_range(name, set().union(*out.values()), cols)
    _in_range(name, out, keys)
    return out


def _coefficients(C, c) -> dict:
    """A table entry over C, a BaseElement or a coefficient dict, as the latter."""
    if isinstance(c, dict):
        return c
    if c.__class__ is not BaseElement:
        raise RingMismatchError(f"entry {c!r} is not an element of {C!r}")
    if c.ring is not C and c.ring != C:
        raise RingMismatchError(f"entry {c} lies in {c.ring!r}, not in {C!r}")
    return c.coeffs


def _in_range(name: str, indices, bounds: tuple) -> None:
    """DimensionMismatchError unless each index, an int for one bound n, else
    a tuple of one per bound, lies in range(n)."""
    if len(bounds) == 1:
        ok = set(indices) <= set(range(bounds[0]))
    else:
        ok = set(map(len, indices)) <= {len(bounds)} and all(
            set(map(itemgetter(p), indices)) <= set(range(n)) for p, n in enumerate(bounds))
    if not ok:
        raise DimensionMismatchError(f"{name} index out of range")


def accumulate(ops: Ops, pairs) -> dict:
    """Sum the values of (key, value) pairs per key; zero sums are dropped."""
    add = ops.add
    out: dict = {}
    for key, val in pairs:
        s = out.get(key)
        out[key] = val if s is None else add(s, val)
    return {k: v for k, v in out.items() if not ops.is_zero(v)}


def record(rep, name: str, bad, witness) -> None:
    """Add check `name` to a Report: passed when bad is None, else failed
    with the text witness(bad)."""
    rep.add(name, bad is None, "" if bad is None else witness(bad))


def first(*bad):
    """The least of the failures that are not None, else None."""
    return min((b for b in bad if b is not None), default=None)


def _first_index(left: dict, right: dict):
    """Least l among the keys (l, ...) on which two unequal dicts differ."""
    return min(key[0] for key in left.keys() | right.keys()
               if left.get(key) != right.get(key))


def unit(ops: Ops, n: int, mult: dict, unit: dict):
    """First i with 1 a_i != a_i or a_i 1 != a_i."""
    mul, get = ops.mul, mult.get
    for i in range(n):
        e = {i: ops.one}
        if (accumulate(ops, ((l, mul(u, m)) for k, u in unit.items()
                             for l, m in get((k, i), {}).items())) != e
                or accumulate(ops, ((l, mul(u, m)) for k, u in unit.items()
                                    for l, m in get((i, k), {}).items())) != e):
            return i
    return None


# gens: the generating set S, in the order chosen; root: 1 = u a_root with u
# a unit; steps: i -> (s, r, c) with a_s a_r = c a_i, c a unit, in the
# order reached
WordTree = namedtuple("WordTree", "gens root steps")


def word_tree(n: int, mult: dict, unit: dict, is_unit):
    """A generating set S, with a step a_s a_r = c a_i for each basis
    element a_i outside S but the root; None when 1 is not a unit times one
    basis element.

    A greedy closure search over the table, no linear algebra: the first
    basis element not reached yet joins S, then every generator multiplies
    every element reached so far on the left, and a product a_s a_r whose
    only term is c a_i with c a unit reaches a_i.  So each a_i outside S
    and the root is c^-1 a_s a_r for an a_r reached before it.
    """
    if len(unit) != 1:
        return None
    (root, u), = unit.items()
    if not is_unit(u):
        return None
    gens, steps, reached, seen = [], {}, [root], {root}
    done = 0  # reached[:done] have been multiplied by every generator

    def step(s, r):
        row = mult.get((s, r), {})
        if len(row) != 1:
            return
        (i, c), = row.items()
        if i not in seen and is_unit(c):
            seen.add(i)
            reached.append(i)
            steps[i] = (s, r, c)

    for a in range(n):
        if a in seen:
            continue
        gens.append(a)
        seen.add(a)
        reached.append(a)
        for r in reached[:done]:
            step(a, r)
        while done < len(reached):
            r = reached[done]
            done += 1
            for s in gens:
                step(s, r)
    return WordTree(tuple(gens), root, steps)


def on_generators(scan, n: int, tree):
    """scan(rows) on the generators of a word tree when one is given and
    they pass, else on every row: the generators only ever certify a pass."""
    if tree is not None and scan(tree.gens) is None:
        return None
    return scan(range(n))


def associativity(ops: Ops, n: int, mult: dict, tree=None):
    """First (i, j, l) in lexicographic order with (a_i a_j) a_l != a_i (a_j a_l).

    Both sides are formed for all l at once, keyed (l, index).  ``tree``, a
    word tree, may be given once ``unit`` holds.
    """
    mul, get = ops.mul, mult.get
    # the terms (l, r, c) of a_k a_l over all l, per k
    times = [[(l, r, c) for l in range(n) for r, c in get((k, l), {}).items()]
             for k in range(n)]

    def scan(rows):
        for i in rows:
            for j in range(n):
                left = accumulate(ops, (((l, r), mul(c, m)) for k, c in get((i, j), {}).items()
                                        for l, r, m in times[k]))
                right = accumulate(ops, (((l, r), mul(c, m)) for l, k, c in times[j]
                                         for r, m in get((i, k), {}).items()))
                if left != right:
                    return i, j, _first_index(left, right)
        return None

    return on_generators(scan, n, tree)


class Verdict:
    """An algebra's ``unit``, the first failure of ``unit``; ``assoc``, that
    of associativity, scanned when first read, on the generators of a word
    tree once ``unit`` holds; ``ok``, whether both are None; and ``tree``,
    that tree when both are, the premise of every reduction (None with no
    scan when there is no tree)."""

    def __init__(self, ops: Ops, n: int, mult: dict, one: dict):
        self.unit, self._args = unit(ops, n, mult, one), (ops, n, mult)
        self._tree = None if self.unit is not None else word_tree(n, mult, one, ops.is_unit)

    @cached_property
    def assoc(self):
        return associativity(*self._args, self._tree)

    @property
    def tree(self):
        return self._tree if self._tree is None or self.assoc is None else None

    @property
    def ok(self) -> bool:
        return self.unit is None and self.assoc is None


def commutativity(n: int, mult: dict):
    """First (i, j) with j < i in lexicographic order and a_i a_j != a_j a_i."""
    return next(((i, j) for i in range(n) for j in range(i)
                 if mult.get((i, j), {}) != mult.get((j, i), {})), None)


def coaction_counit(ops: Ops, n: int, coaction: dict, hcounit: dict):
    """First i with (id (x) counit) rho(a_i) != a_i; hcounit maps k to a nonzero c."""
    mul = ops.mul
    for i in range(n):
        back = accumulate(ops, ((j, mul(c, hcounit[k]))
                                for (j, k), c in coaction.get(i, {}).items() if k in hcounit))
        if back != {i: ops.one}:
            return i
    return None


def coassociativity(ops: Ops, n: int, coaction: dict, hcomult: dict):
    """First i with (rho (x) id) rho(a_i) != (id (x) Delta) rho(a_i)."""
    def id_tensor_delta(key):  # the terms of a_j (x) Delta(h_k), key (j, k)
        j, k = key
        return ((((j, a), b), c) for (a, b), c in hcomult.get(k, {}).items())
    return comodule_map(ops, n, coaction, coaction, id_tensor_delta)


def image(ops: Ops, phi: dict, vec: dict) -> dict:
    """phi(v) for v as {i: c}; phi maps i to phi(a_i) as {key: c}."""
    mul = ops.mul
    return accumulate(ops, ((key, mul(c, m)) for i, c in vec.items()
                            for key, m in phi.get(i, {}).items()))


def product(ops: Ops, mult: dict):
    """x y for vectors x, y, from a multiplication table; for
    ``algebra_map``, which sums the terms it yields."""
    mul = ops.mul
    return lambda x, y: ((l, mul(mul(cp, cq), m)) for p, cp in x.items() for q, cq in y.items()
                         for l, m in mult.get((p, q), {}).items())


def tensor_product(ops: Ops, mult: dict, hmult: dict):
    """``product`` for A (x) H, from the tables of A and H."""
    mul = ops.mul
    return lambda x, y: (((r, s), mul(mul(mul(cp, cq), cr), cs))
                         for (q, l), cq in y.items() for (p, k), cp in x.items()
                         for s, cs in hmult.get((k, l), {}).items()
                         for r, cr in mult.get((p, q), {}).items())


def algebra_map(ops: Ops, n: int, mult: dict, phi: dict, bmul, tree=None):
    """First (i, j) in lexicographic order with phi(a_i a_j) != phi(a_i) phi(a_j).

    phi maps i to phi(a_i) in B as {key: c}, and bmul is B's ``product``.
    Both sides are formed for all j at once, keyed (j, B-index).  ``tree``,
    the word tree of A's verdict, may be given once B is unital and
    associative and phi(1) = 1.
    """
    mul, get = ops.mul, mult.get

    def scan(rows):
        for i in rows:
            lhs = accumulate(ops, (((j, key), mul(c, c2)) for j in range(n)
                                   for l, c in get((i, j), {}).items()
                                   for key, c2 in phi.get(l, {}).items()))
            ti = phi.get(i, {})
            rhs = accumulate(ops, (((j, key), c) for j in range(n)
                                   for key, c in bmul(ti, phi.get(j, {}))))
            if lhs != rhs:
                return i, _first_index(lhs, rhs)
        return None

    return on_generators(scan, n, tree)


def comodule_map(ops: Ops, n: int, phi: dict, coaction: dict, bcoact):
    """First i with rho_B(phi(a_i)) != (phi (x) id) rho(a_i).

    phi maps i to phi(a_i) in B as {key: c}, and bcoact is B's coaction:
    given a basis key of B it yields the terms (key, c) of its image, as
    ``algebra_map``'s bmul yields B's products.
    """
    mul = ops.mul
    for i in range(n):
        lhs = accumulate(ops, ((key, mul(c, c2)) for p, c in phi.get(i, {}).items()
                               for key, c2 in bcoact(p)))
        rhs = accumulate(ops, (((q, k), mul(c, c2)) for (j, k), c in coaction.get(i, {}).items()
                               for q, c2 in phi.get(j, {}).items()))
        if lhs != rhs:
            return i
    return None


def counit_unit(ops: Ops, d: int, counit: dict, unit: dict) -> list:
    """[counit(h_i) 1 for i < d], the identity of convolution: counit maps i
    to a nonzero coefficient, and unit holds the 1 of A as {l: c}."""
    mul, is_zero = ops.mul, ops.is_zero
    return [{l: v for l, u in unit.items() if not is_zero(v := mul(counit[i], u))}
            if i in counit else {} for i in range(d)]


def convolution(ops: Ops, d: int, mult: dict, comult: dict, f: dict, g: dict) -> list:
    """[(f * g)(h_i) for i < d], (f * g)(h) = sum f(h_(1)) g(h_(2)) in A: f
    and g map j to their value at h_j in A as {l: c}, mult is A's table and
    comult H's, with coefficients in the same ring."""
    mul, get = ops.mul, mult.get
    return [accumulate(ops, ((r, mul(mul(c, x), mul(y, m)))
                             for (j, k), c in comult.get(i, {}).items()
                             for p, x in f.get(j, {}).items() for q, y in g.get(k, {}).items()
                             for r, m in get((p, q), {}).items()))
            for i in range(d)]


def solve_convolution(ops: Ops, n: int, mult: dict, comult: dict, g: dict, expect, sub: list,
                      solve):
    """{i: x(h_i)} for i in sub with (x * g)(h_i) = expect[i] for i in sub,
    or None when solve(M, b), a ``linalg`` solver, finds the system singular.

    A has rank n; mult, comult and g are as in ``convolution``.  The left
    legs of Delta(h_i), i in sub, must lie in sub, so the unknowns are the
    coordinates of x(h_j), j in sub: column p*k + z is the a_p coordinate of
    x(h_sub[z]), k = len(sub), and row y*n + l the a_l coordinate at h_sub[y].
    """
    k, mul, add, get = len(sub), ops.mul, ops.add, mult.get
    pos = {i: z for z, i in enumerate(sub)}
    rows, rhs = [{} for _ in range(k * n)], [ops.zero] * (k * n)
    for y, i in enumerate(sub):
        for (j, m), c in comult.get(i, {}).items():
            for q, gq in g.get(m, {}).items():
                cg = mul(c, gq)
                for p in range(n):
                    for l, v in get((p, q), {}).items():
                        row, col, t = rows[y * n + l], p * k + pos[j], mul(cg, v)
                        row[col] = add(row[col], t) if col in row else t
        for l, u in expect[i].items():
            rhs[y * n + l] = u
    sol = solve(rows, rhs)
    return None if sol is None else {
        i: {p: sol[p * k + z] for p in range(n) if not ops.is_zero(sol[p * k + z])}
        for z, i in enumerate(sub)}
