"""One axiom checker on structure-constant tables.

An algebra A of rank n is read from tables with zero coefficients dropped
once per call (``sparse``): ``mult[(i, j)]`` holds the terms (l, c) of
a_i a_j, ``unit`` the terms of 1_A, and ``coaction[i]`` the terms
((j, k), c) of rho(a_i) in A (x) H.  The coacting Hopf algebra H gives
``hmult``, ``hcomult`` and ``hcounit`` with coefficients in the same ring;
a Hopf algebra checked against itself is the case A = H, rho = Delta.
Coefficients are handled by ``Ops``, the one coefficient interface that
``linalg`` shares: the ground field's operations on scalars for a Hopf
algebra, the base ring's operations on coefficient dicts for a bundle.
``terms`` and ``sparse`` read each table entry once through ``Ops.raw``
(a BaseElement's ``.coeffs``), so every check on a bundle runs on raw
dicts; ``total`` sums table entries and writes them back through
``Ops.wrap``.

A product of basis elements is read off the table instead of being formed
from basis vectors, and a product with a coefficient 1 is the other
factor, so neither costs a multiplication.  Each check returns the first
failing basis index or tuple in the order its docstring gives, or None.

Map checks.  ``algebra_map`` and ``comodule_map`` test a map phi: A -> B
given by the terms of each phi(a_i).  Delta, the counit and a coaction
are algebra maps (into A (x) A, k, A (x) H), and coassociativity says rho
is a comodule map into A (x) H coacted on by id (x) Delta.

Checks on generators.  ``word_tree`` finds, by a closure search over the
multiplication table, a generating set S such that every basis element is
a unit times a word s_1 (s_2 (... (s_k 1))) in S.  Four reductions use
it; each only ever certifies a pass, so a failure, a failed premise or a
missing tree (1 not a unit times one basis element) runs the full scan,
whose witness is the one reported:

* associativity, once ``unit`` holds: the left nucleus
  {a : (a b) c = a (b c) for all b, c} is a subalgebra containing 1, so
  rows i in S suffice (``associativity(..., gens)``);
* multiplicativity of an algebra map phi: A -> B, among them Delta, the
  counit, a coaction and (the fourth) a bundle isomorphism, once A and B
  pass ``unit`` and associativity and phi(1) = 1: the a with
  phi(a b) = phi(a) phi(b) for all b form a subalgebra, so rows i in S
  suffice (``algebra_map(..., gens)``);
* the antipode (``hopf.solve_antipode``), once unit, counit,
  associativity and coassociativity hold: the square system is solved on
  the root and S closed under the left legs of Delta, then extended by
  S(a_s a_r) = S(a_r) S(a_s); the result is kept only when both antipode
  identities hold on every basis element, as then it is the unique
  inverse of id in the convolution algebra.  A singular sub-system, or
  one that is the whole system, runs the full solve.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import partial

from .rings import BaseElement


# Coefficient operations of a field (on scalars) or of a base ring (on
# coefficient dicts, where {} is zero).  ``mul`` skips a factor 1, ``inv``
# answers None for a non-unit, and ``raw``/``wrap`` read a table entry as a
# coefficient and write a coefficient back as an entry.  Ops and WordTree
# are collections.namedtuples, so this module imports no ``typing``.
Ops = namedtuple("Ops", "zero one add neg mul is_zero is_one is_unit inv raw wrap")


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


def _same(x):
    return x


def field_ops(K) -> Ops:
    """A field's operations; a unit is a nonzero, found with no inverse."""
    def inv(c):
        return None if K.is_zero(c) else K.inv(c)
    return Ops(K.zero(), K.one(), K.add, K.neg, _skipping_one(K.mul, K.is_one), K.is_zero,
               K.is_one, lambda c: not K.is_zero(c), inv, _same, _same)


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
    return Ops({}, C.one().coeffs, C._add, C._neg, _skipping_one(C._mul, is_one),
               operator.not_, is_one, lambda a: is_one(a) or inv(a) is not None, inv,
               operator.attrgetter("coeffs"), partial(BaseElement, C))


def terms(ops: Ops, vec: dict) -> tuple:
    """The items of vec with a nonzero value, each value read by ``ops.raw``."""
    raw, is_zero = ops.raw, ops.is_zero
    return tuple((k, c) for k, c in ((k, raw(e)) for k, e in vec.items()) if not is_zero(c))


def sparse(ops: Ops, table: dict) -> dict:
    """{key: {index: entry}} as {key: terms}, empty rows dropped."""
    rows = ((key, terms(ops, row)) for key, row in table.items())
    return {key: row for key, row in rows if row}


def accumulate(ops: Ops, pairs) -> dict:
    """Sum the values of (key, value) pairs per key; zero sums are dropped."""
    add = ops.add
    out: dict = {}
    for key, val in pairs:
        s = out.get(key)
        out[key] = val if s is None else add(s, val)
    return {k: v for k, v in out.items() if not ops.is_zero(v)}


def total(ops: Ops, pairs) -> dict:
    """``accumulate`` for table entries: each value is read by ``ops.raw``
    and each sum written back by ``ops.wrap``."""
    raw, wrap = ops.raw, ops.wrap
    return {k: wrap(v) for k, v in accumulate(ops, ((k, raw(v)) for k, v in pairs)).items()}


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


def unit(ops: Ops, n: int, mult: dict, unit: tuple):
    """First i with 1 a_i != a_i or a_i 1 != a_i."""
    mul, get = ops.mul, mult.get
    for i in range(n):
        e = {i: ops.one}
        if (accumulate(ops, ((l, mul(u, m)) for k, u in unit for l, m in get((k, i), ()))) != e
                or accumulate(ops, ((l, mul(u, m)) for k, u in unit
                                    for l, m in get((i, k), ()))) != e):
            return i
    return None


# gens: the generating set S, in the order chosen; root: 1 = u a_root with u
# a unit; steps: i -> (s, r, c) with a_s a_r = c a_i, c a unit, in the
# order reached
WordTree = namedtuple("WordTree", "gens root steps")


def word_tree(n: int, mult: dict, unit: tuple, is_unit):
    """A generating set S, with a step a_s a_r = c a_i for each basis
    element a_i outside S but the root; None when 1 is not a unit times one
    basis element.

    A greedy closure search over the table, no linear algebra: the first
    basis element not reached yet joins S, then every generator multiplies
    every element reached so far on the left, and a product a_s a_r whose
    only term is c a_i with c a unit reaches a_i.  So each a_i outside S
    and the root is c^-1 a_s a_r for an a_r reached before it.
    """
    if len(unit) != 1 or not is_unit(unit[0][1]):
        return None
    root = unit[0][0]
    gens, steps, reached, seen = [], {}, [root], {root}
    done = 0  # reached[:done] have been multiplied by every generator

    def step(s, r):
        row = mult.get((s, r), ())
        if len(row) == 1 and row[0][0] not in seen and is_unit(row[0][1]):
            i, c = row[0]
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


def unit_tree(ops: Ops, n: int, mult: dict, unit_terms: tuple):
    """The first failure of ``unit``, and a word tree when there is none."""
    bad = unit(ops, n, mult, unit_terms)
    return bad, None if bad is not None else word_tree(n, mult, unit_terms, ops.is_unit)


def on_generators(scan, n: int, gens):
    """scan(rows) on the generators when they are given and pass, else on
    every row: the generators only ever certify a pass."""
    if gens is not None and scan(gens) is None:
        return None
    return scan(range(n))


def associativity(ops: Ops, n: int, mult: dict, gens=None):
    """First (i, j, l) in lexicographic order with (a_i a_j) a_l != a_i (a_j a_l).

    Both sides are formed for all l at once, keyed (l, index).  ``gens``,
    the generators of a word tree, may be given once ``unit`` holds.
    """
    mul, get = ops.mul, mult.get
    # the terms (l, r, c) of a_k a_l over all l, per k
    times = [[(l, r, c) for l in range(n) for r, c in get((k, l), ())] for k in range(n)]

    def scan(rows):
        for i in rows:
            for j in range(n):
                left = accumulate(ops, (((l, r), mul(c, m)) for k, c in get((i, j), ())
                                        for l, r, m in times[k]))
                right = accumulate(ops, (((l, r), mul(c, m)) for l, k, c in times[j]
                                         for r, m in get((i, k), ())))
                if left != right:
                    return i, j, _first_index(left, right)
        return None

    return on_generators(scan, n, gens)


def unital_associative(ops: Ops, n: int, mult: dict, unit_terms: tuple) -> bool:
    """Whether ``unit`` and associativity hold."""
    bad, tree = unit_tree(ops, n, mult, unit_terms)
    return bad is None and associativity(
        ops, n, mult, None if tree is None else tree.gens) is None


def commutativity(n: int, mult: dict):
    """First (i, j) with j < i in lexicographic order and a_i a_j != a_j a_i."""
    return next(((i, j) for i in range(n) for j in range(i)
                 if dict(mult.get((i, j), ())) != dict(mult.get((j, i), ()))), None)


def coaction_counit(ops: Ops, n: int, coaction: dict, hcounit: dict):
    """First i with (id (x) counit) rho(a_i) != a_i; hcounit maps k to a nonzero c."""
    mul = ops.mul
    for i in range(n):
        back = accumulate(ops, ((j, mul(c, hcounit[k]))
                                for (j, k), c in coaction.get(i, ()) if k in hcounit))
        if back != {i: ops.one}:
            return i
    return None


def coassociativity(ops: Ops, n: int, coaction: dict, hcomult: dict):
    """First i with (rho (x) id) rho(a_i) != (id (x) Delta) rho(a_i)."""
    id_delta = {(j, k): tuple((((j, a), b), c) for (a, b), c in hcomult.get(k, ()))
                for t in coaction.values() for (j, k), _ in t}
    return comodule_map(ops, n, coaction, coaction, id_delta)


def image(ops: Ops, phi: dict, vec) -> dict:
    """phi(v) for v given by its terms (i, c); phi maps i to the terms of phi(a_i)."""
    mul = ops.mul
    return accumulate(ops, ((key, mul(c, m)) for i, c in vec for key, m in phi.get(i, ())))


def product(ops: Ops, mult: dict):
    """x y for x, y given by their terms, from a multiplication table; for
    ``algebra_map``, which sums the terms it yields."""
    mul = ops.mul
    return lambda x, y: ((l, mul(mul(cp, cq), m)) for p, cp in x for q, cq in y
                         for l, m in mult.get((p, q), ()))


def tensor_product(ops: Ops, mult: dict, hmult: dict):
    """``product`` for A (x) H, from the tables of A and H."""
    mul = ops.mul
    return lambda x, y: (((r, s), mul(mul(mul(cp, cq), cr), cs))
                         for (q, l), cq in y for (p, k), cp in x
                         for s, cs in hmult.get((k, l), ()) for r, cr in mult.get((p, q), ()))


def algebra_map(ops: Ops, n: int, mult: dict, phi: dict, bmul, gens=None):
    """First (i, j) in lexicographic order with phi(a_i a_j) != phi(a_i) phi(a_j).

    phi maps i to the terms of phi(a_i) in B, and bmul is B's ``product``.
    Both sides are formed for all j at once, keyed (j, B-index).  ``gens``,
    the generators of a word tree of A, may be given once A and B are
    unital and associative and phi(1) = 1.
    """
    mul, get = ops.mul, mult.get

    def scan(rows):
        for i in rows:
            lhs = accumulate(ops, (((j, key), mul(c, c2)) for j in range(n)
                                   for l, c in get((i, j), ())
                                   for key, c2 in phi.get(l, ())))
            ti = phi.get(i, ())
            rhs = accumulate(ops, (((j, key), c) for j in range(n)
                                   for key, c in bmul(ti, phi.get(j, ()))))
            if lhs != rhs:
                return i, _first_index(lhs, rhs)
        return None

    return on_generators(scan, n, gens)


def comodule_map(ops: Ops, n: int, phi: dict, coaction: dict, bcoaction: dict):
    """First i with rho_B(phi(a_i)) != (phi (x) id) rho(a_i).

    phi maps i to the terms of phi(a_i) in B, and bcoaction is the coaction
    table of B.
    """
    mul = ops.mul
    for i in range(n):
        lhs = accumulate(ops, ((key, mul(c, c2)) for p, c in phi.get(i, ())
                               for key, c2 in bcoaction.get(p, ())))
        rhs = accumulate(ops, (((q, k), mul(c, c2)) for (j, k), c in coaction.get(i, ())
                               for q, c2 in phi.get(j, ())))
        if lhs != rhs:
            return i
    return None


def antipode(ops: Ops, n: int, mult: dict, comult: dict, S: dict, expect: list, left: bool):
    """First i with sum S(h_(1)) h_(2) != expect[i] for h = a_i, or with
    sum h_(1) S(h_(2)) when left is False; S maps j to the terms of S(a_j)."""
    mul, get = ops.mul, mult.get
    for i in range(n):
        got = accumulate(ops, ((r, mul(mul(c, s), m)) for (j, k), c in comult.get(i, ())
                               for p, s in S.get(j if left else k, ())
                               for r, m in get((p, k) if left else (j, p), ())))
        if got != expect[i]:
            return i
    return None
