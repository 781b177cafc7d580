"""Exact linear algebra over the ground fields and over base rings.

One sparse Gauss-Jordan kernel, ``_eliminate``, serves both layers.  Rows
are dicts column -> coefficient holding only nonzeros, and coefficients are
touched only through the operations passed in: a field's add, neg and mul
on its scalars, or a base ring's ``_add``, ``_neg`` and ``_mul`` on
coefficient dicts (monomial -> scalar), where the empty dict is zero.  Ring
entries are unwrapped from BaseElements once on the way in and results
wrapped once on the way out, so the result is exact for every field the
types accept and for every base ring, zero divisors included.

* Pivots are units only, and a pivot row is scaled by the pivot's inverse.
  The caller supplies the inverse: ``field.inv`` for a field, where every
  nonzero is a unit; for a base ring, ``try_inverse`` memoized by entry
  value within one call, which answers None for a non-unit, so no entry is
  tested twice.
* Determinant and solve pick each pivot Markowitz-style: the shortest row,
  then its unit entry in the column with the fewest rows.  This keeps
  fill-in low on sparse systems such as the antipode equations.  A row
  with no unit entry waits until an update changes it; a row with no entry
  at all ends elimination, as the matrix is then singular.  The kernel of a
  field matrix takes columns left to right instead, so its basis is read
  off the reduced row echelon form.
* Over a base ring elimination can stall: the rows still active at the end
  have no unit entry.  Those rows, on the columns no pivot took, form the
  block elimination could not reduce.  ``ring_det`` multiplies the pivots,
  the division-free Berkowitz determinant of that block and the sign of the
  full row -> column permutation.  ``ring_solve`` of a stalled system falls
  back to Cramer's rule on Berkowitz determinants, one per unknown.
  Berkowitz runs once per connected component of the block's nonzero
  pattern (``rings._berkowitz_dicts``): a block that falls apart into
  independent pieces costs what the pieces cost, and one with a
  non-square piece is singular outright.
"""

from __future__ import annotations

import operator
from heapq import heapify, heappop, heappush
from typing import Callable, NamedTuple

from .fields import Field
from .rings import BaseElement, BaseRing, _berkowitz_dicts, odd_permutation


class _Ops(NamedTuple):
    zero: object
    one: object
    add: Callable
    neg: Callable
    mul: Callable
    is_zero: Callable


def _field_ops(field: Field) -> _Ops:
    return _Ops(field.zero(), field.one(), field.add, field.neg, field.mul, field.is_zero)


def _ring_ops(ring: BaseRing) -> _Ops:
    return _Ops({}, ring.one().coeffs, ring._add, ring._neg, ring._mul, operator.not_)


def _unit_inverse(ring: BaseRing):
    """ring.try_inverse on coefficient dicts, memoized by entry value for
    one elimination."""
    memo = {}

    def inv(d):
        key = frozenset(d.items())
        if key not in memo:
            e = ring.try_inverse(BaseElement(ring, d))
            memo[key] = None if e is None else e.coeffs
        return memo[key]
    return inv


def _items(row):
    return row.items() if isinstance(row, dict) else enumerate(row)


def _sparse_rows(M, is_zero) -> list:
    """Rows of M, each a dense list or a sparse dict column -> entry, as
    dicts holding only the nonzero entries."""
    return [{c: x for c, x in _items(row) if not is_zero(x)} for row in M]


def _coeff_rows(M) -> list:
    """Rows of BaseElements as sparse dicts column -> coefficient dict."""
    return [{c: e.coeffs for c, e in _items(row) if e.coeffs} for row in M]


def _eliminate(rows: list, ops: _Ops, inv, ncols: int, markowitz: bool) -> list:
    """Sparse Gauss-Jordan on ``rows`` in place; returns (row, col, pivot)s.

    ``inv`` returns the inverse of an entry, or None for a non-unit.  Each
    pivot row ends scaled to 1 at its column, which is zero in every other
    row; columns >= ncols (a right-hand side) are never pivots.  With
    ``markowitz`` the pivot is a unit entry of the shortest unpivoted row,
    in its column with the fewest rows; otherwise columns go left to right
    (every nonzero must then be a unit, as over a field).
    """
    _, _, add, neg, mul, is_zero = ops
    colrows = {}
    for i, row in enumerate(rows):
        for c in row:
            colrows.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    columns = iter(range(ncols))
    pivots = []
    while active and (heap or not markowitz):
        if markowitz:
            ln, i = heappop(heap)
            if i not in active or ln != len(rows[i]):
                continue  # stale entry: the row was pivoted or changed length
            cols = sorted((k for k in rows[i] if k < ncols), key=lambda k: (len(colrows[k]), k))
            if not cols:
                break
            for c in cols:
                pinv = inv(rows[i][c])
                if pinv is not None:
                    break
            else:
                continue  # no unit entry: the row waits for an update
        else:
            c = next(columns, None)
            if c is None:
                break
            i = min((j for j in colrows.get(c, ()) if j in active), default=None,
                    key=lambda j: (len(rows[j]), j))
            if i is None:
                continue
            pinv = inv(rows[i][c])
        active.remove(i)
        prow = rows[i]
        pv = prow[c]
        for k in prow:
            prow[k] = mul(pinv, prow[k])
        pivots.append((i, c, pv))
        rest = [(k, y) for k, y in prow.items() if k != c]
        for j in colrows[c] - {i}:
            row = rows[j]
            f = neg(row.pop(c))
            for k, y in rest:
                x = mul(f, y)
                if k in row:
                    x = add(row[k], x)
                if is_zero(x):
                    row.pop(k, None)
                    colrows[k].discard(j)
                else:
                    row[k] = x
                    colrows[k].add(j)
            if j in active:
                heappush(heap, (len(row), j))
        colrows[c] = {i}
    return pivots


def _det(rows: list, ops: _Ops, inv, tail):
    """Determinant of the square matrix ``rows`` (sparse, consumed).

    ``tail`` is the determinant of the block elimination could not reduce,
    given as dense rows; over a field that block never arises.
    """
    n = len(rows)
    pivots = _eliminate(rows, ops, inv, n, True)
    det, perm = ops.one, [None] * n
    for i, c, pv in pivots:
        det = ops.mul(det, pv)
        perm[i] = c
    left = [i for i in range(n) if perm[i] is None]
    if any(not rows[i] for i in left):
        return ops.zero
    if left:
        cols = sorted(set(range(n)).difference(perm))
        det = ops.mul(det, tail([[rows[i].get(c, ops.zero) for c in cols] for i in left]))
        for i, c in zip(left, cols):
            perm[i] = c
    return ops.neg(det) if odd_permutation(perm) else det


def _solve(rows: list, b, ops: _Ops, inv):
    """Solve the square system rows x = b (sparse rows, consumed), or None
    if elimination pivots on fewer than n columns."""
    n = len(rows)
    for row, bv in zip(rows, b):
        if not ops.is_zero(bv):
            row[n] = bv
    pivots = _eliminate(rows, ops, inv, n, True)
    if len(pivots) < n:
        return None
    x = [None] * n
    for i, c, _ in pivots:
        x[c] = rows[i].get(n, ops.zero)
    return x


# --------------------------------------------------------------------------
# field layer: matrices are lists of rows of raw scalars, each row a dense
# list or a sparse dict column -> scalar
# --------------------------------------------------------------------------

def field_det(M, field: Field):
    return _det(_sparse_rows(M, field.is_zero), _field_ops(field), field.inv, None)


def field_solve(M, b, field: Field):
    """Solve the square system M x = b; None if M is singular."""
    return _solve(_sparse_rows(M, field.is_zero), b, _field_ops(field), field.inv)


def field_kernel(M, field: Field, ncols: int):
    """Basis of the kernel of an (m x ncols) matrix, as coordinate lists:
    one vector per free column, set to 1 and the other free columns to 0."""
    rows = _sparse_rows(M, field.is_zero)
    pivots = _eliminate(rows, _field_ops(field), field.inv, ncols, False)
    pivot_cols = {c for _, c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for i, c, _ in pivots:
            v[c] = field.neg(rows[i].get(fc, field.zero()))
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# ring layer: matrices are lists of rows of BaseElements, each row a dense
# list (or tuple) or a sparse dict column -> element
# --------------------------------------------------------------------------

def berkowitz_det(M, ring: BaseRing) -> BaseElement:
    raw = [[e.coeffs for e in row] for row in M]
    return ring.element(_berkowitz_dicts(ring, raw))


def _scalars(M) -> list:
    return [{c: e.constant_scalar() for c, e in row.items()} if isinstance(row, dict)
            else [e.constant_scalar() for e in row] for row in M]


def ring_det(M, ring: BaseRing) -> BaseElement:
    """Determinant over any base ring: unit-pivot elimination, Berkowitz tail."""
    if ring.is_field:
        return ring.from_scalar(field_det(_scalars(M), ring.field))

    def tail(block):
        return berkowitz_det([[BaseElement(ring, x) for x in row] for row in block], ring).coeffs
    return BaseElement(ring, _det(_coeff_rows(M), _ring_ops(ring), _unit_inverse(ring), tail))


def ring_solve(M, b, ring: BaseRing):
    """Solve the square system M x = b over the ring.

    Returns the unique solution when the determinant is a unit, else None.
    A system whose elimination stalls goes to Cramer's rule.
    """
    if ring.is_field:
        sol = field_solve(_scalars(M), [e.constant_scalar() for e in b], ring.field)
        return None if sol is None else [ring.from_scalar(c) for c in sol]
    x = _solve(_coeff_rows(M), [e.coeffs for e in b], _ring_ops(ring), _unit_inverse(ring))
    return _cramer_solve(M, b, ring) if x is None else [BaseElement(ring, v) for v in x]


def _cramer_solve(M, b, ring: BaseRing):
    n, zero = len(M), ring.zero()
    M = [[row.get(c, zero) for c in range(n)] if isinstance(row, dict) else row for row in M]
    d = berkowitz_det(M, ring)
    dinv = ring.try_inverse(d)
    if dinv is None:
        return None
    out = []
    for j in range(n):
        Mj = [[b[i] if c == j else M[i][c] for c in range(n)] for i in range(n)]
        out.append(berkowitz_det(Mj, ring) * dinv)
    return out
