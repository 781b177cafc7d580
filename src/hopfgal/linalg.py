"""Exact linear algebra over the ground fields and over base rings.

One sparse Gauss-Jordan kernel, ``_eliminate``, serves both.  Rows are
dicts column -> coefficient holding only nonzeros, and coefficients are
touched only through an ``axioms.Ops``, the interface the axiom checker
uses too: a field's operations on its scalars, or a base ring's on
coefficient dicts (monomial -> scalar), where the empty dict is zero.
Entries are read once on the way in (``Ops.raw``, a BaseElement's
``.coeffs``) and results written once on the way out (``Ops.wrap``), so
the result is exact for every field the types accept and for every base
ring, zero divisors included.

* Pivots are units only, and a pivot row is scaled by the pivot's inverse,
  ``Ops.inv``: over a field every nonzero is a unit; over a base ring it is
  ``try_inverse`` memoized by entry value, which answers None for a
  non-unit, so no entry is tested twice.
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
  the division-free Berkowitz determinant of that block
  (``rings._berkowitz_dicts``) and the sign of the full row -> column
  permutation.  Berkowitz runs once per connected component of the block's
  nonzero pattern: a block that falls apart into independent pieces costs
  what the pieces cost, and one with a non-square piece is singular
  outright.  ``ring_solve`` of a stalled system takes the characteristic
  polynomial of the block; when its constant term is a unit, Cayley-Hamilton
  gives the block's unknowns, and the pivot rows give the rest.  The unit
  tests under a root (``rings.BaseRing._root_try_inv``) are such solves.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush

from .axioms import Ops, field_ops, ring_ops
from .fields import Field
from .rings import BaseElement, BaseRing, _berkowitz_dicts, _charpoly_dicts, odd_permutation


def _rows(M, ops: Ops) -> list:
    """Rows of M, each a dense list or a sparse dict column -> entry, as
    dicts column -> coefficient holding only the nonzeros."""
    raw, is_zero = ops.raw, ops.is_zero
    rows = []
    for row in M:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        rows.append({c: x for c, x in ((c, raw(e)) for c, e in items) if not is_zero(x)})
    return rows


def _eliminate(rows: list, ops: Ops, ncols: int, markowitz: bool) -> list:
    """Sparse Gauss-Jordan on ``rows`` in place; returns (row, col, pivot)s.

    ``ops.inv`` gives the inverse of an entry, or None for a non-unit.
    Each pivot row ends scaled to 1 at its column, which is zero in every
    other row; columns >= ncols (a right-hand side) are never pivots.  With
    ``markowitz`` the pivot is a unit entry of the shortest unpivoted row,
    in its column with the fewest rows; otherwise columns go left to right
    (every nonzero must then be a unit, as over a field).
    """
    add, neg, mul, is_zero, inv = ops.add, ops.neg, ops.mul, ops.is_zero, ops.inv
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


def _det(M, ops: Ops, ring: BaseRing | None = None):
    """Determinant of the square matrix M.

    The block elimination could not reduce goes to Berkowitz over ``ring``;
    over a field that block never arises.
    """
    rows = _rows(M, ops)
    n = len(rows)
    pivots = _eliminate(rows, ops, n, True)
    det, perm = ops.one, [None] * n
    for i, c, pv in pivots:
        det = ops.mul(det, pv)
        perm[i] = c
    left = [i for i in range(n) if perm[i] is None]
    if any(not rows[i] for i in left):
        return ops.wrap(ops.zero)
    if left:
        cols = sorted(set(range(n)).difference(perm))
        det = ops.mul(det, _berkowitz_dicts(ring, [[rows[i].get(c, ops.zero) for c in cols]
                                                   for i in left]))
        for i, c in zip(left, cols):
            perm[i] = c
    return ops.wrap(ops.neg(det) if odd_permutation(perm) else det)


def _solve(M, b, ops: Ops, ring: BaseRing | None = None):
    """Solve the square system M x = b; None unless det M is a unit.

    Over ``ring`` the block B elimination could not reduce is solved by
    Cayley-Hamilton: with det(tI - B) = t^k + c_1 t^(k-1) + ... + c_k,
    B^-1 = -c_k^-1 (B^(k-1) + c_1 B^(k-2) + ... + c_(k-1) I), applied to
    the right-hand side by Horner's rule.  Over a field a stall means M is
    singular.
    """
    rows = _rows(M, ops)
    n = len(rows)
    for row, bv in zip(rows, b):
        bv = ops.raw(bv)
        if not ops.is_zero(bv):
            row[n] = bv
    pivots = _eliminate(rows, ops, n, True)
    zero, add, neg, mul = ops.zero, ops.add, ops.neg, ops.mul
    taken = {i for i, _, _ in pivots}
    left = [rows[i] for i in range(n) if i not in taken]
    y = {}
    if left:
        # a row of B with one entry: elimination found it no unit, nor is det B
        if ring is None or any(len(row) - (n in row) < 2 for row in left):
            return None
        cols = sorted(set(range(n)).difference(c for _, c, _ in pivots))
        poly = _charpoly_dicts(ring, [[row.get(c, zero) for c in cols] for row in left])
        f = ops.inv(neg(poly[-1]))
        if f is None:
            return None
        B = [[(j, row[c]) for j, c in enumerate(cols) if c in row] for row in left]
        rhs = v = [row.get(n, zero) for row in left]
        for c in poly[1:-1]:
            v = [reduce(add, (mul(e, v[j]) for j, e in Bi), mul(c, r)) for Bi, r in zip(B, rhs)]
        y = {c: mul(f, vc) for c, vc in zip(cols, v)}
    x = dict(y)
    for i, c, _ in pivots:
        row = rows[i]
        x[c] = reduce(add, (neg(mul(row[k], yk)) for k, yk in y.items() if k in row),
                      row.get(n, zero))
    return [ops.wrap(x[c]) for c in range(n)]


# --------------------------------------------------------------------------
# field layer: matrices are lists of rows of raw scalars; ring layer: lists
# of rows of BaseElements.  Each row is a dense list (or tuple) or a sparse
# dict column -> entry.
# --------------------------------------------------------------------------

def field_det(M, field: Field):
    return _det(M, field_ops(field))


def field_solve(M, b, field: Field):
    """Solve the square system M x = b; None if M is singular."""
    return _solve(M, b, field_ops(field))


def field_kernel(M, field: Field, ncols: int):
    """Basis of the kernel of an (m x ncols) matrix, as coordinate lists:
    one vector per free column, set to 1 and the other free columns to 0."""
    ops = field_ops(field)
    rows = _rows(M, ops)
    pivots = _eliminate(rows, ops, ncols, False)
    pivot_cols = {c for _, c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for i, c, _ in pivots:
            v[c] = ops.neg(rows[i].get(fc, ops.zero))
        basis.append(v)
    return basis


def berkowitz_det(M, ring: BaseRing) -> BaseElement:
    return BaseElement(ring, _berkowitz_dicts(ring, [[e.coeffs for e in row] for row in M]))


def ring_det(M, ring: BaseRing) -> BaseElement:
    """Determinant over any base ring: unit-pivot elimination, Berkowitz tail."""
    return _det(M, ring_ops(ring), ring)


def ring_solve(M, b, ring: BaseRing):
    """Solve the square system M x = b over the ring.

    Returns the unique solution when the determinant is a unit, else None.
    """
    return _solve(M, b, ring_ops(ring), ring)
