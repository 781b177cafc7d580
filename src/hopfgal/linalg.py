"""Exact linear algebra over the ground fields and over base rings.

Two layers:

* field_* functions share one sparse Gauss-Jordan kernel, ``_eliminate``.
  Rows are dicts column -> scalar holding only nonzeros, and scalars are
  touched only through the field's add/sub/mul/inv/is_zero, so the result
  is exact for every field the types accept.  Determinant and solve pick
  each pivot Markowitz-style (the shortest row, then its column with the
  fewest rows), which keeps fill-in low on sparse systems such as the
  antipode equations; the kernel takes columns left to right, so its basis
  is read off the reduced row echelon form.

* ring_* functions work on matrices of BaseElements over an arbitrary base
  ring, where zero divisors are possible and blind division is not.  The
  workhorse is elimination that only ever pivots on *units* of the ring
  (multiplying by an explicit inverse, exact over any commutative ring),
  falling back to the division-free Berkowitz determinant for any block
  without a unit entry.  A row update touches only the nonzero columns of
  the pivot row, in place.  The two determinant routes agree; tests pin that.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .fields import Field
from .rings import BaseElement, BaseRing, _berkowitz_dicts


# --------------------------------------------------------------------------
# field layer: matrices are lists of rows of raw scalars, each row a dense
# list or a sparse dict column -> scalar
# --------------------------------------------------------------------------

def _sparse_rows(M, field: Field) -> list:
    return [{c: x for c, x in (row.items() if isinstance(row, dict) else enumerate(row))
             if not field.is_zero(x)} for row in M]


def _eliminate(rows: list, field: Field, ncols: int, markowitz: bool) -> list:
    """Sparse Gauss-Jordan on ``rows`` in place; returns (row, col, pivot)s.

    Each pivot row ends scaled to 1 at its column, which is zero in every
    other row; columns >= ncols (a right-hand side) are never pivots.  With
    ``markowitz`` the pivot is the shortest unpivoted row and its column with
    the fewest rows, stopping at a row with no column left (the matrix is
    singular); otherwise columns go left to right: reduced row echelon form.
    """
    zero, sub, mul = field.zero(), field.sub, field.mul
    colrows = {}
    for i, row in enumerate(rows):
        for c in row:
            colrows.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    columns = iter(range(ncols))
    pivots = []
    while active:
        if markowitz:
            ln, i = heappop(heap)
            if i not in active or ln != len(rows[i]):
                continue  # stale entry: the row was pivoted or changed length
            c = min((k for k in rows[i] if k < ncols), default=None,
                    key=lambda k: (len(colrows[k]), k))
            if c is None:
                break
        else:
            c = next(columns, None)
            if c is None:
                break
            i = min((j for j in colrows.get(c, ()) if j in active), default=None,
                    key=lambda j: (len(rows[j]), j))
            if i is None:
                continue
        active.remove(i)
        prow = rows[i]
        pv = prow[c]
        pinv = field.inv(pv)
        for k in prow:
            prow[k] = mul(pinv, prow[k])
        pivots.append((i, c, pv))
        rest = [(k, y) for k, y in prow.items() if k != c]
        for j in colrows[c] - {i}:
            row = rows[j]
            f = row.pop(c)
            for k, y in rest:
                x = sub(row.get(k, zero), mul(f, y))
                if field.is_zero(x):
                    row.pop(k, None)
                    colrows[k].discard(j)
                else:
                    row[k] = x
                    colrows[k].add(j)
            if j in active:
                heappush(heap, (len(row), j))
        colrows[c] = {i}
    return pivots


def field_det(M, field: Field):
    n = len(M)
    pivots = _eliminate(_sparse_rows(M, field), field, n, True)
    if len(pivots) < n:
        return field.zero()
    det, perm, odd = field.one(), [0] * n, False
    for i, c, pv in pivots:
        det = field.mul(det, pv)
        perm[i] = c
    for i in range(n):  # sort the permutation row -> pivot column by swaps
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            odd = not odd
    return field.neg(det) if odd else det


def field_solve(M, b, field: Field):
    """Solve the square system M x = b; None if M is singular."""
    n = len(M)
    rows = _sparse_rows(M, field)
    for row, bv in zip(rows, b):
        if not field.is_zero(bv):
            row[n] = bv
    pivots = _eliminate(rows, field, n, True)
    if len(pivots) < n:
        return None
    x = [None] * n
    for i, c, _ in pivots:
        x[c] = rows[i].get(n, field.zero())
    return x


def field_kernel(M, field: Field, ncols: int):
    """Basis of the kernel of an (m x ncols) matrix, as coordinate lists:
    one vector per free column, set to 1 and the other free columns to 0."""
    rows = _sparse_rows(M, field)
    pivots = _eliminate(rows, field, ncols, False)
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
# ring layer: matrices are lists of lists of BaseElements
# --------------------------------------------------------------------------

def berkowitz_det(M, ring: BaseRing) -> BaseElement:
    raw = [[e.coeffs for e in row] for row in M]
    return ring.element(_berkowitz_dicts(ring, raw))


def _find_unit_pivot(M, ring: BaseRing, start: int):
    n = len(M)
    # cheap first: single-term entries (constants, monomials) invert fastest
    for sweep in (True, False):
        for i in range(start, n):
            for j in range(start, n):
                e = M[i][j]
                if e.is_zero or (sweep and len(e.coeffs) != 1):
                    continue
                inv = ring.try_inverse(e)
                if inv is not None:
                    return i, j, inv
        if not sweep:
            break
    return None


def ring_det(M, ring: BaseRing) -> BaseElement:
    """Determinant over any base ring: unit-pivot elimination, Berkowitz tail."""
    n = len(M)
    if n == 0:
        return ring.one()
    if ring.is_field:
        K = ring.field
        scal = field_det([[e.constant_scalar() for e in row] for row in M], K)
        return ring.from_scalar(scal)
    A = [list(row) for row in M]  # canonical-matrix rows are tuples
    sign = False
    diag = []
    for step in range(n):
        found = _find_unit_pivot(A, ring, step)
        if found is None:
            tail = [[A[i][j] for j in range(step, n)] for i in range(step, n)]
            rest = berkowitz_det(tail, ring)
            acc = rest
            for d in diag:
                acc = acc * d
            return -acc if sign else acc
        i, j, pinv = found
        if i != step:
            A[step], A[i] = A[i], A[step]
            sign = not sign
        if j != step:
            for row in A:
                row[step], row[j] = row[j], row[step]
            sign = not sign
        diag.append(A[step][step])
        nz = [(k, y) for k, y in enumerate(A[step]) if k > step and not y.is_zero]
        for r in range(step + 1, n):
            row = A[r]
            f = row[step]
            if f.is_zero:
                continue
            f = f * pinv
            row[step] = ring.zero()
            for k, y in nz:
                row[k] = row[k] - f * y
    acc = ring.one()
    for d in diag:
        acc = acc * d
    return -acc if sign else acc


def ring_solve(M, b, ring: BaseRing):
    """Solve the square system M x = b over the ring.

    Returns the unique solution when the determinant is a unit, else None.
    Unit-pivot Gauss-Jordan; if some block has no unit entry the rare Cramer
    fallback takes over (division-free determinants, one per unknown).
    """
    n = len(M)
    if ring.is_field:
        K = ring.field
        sol = field_solve([[e.constant_scalar() for e in row] for row in M],
                          [e.constant_scalar() for e in b], K)
        if sol is None:
            return None
        return [ring.from_scalar(c) for c in sol]
    A = [row[:] + [bv] for row, bv in zip(M, b)]
    colperm = list(range(n))
    for step in range(n):
        found = _find_unit_pivot(A, ring, step)
        if found is None:
            return _cramer_solve(M, b, ring)
        i, j, pinv = found
        if i != step:
            A[step], A[i] = A[i], A[step]
        if j != step:
            for row in A:
                row[step], row[j] = row[j], row[step]
            colperm[step], colperm[j] = colperm[j], colperm[step]
        prow = A[step]
        nz = [k for k, y in enumerate(prow) if k != step and not y.is_zero]
        for k in nz:
            prow[k] = pinv * prow[k]
        prow[step] = ring.one()
        for r in range(n):
            row = A[r]
            f = row[step]
            if r == step or f.is_zero:
                continue
            row[step] = ring.zero()
            for k in nz:
                row[k] = row[k] - f * prow[k]
    x = [None] * n
    for row_i in range(n):
        x[colperm[row_i]] = A[row_i][n]
    return x


def _cramer_solve(M, b, ring: BaseRing):
    d = berkowitz_det(M, ring)
    dinv = ring.try_inverse(d)
    if dinv is None:
        return None
    out = []
    for j in range(len(M)):
        Mj = [[b[i] if c == j else M[i][c] for c in range(len(M))] for i in range(len(M))]
        out.append(berkowitz_det(Mj, ring) * dinv)
    return out
