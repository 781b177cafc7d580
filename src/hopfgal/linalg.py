"""Exact linear algebra over the ground fields and over base rings.

One sparse Gauss-Jordan kernel, ``_eliminate``, serves both.  Rows are
dicts column -> coefficient holding only nonzeros, and coefficients are
touched only through an ``axioms.Ops``, the interface the axiom checker
uses too: a field's operations on its scalars, or a base ring's on
coefficient dicts (monomial -> scalar), where the empty dict is zero.
Matrix entries and results are in that form, the form in which the
records hold their tables, so nothing is converted on the way in or out,
and the result is exact for every field the types accept and for every
base ring, zero divisors included.

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
  block elimination could not reduce (``_stalled``).  ``ring_det``
  multiplies the pivots, the division-free Berkowitz determinant of that
  block (``_berkowitz``) and the sign of the full row -> column
  permutation.  Berkowitz runs once per connected component of the block's
  nonzero pattern: a block that falls apart into independent pieces costs
  what the pieces cost, and one with a non-square piece is singular
  outright.  ``ring_solve`` of a stalled system takes the characteristic
  polynomial of the block (``_charpoly``); when its constant term is a
  unit, Cayley-Hamilton gives the block's unknowns, and the pivot rows give
  the rest.  The unit tests under a root (``rings.BaseRing._root_try_inv``)
  are such solves.  Both use only ``Ops.zero``, ``one``, ``add``, ``neg``,
  ``mul`` and ``is_zero``.  Over a field elimination stops only at an empty
  row, and the matrix is then singular.
* ``regular`` turns an algebra free of finite rank over a field or a base
  ring, given by its multiplication table, into one more ``Ops``: its
  ``inv`` is a solve with the matrix L_x of multiplication by x, and its
  norm is det L_x.  It inverts in every finite extension: a simple field
  extension (``fields``), a root adjunction over the ring below it
  (``rings``) and a commutative bundle over its base (``galois.is_galois``,
  whose ``_det`` over the bundle gives up at a stall, ``wait`` False).
"""

from __future__ import annotations

import operator
from functools import reduce
from heapq import heapify, heappop, heappush

from .axioms import Ops, accumulate, field_ops, product, ring_ops
from .fields import Field
from .rings import BaseRing


def _rows(M, ops: Ops) -> list:
    """Rows of M, each a dense list or a sparse dict column -> entry, as
    dicts column -> entry holding only the nonzeros."""
    is_zero = ops.is_zero
    return [{c: x for c, x in (row.items() if isinstance(row, dict) else enumerate(row))
             if not is_zero(x)} for row in M]


def _eliminate(rows: list, ops: Ops, ncols: int, markowitz: bool, wait=True) -> list:
    """Sparse Gauss-Jordan on ``rows`` in place; returns (row, col, pivot)s.

    ``ops.inv`` gives the inverse of an entry, or None for a non-unit.
    Each pivot row ends scaled to 1 at its column, which is zero in every
    other row; columns >= ncols (a right-hand side) are never pivots.  With
    ``markowitz`` the pivot is a unit entry of the shortest unpivoted row,
    in its column with the fewest rows, and a row with no unit entry waits
    for an update, or with ``wait`` False ends elimination; otherwise
    columns go left to right (every nonzero must then be a unit, as over a
    field).
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
            cols = [k for k in rows[i] if k < ncols]
            if len(cols) > 1:
                cols.sort(key=lambda k: (len(colrows[k]), k))
            if not cols:
                break
            for c in cols:
                pinv = inv(rows[i][c])
                if pinv is not None:
                    break
            else:
                if wait:
                    continue  # no unit entry: the row waits for an update
                break
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
        others, colrows[c] = colrows[c], {i}
        others.discard(i)
        for j in others:
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
    return pivots


def _stalled(rows: list, pivots: list, n: int) -> tuple:
    """The rows, and the columns below n, that got no pivot: on them lies the
    block elimination could not reduce."""
    taken = {i for i, _, _ in pivots}
    return ([i for i in range(len(rows)) if i not in taken],
            sorted(set(range(n)).difference(c for _, c, _ in pivots)))


def _det(M, ops: Ops, wait=True):
    """Determinant of the square matrix M: the pivots, times Berkowitz on the
    block elimination could not reduce, times the sign of the permutation.
    With ``wait`` False, elimination ends at the first row with no unit
    entry, and then the answer is None unless some row is zero."""
    rows = _rows(M, ops)
    n = len(rows)
    pivots = _eliminate(rows, ops, n, True, wait)
    left, cols = _stalled(rows, pivots, n)
    if any(not rows[i] for i in left):
        return ops.zero
    if left and not wait:
        return None
    block = [[rows[i].get(c, ops.zero) for c in cols] for i in left]
    det = ops.mul(reduce(ops.mul, (pv for _, _, pv in pivots), ops.one), _berkowitz(block, ops))
    perm = dict(zip(left, cols))
    perm.update((i, c) for i, c, _ in pivots)
    return ops.neg(det) if odd_permutation([perm[i] for i in range(n)]) else det


def _solve(M, b, ops: Ops):
    """Solve the square system M x = b; None unless det M is a unit.

    The block B elimination could not reduce is solved by Cayley-Hamilton:
    with det(tI - B) = t^k + c_1 t^(k-1) + ... + c_k,
    B^-1 = -c_k^-1 (B^(k-1) + c_1 B^(k-2) + ... + c_(k-1) I), applied to
    the right-hand side by Horner's rule.
    """
    rows = _rows(M, ops)
    n = len(rows)
    if not all(rows):  # a zero row: M is singular
        return None
    for row, bv in zip(rows, b):
        if not ops.is_zero(bv):
            row[n] = bv
    pivots = _eliminate(rows, ops, n, True)
    zero, add, neg, mul = ops.zero, ops.add, ops.neg, ops.mul
    left, cols = _stalled(rows, pivots, n)
    y = {}
    if left:
        # a row of B with at most one entry: elimination found it no unit, nor is det B
        if any(len(rows[i]) - (n in rows[i]) < 2 for i in left):
            return None
        poly = _charpoly([[rows[i].get(c, zero) for c in cols] for i in left], ops)
        f = ops.inv(neg(poly[-1]))
        if f is None:
            return None
        B = [[(j, rows[i][c]) for j, c in enumerate(cols) if c in rows[i]] for i in left]
        rhs = v = [rows[i].get(n, zero) for i in left]
        for c in poly[1:-1]:
            v = [reduce(add, (mul(e, v[j]) for j, e in Bi), mul(c, r)) for Bi, r in zip(B, rhs)]
        y = {c: mul(f, vc) for c, vc in zip(cols, v)}
    x = dict(y)
    for i, c, _ in pivots:  # with no block, each pivot row is solved as it stands
        row = rows[i]
        x[c] = reduce(add, (neg(mul(row[k], yk)) for k, yk in y.items() if k in row),
                      row.get(n, zero)) if y else row.get(n, zero)
    return [x[c] for c in range(n)]


def _charpoly(M, ops: Ops) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(tI - M), highest degree first.

    Berkowitz's method: iteratively build the characteristic polynomial
    vector of each leading principal submatrix by multiplying Toeplitz
    matrices assembled from the row/column bordering it.  No divisions, so
    it is valid over any commutative ring, zero divisors included.  Products
    with a zero factor are skipped: the multiplication matrix of a monomial
    has one nonzero entry per column.
    """
    n = len(M)
    if n == 0:
        return [ops.one]
    zero, add, neg, mul, is_zero = ops.zero, ops.add, ops.neg, ops.mul, ops.is_zero

    def dot(R, vec):
        acc = zero
        for r, v in zip(R, vec):
            if not (is_zero(r) or is_zero(v)):
                acc = add(acc, mul(r, v))
        return acc

    # charpoly vector of the 1x1 leading block: [1, -M[0][0]]
    poly = [ops.one, neg(M[0][0])]
    for k in range(1, n):
        # R = row (M[k][0..k-1]), C = column (M[0..k-1][k]) = vec, a = M[k][k]
        R = M[k][:k]
        vec = [M[j][k] for j in range(k)]
        # Toeplitz column entries: t_0 = 1, t_1 = -a, t_{i+2} = -(R . A^i C)
        toep = [ops.one, neg(M[k][k])]
        for _ in range(k - 1):
            toep.append(neg(dot(R, vec)))
            vec = [dot(M[j][:k], vec) for j in range(k)]
        toep.append(neg(dot(R, vec)))
        poly = [dot(toep[i::-1], poly) for i in range(k + 2)]
    return poly


def _berkowitz(M, ops: Ops):
    """Determinant of a square matrix of coefficients.

    The rows and columns fall into the connected components of the graph
    joining row i to column j when M[i][j] is nonzero.  det M is 0 when a
    component has more rows than columns or fewer; otherwise it is the
    product of the components' determinants, each division-free as (-1)^k
    times the last coefficient c_k of ``_charpoly``, times the sign of the
    permutation pairing each component's rows with its columns in
    increasing order.
    """
    n = len(M)
    parent = list(range(2 * n))  # row i is node i, column j is node n + j

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if not ops.is_zero(x):
                parent[find(i)] = find(n + j)
    components: dict = {}
    for x in range(2 * n):
        components.setdefault(find(x), []).append(x)
    det, perm = ops.one, [0] * n
    for nodes in components.values():
        rows = [x for x in nodes if x < n]
        cols = [x - n for x in nodes if x >= n]
        if len(rows) != len(cols):
            return ops.zero
        for i, j in zip(rows, cols):
            perm[i] = j
        c = _charpoly([[M[i][j] for j in cols] for i in rows], ops)[-1]
        det = ops.mul(det, ops.neg(c) if len(rows) % 2 else c)
    return ops.neg(det) if odd_permutation(perm) else det


def regular(ops: Ops, n: int, table: dict, one: dict):
    """The regular representation of an algebra free of rank n over a base
    ring or over a field, on whose coefficients ``ops`` works: table[(i, j)]
    holds a_i a_j as {k: c}, and ``one`` holds 1 as {i: c}.

    Returns (Ops, norm).  The Ops work on vectors {i: c} of the algebra;
    its ``inv`` solves L_x y = 1, where L_x is the matrix of multiplication
    by x (column k is x a_k).  norm(x) is det L_x.
    This is exact when the algebra is commutative, unital and associative:
    then x y = 1 for the y found, and x is a unit exactly when its norm is.
    """
    add, mul, get, empty, times = ops.add, ops.mul, table.get, {}, product(ops, table)

    def lmat(x):
        rows = [{} for _ in range(n)]
        for j, xj in x.items():
            last = None  # x_j m is formed once per run of one coefficient object m in the table
            for k in range(n):
                for l, m in get((j, k), empty).items():
                    if m is not last:
                        last, t = m, mul(xj, m)
                    row = rows[l]
                    row[k] = add(row[k], t) if k in row else t
        return rows

    def inv(x):
        y = _solve(lmat(x), [one.get(i, ops.zero) for i in range(n)], ops)
        return None if y is None else {i: c for i, c in enumerate(y) if not ops.is_zero(c)}
    algebra = Ops({}, one, lambda x, y: accumulate(ops, (*x.items(), *y.items())),
                  lambda x: {i: ops.neg(c) for i, c in x.items()},
                  lambda x, y: accumulate(ops, times(x, y)), operator.not_, one.__eq__,
                  lambda x: inv(x) is not None, inv)
    return algebra, lambda x: _det(lmat(x), ops)


def odd_permutation(perm: list) -> bool:
    """Whether the permutation i -> perm[i] of range(len(perm)) is odd."""
    perm, odd = list(perm), False
    for i in range(len(perm)):  # sort by swaps
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            odd = not odd
    return odd


# --------------------------------------------------------------------------
# field layer: matrices are lists of rows of field scalars; ring layer: lists
# of rows of coefficient dicts.  Each row is a dense list (or tuple) or a
# sparse dict column -> entry.
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


def berkowitz_det(M, ring: BaseRing) -> dict:
    """Determinant of a dense square matrix over the ring by Berkowitz alone."""
    return _berkowitz(M, ring_ops(ring))


def ring_det(M, ring: BaseRing) -> dict:
    """Determinant over any base ring: unit-pivot elimination, Berkowitz tail."""
    return _det(M, ring_ops(ring))


def ring_solve(M, b, ring: BaseRing):
    """Solve the square system M x = b over the ring.

    Returns the unique solution when the determinant is a unit, else None.
    """
    return _solve(M, b, ring_ops(ring))
