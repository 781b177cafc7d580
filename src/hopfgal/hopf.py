"""Finite-dimensional Hopf algebras as exact structure-constant tensors.

A bialgebra over the ground field k is stored sparsely:

* ``mult[(i, j)]``   -- coordinates of h_i * h_j (dict index -> scalar)
* ``unit``           -- coordinates of 1
* ``comult[i]``      -- coordinates of Delta(h_i) (dict (j, k) -> scalar)
* ``counit``         -- coordinates of the counit functional
* ``antipode``       -- dense d x d matrix, S(h_j) = sum_i antipode[i][j] h_i

Nothing is trusted: ``verify_hopf`` re-derives every axiom on basis elements,
and ``solve_antipode`` recovers the antipode from the bialgebra part as the
unique solution of a k-linear system, then checks both one-sided identities.

Constructors cover the four-dimensional Hopf algebra with X^2 = 1, Y^2 = 0,
XY + YX = 0, its order-N generalization with Y X = q X Y for q of exact
multiplicative order N, cyclic group algebras, and duals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadRootOfUnityError,
    DimensionMismatchError,
    NoAntipodeError,
)
from .fields import Field
from .linalg import field_det, field_solve
from .report import Report

Vec = dict  # index -> scalar
Tens2 = dict  # (index, index) -> scalar


def _clean_vec(field: Field, v: Vec) -> Vec:
    return {i: c for i, c in v.items() if not field.is_zero(c)}


def _vec_add(field: Field, a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for i, c in b.items():
        s = field.add(out.get(i, field.zero()), c)
        if field.is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def _vec_scale(field: Field, c, a: Vec) -> Vec:
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in a.items()}


@dataclass(frozen=True)
class Bialgebra:
    field: Field
    labels: tuple
    mult: dict
    unit: Vec
    comult: dict
    counit: Vec

    def __post_init__(self):
        d = self.dim
        for (i, j) in self.mult:
            if not (0 <= i < d and 0 <= j < d):
                raise DimensionMismatchError("multiplication tensor index out of range")
        for i in self.comult:
            if not 0 <= i < d:
                raise DimensionMismatchError("comultiplication tensor index out of range")

    @property
    def dim(self) -> int:
        return len(self.labels)

    # ------------------------------------------------------ structure ops

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        K = self.field
        out: Vec = {}
        for i, ca in a.items():
            for j, cb in b.items():
                sc = self.mult.get((i, j))
                if not sc:
                    continue
                c = K.mul(ca, cb)
                for l, m in sc.items():
                    s = K.add(out.get(l, K.zero()), K.mul(c, m))
                    if K.is_zero(s):
                        out.pop(l, None)
                    else:
                        out[l] = s
        return out

    def comult_vec(self, a: Vec) -> Tens2:
        K = self.field
        out: Tens2 = {}
        for i, c in a.items():
            for jk, m in self.comult.get(i, {}).items():
                s = K.add(out.get(jk, K.zero()), K.mul(c, m))
                if K.is_zero(s):
                    out.pop(jk, None)
                else:
                    out[jk] = s
        return out

    def counit_of(self, a: Vec):
        K = self.field
        acc = K.zero()
        for i, c in a.items():
            acc = K.add(acc, K.mul(c, self.counit.get(i, K.zero())))
        return acc

    def tensor_mul(self, A: Tens2, B: Tens2) -> Tens2:
        """Product in H (x) H of two tensor-square elements."""
        K = self.field
        out: Tens2 = {}
        for (i, j), ca in A.items():
            for (p, q), cb in B.items():
                left = self.mult.get((i, p))
                right = self.mult.get((j, q))
                if not left or not right:
                    continue
                c = K.mul(ca, cb)
                for l, cl in left.items():
                    for r, cr in right.items():
                        key = (l, r)
                        s = K.add(out.get(key, K.zero()), K.mul(c, K.mul(cl, cr)))
                        if K.is_zero(s):
                            out.pop(key, None)
                        else:
                            out[key] = s
        return out

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one()}

    def __eq__(self, other):
        if not isinstance(other, Bialgebra):
            return NotImplemented
        return (self.field == other.field and self.labels == other.labels
                and self._normal_tensors() == other._normal_tensors())

    def _normal_tensors(self):
        K = self.field
        mult = {ij: _clean_vec(K, v) for ij, v in self.mult.items()}
        mult = {ij: v for ij, v in mult.items() if v}
        com = {i: {jk: c for jk, c in t.items() if not K.is_zero(c)} for i, t in self.comult.items()}
        com = {i: t for i, t in com.items() if t}
        return (mult, _clean_vec(K, self.unit), com, _clean_vec(K, self.counit))

    def __hash__(self):
        return hash((self.field, self.labels))


@dataclass(frozen=True, eq=False)
class HopfAlgebra(Bialgebra):
    antipode: tuple = ()

    def antipode_vec(self, a: Vec) -> Vec:
        K = self.field
        out: Vec = {}
        for j, c in a.items():
            for i in range(self.dim):
                m = self.antipode[i][j]
                if K.is_zero(m):
                    continue
                s = K.add(out.get(i, K.zero()), K.mul(c, m))
                if K.is_zero(s):
                    out.pop(i, None)
                else:
                    out[i] = s
        return out

    def __eq__(self, other):
        if not isinstance(other, HopfAlgebra):
            return NotImplemented
        return Bialgebra.__eq__(self, other) and self.antipode == other.antipode

    def __hash__(self):
        return hash((self.field, self.labels, self.antipode))

    def __repr__(self):
        return f"<HopfAlgebra dim {self.dim} over {self.field.name}>"


# --------------------------------------------------------------------------
# axiom verification
# --------------------------------------------------------------------------

def verify_hopf(H: HopfAlgebra) -> Report:
    """Re-check every Hopf axiom on basis elements; no structure is trusted."""
    K = H.field
    d = H.dim
    rep = Report(f"hopf axioms ({d}-dimensional over {K.name})")

    ok = True
    for i in range(d):
        e = H.basis_vec(i)
        if H.mul_vec(H.unit, e) != e or H.mul_vec(e, H.unit) != e:
            ok = rep.add("unit", False, f"fails on {H.labels[i]}")
            break
    else:
        rep.add("unit", True)

    for i in range(d):
        for j in range(d):
            ij = H.mul_vec(H.basis_vec(i), H.basis_vec(j))
            for l in range(d):
                left = H.mul_vec(ij, H.basis_vec(l))
                right = H.mul_vec(H.basis_vec(i), H.mul_vec(H.basis_vec(j), H.basis_vec(l)))
                if left != right:
                    rep.add("associativity", False,
                            f"({H.labels[i]}*{H.labels[j]})*{H.labels[l]}")
                    break
            else:
                continue
            break
        else:
            continue
        break
    else:
        rep.add("associativity", True)

    ok = True
    for i in range(d):
        t = H.comult_vec(H.basis_vec(i))
        left: Vec = {}
        right: Vec = {}
        for (j, k), c in t.items():
            left = _vec_add(K, left, _vec_scale(K, K.mul(c, H.counit.get(j, K.zero())), H.basis_vec(k)))
            right = _vec_add(K, right, _vec_scale(K, K.mul(c, H.counit.get(k, K.zero())), H.basis_vec(j)))
        if left != H.basis_vec(i) or right != H.basis_vec(i):
            ok = rep.add("counit", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("counit", True)

    ok = True
    for i in range(d):
        t = H.comult_vec(H.basis_vec(i))
        lhs: dict = {}
        rhs: dict = {}
        for (j, k), c in t.items():
            for (a, b), c2 in H.comult_vec(H.basis_vec(j)).items():
                key = (a, b, k)
                s = K.add(lhs.get(key, K.zero()), K.mul(c, c2))
                if K.is_zero(s):
                    lhs.pop(key, None)
                else:
                    lhs[key] = s
            for (a, b), c2 in H.comult_vec(H.basis_vec(k)).items():
                key = (j, a, b)
                s = K.add(rhs.get(key, K.zero()), K.mul(c, c2))
                if K.is_zero(s):
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        if lhs != rhs:
            ok = rep.add("coassociativity", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("coassociativity", True)

    ok = True
    if H.comult_vec(H.unit) != {kv: c for kv, c in _outer(K, H.unit, H.unit).items()}:
        ok = rep.add("comultiplication is unital", False, "Delta(1) != 1 (x) 1")
    if ok and not K.is_zero(K.sub(H.counit_of(H.unit), K.one())):
        ok = rep.add("comultiplication is unital", False, "counit(1) != 1")
    if ok:
        rep.add("comultiplication is unital", True)

    ok = True
    for i in range(d):
        for j in range(d):
            prod = H.mul_vec(H.basis_vec(i), H.basis_vec(j))
            lhs = H.comult_vec(prod)
            rhs = H.tensor_mul(H.comult_vec(H.basis_vec(i)), H.comult_vec(H.basis_vec(j)))
            if lhs != rhs:
                ok = rep.add("comultiplication is multiplicative", False,
                             f"Delta({H.labels[i]}*{H.labels[j]})")
                break
            eps = K.mul(H.counit.get(i, K.zero()), H.counit.get(j, K.zero()))
            if not K.is_zero(K.sub(H.counit_of(prod), eps)):
                ok = rep.add("comultiplication is multiplicative", False,
                             f"counit({H.labels[i]}*{H.labels[j]})")
                break
        if not ok:
            break
    if ok:
        rep.add("comultiplication is multiplicative", True)

    ok = True
    for i in range(d):
        t = H.comult_vec(H.basis_vec(i))
        left: Vec = {}
        right: Vec = {}
        for (j, k), c in t.items():
            left = _vec_add(K, left, _vec_scale(K, c, H.mul_vec(H.antipode_vec(H.basis_vec(j)), H.basis_vec(k))))
            right = _vec_add(K, right, _vec_scale(K, c, H.mul_vec(H.basis_vec(j), H.antipode_vec(H.basis_vec(k)))))
        expect = _vec_scale(K, H.counit.get(i, K.zero()), H.unit)
        if left != expect or right != expect:
            ok = rep.add("antipode identity", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("antipode identity", True)

    rep.add("antipode bijective", not K.is_zero(field_det(H.antipode, K)))
    return rep


def _outer(field: Field, a: Vec, b: Vec) -> Tens2:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[(i, j)] = field.mul(ca, cb)
    return out


# --------------------------------------------------------------------------
# antipode recovery
# --------------------------------------------------------------------------

def solve_antipode(B: Bialgebra) -> tuple:
    """The unique antipode matrix of a bialgebra, or NoAntipodeError.

    Solves sum S(h_(1)) h_(2) = counit(h) 1 as a d^2 x d^2 k-linear system
    (unknown S[p][i], row per (basis element, output coordinate)), then
    verifies the right-sided identity as well.
    """
    K = B.field
    d = B.dim
    n = d * d
    M = [{} for _ in range(n)]  # sparse rows: column -> scalar
    rhs = [K.zero()] * n
    for k in range(d):
        t = B.comult_vec(B.basis_vec(k))
        for (i, j), c in t.items():
            for p in range(d):
                sc = B.mult.get((p, j))
                if not sc:
                    continue
                for l, m in sc.items():
                    row = M[k * d + l]
                    row[p * d + i] = K.add(row.get(p * d + i, K.zero()), K.mul(c, m))
        eps = B.counit.get(k, K.zero())
        for l, u in B.unit.items():
            rhs[k * d + l] = K.mul(eps, u)
    sol = field_solve(M, rhs, K)
    if sol is None:
        raise NoAntipodeError(
            "identity has no convolution inverse: this bialgebra is not a Hopf algebra")
    S = tuple(tuple(sol[p * d + i] for i in range(d)) for p in range(d))
    H = HopfAlgebra(B.field, B.labels, B.mult, B.unit, B.comult, B.counit, S)
    for k in range(d):
        t = B.comult_vec(B.basis_vec(k))
        right: Vec = {}
        for (i, j), c in t.items():
            right = _vec_add(K, right, _vec_scale(K, c, B.mul_vec(B.basis_vec(i), H.antipode_vec(B.basis_vec(j)))))
        expect = _vec_scale(K, B.counit.get(k, K.zero()), B.unit)
        if right != expect:
            raise NoAntipodeError(
                f"left convolution inverse fails the right-sided identity on {B.labels[k]}")
    return S


def hopf_from_bialgebra(B: Bialgebra) -> HopfAlgebra:
    return HopfAlgebra(B.field, B.labels, B.mult, B.unit, B.comult, B.counit, solve_antipode(B))


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def sweedler_h4(field: Field) -> HopfAlgebra:
    """The four-dimensional Hopf algebra: X^2 = 1, Y^2 = 0, XY + YX = 0."""
    K = field
    one, zero = K.one(), K.zero()
    neg = K.neg(one)
    labels = ("1", "X", "Y", "XY")
    # products of basis elements, derived from the relations:
    # Y*X = -XY, X*XY = Y, XY*X = -Y, Y*XY = XY*Y = XY*XY = 0
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: neg}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: neg}, (3, 2): {}, (3, 3): {},
    }
    unit = {0: one}
    comult = {
        0: {(0, 0): one},
        1: {(1, 1): one},
        2: {(0, 2): one, (2, 1): one},
        3: {(1, 3): one, (3, 0): one},
    }
    counit = {0: one, 1: one}
    # S(1) = 1, S(X) = X, S(Y) = XY, S(XY) = -Y
    antipode = (
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, zero, neg),
        (zero, zero, one, zero),
    )
    return HopfAlgebra(K, labels, mult, unit, comult, counit, antipode)


def _xy_label(i: int, j: int) -> str:
    if i == 0 and j == 0:
        return "1"
    xs = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
    ys = "" if j == 0 else ("Y" if j == 1 else f"Y^{j}")
    return xs + ys


def taft(N: int, q, field: Field) -> HopfAlgebra:
    """The N^2-dimensional Hopf algebra X^N = 1, Y^N = 0, Y X = q X Y.

    q must be a scalar of exact multiplicative order N (BadRootOfUnity
    otherwise).  Comultiplication and counit use the same formulas as the
    four-dimensional case, extended multiplicatively; the antipode is
    recovered by solve_antipode, never asserted.
    """
    K = field
    if isinstance(q, int):
        q = K.from_int(q)
    if N < 2:
        raise BadRootOfUnityError("order must be at least 2")
    if not K.has_order(q, N):
        raise BadRootOfUnityError(
            f"{K.format(q)} does not have exact multiplicative order {N}")
    labels = tuple(_xy_label(i, j) for j in range(N) for i in range(N))

    def idx(i, j):
        return i + N * j

    mult = {}
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for e in range(N):
                    if b + e >= N:
                        mult[(idx(a, b), idx(c, e))] = {}
                    else:
                        coeff = K.pow(q, b * c)
                        mult[(idx(a, b), idx(c, e))] = {idx((a + c) % N, b + e): coeff}
    unit = {0: K.one()}
    counit = {idx(i, 0): K.one() for i in range(N)}
    # Delta on generators, then extended as an algebra morphism
    shell = Bialgebra(K, labels, mult, unit, {}, counit)
    dX = {(idx(1, 0), idx(1, 0)): K.one()}
    dY = {(idx(0, 0), idx(0, 1)): K.one(), (idx(0, 1), idx(1, 0)): K.one()}
    comult = {}
    for b in range(N):
        for a in range(N):
            t = {(0, 0): K.one()}
            for _ in range(a):
                t = shell.tensor_mul(t, dX)
            for _ in range(b):
                t = shell.tensor_mul(t, dY)
            comult[idx(a, b)] = t
    B = Bialgebra(K, labels, mult, unit, comult, counit)
    return hopf_from_bialgebra(B)


def cyclic_group_algebra(N: int, field: Field) -> HopfAlgebra:
    """Group algebra of Z/N: group-like basis, antipode inverts."""
    K = field
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(N))
    mult = {(i, j): {(i + j) % N: K.one()} for i in range(N) for j in range(N)}
    unit = {0: K.one()}
    comult = {i: {(i, i): K.one()} for i in range(N)}
    counit = {i: K.one() for i in range(N)}
    antipode = tuple(tuple(K.one() if i == (-j) % N else K.zero() for j in range(N))
                     for i in range(N))
    return HopfAlgebra(K, labels, mult, unit, comult, counit, antipode)


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis (finite dimension only)."""
    K = H.field
    d = H.dim
    labels = tuple(f"{l}*" for l in H.labels)
    mult = {}
    for l in range(d):
        for (i, j), c in H.comult.get(l, {}).items():
            mult.setdefault((i, j), {})[l] = c
    for i in range(d):
        for j in range(d):
            mult.setdefault((i, j), {})
    unit = dict(H.counit)
    comult = {}
    for (i, j), sc in H.mult.items():
        for l, c in sc.items():
            comult.setdefault(l, {})[(i, j)] = c
    counit = dict(H.unit)
    antipode = tuple(tuple(H.antipode[j][i] for j in range(d)) for i in range(d))
    return HopfAlgebra(K, labels, mult, unit, comult, counit, antipode)


def is_commutative_hopf(H: HopfAlgebra) -> bool:
    for i in range(H.dim):
        for j in range(i):
            if H.mul_vec(H.basis_vec(i), H.basis_vec(j)) != H.mul_vec(H.basis_vec(j), H.basis_vec(i)):
                return False
    return True
