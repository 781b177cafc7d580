"""The structure map deciding whether a comodule algebra is a bundle.

For A of rank n over C coacted on by H of dimension d, the map

    beta : A (x)_C A -> A (x) H,   a (x) b -> (a (x) 1) rho(b)

is C-linear between free modules with bases {a_i (x) a_j} and {a_l (x) h_k}.
Its matrix decides everything: A is Galois over C exactly when beta is
bijective, which for a square matrix over a commutative ring means the
determinant is a unit.  Determinants are computed division-free so bases
with zero divisors (root adjunctions can split the ring) are handled
exactly.

The matrix is read off the structure-constant tables.  With 1_H h_l =
sum_q s h_q, computed once per l over the ground field, and rho(a_j) =
sum c a_l (x) h_l', the column of a_i (x) a_j is

    (a_i (x) 1) rho(a_j) = sum c (a_i a_l) (x) 1_H h_l',

so entry (p, q) is the sum of s c c' over the terms c' a_p of a_i a_l.  No
unitality of H is assumed, so a corrupted H gives the matrix of the map as
defined.  Entries are coefficient dicts, the form of A's own tables, and
``is_galois`` hands the sparse rows straight to ``ring_det``; only the
determinant of the verdict is a BaseElement.
"""

from __future__ import annotations

from .axioms import accumulate, field_ops
from .comod import ComoduleAlgebra, verify_comodule_algebra
from .linalg import ring_det
from .record import Record
from .report import Report
from .rings import BaseElement

GALOIS = "galois"
RANK_MISMATCH = "rank_mismatch"
NOT_BIJECTIVE = "not_bijective"


class CanonicalMatrix(Record, frozen=True):
    """Matrix of beta; rows (l, k) as l*d + k, columns (i, j) as i*n + j.

    Each row is held as its (column, entry) pairs with a nonzero entry, in
    column order; an entry is a coefficient dict over the base ring.
    """

    algebra: ComoduleAlgebra
    terms: tuple

    @property
    def nrows(self) -> int:
        return len(self.terms)

    @property
    def ncols(self) -> int:
        return self.algebra.dim ** 2 if self.terms else 0

    def sparse_rows(self) -> list:
        return [dict(r) for r in self.terms]

    def __hash__(self):
        return hash(self.algebra)


def canonical_matrix(A: ComoduleAlgebra) -> CanonicalMatrix:
    n, d = A.dim, A.hopf.dim
    C, H, K = A.base, A.hopf, A.field
    fops = field_ops(K)
    # 1_H h_l over the ground field, per basis element l of H
    unit_times = [accumulate(fops, ((q, K.mul(u, s)) for k, u in H.unit.items()
                                    for q, s in H.mult.get((k, l), {}).items()))
                  for l in range(d)]
    ops, mult = A.ops, A.mult
    rho = [[(l, unit_times[h].items(), c) for (l, h), c in A.coaction.get(j, {}).items()
            if unit_times[h]] for j in range(n)]
    mul, scale, is_one = ops.mul, C._scale, K.is_one
    rows = [[] for _ in range(n * d)]
    for i in range(n):
        for j in range(n):  # column i * n + j, so each row fills in column order
            col = accumulate(ops, ((p * d + q, cc if is_one(s) else scale(s, cc))
                                   for l, hl, c in rho[j]
                                   for p, cp in mult.get((i, l), {}).items()
                                   for cc in (mul(c, cp),) for q, s in hl))
            for key, v in col.items():
                rows[key].append((i * n + j, v))
    return CanonicalMatrix(A, tuple(map(tuple, rows)))


class GaloisVerdict(Record, frozen=True):
    status: str
    det: BaseElement | None = None

    @property
    def ok(self) -> bool:
        return self.status == GALOIS

    def describe(self) -> str:
        if self.status == RANK_MISMATCH:
            return "rank mismatch: module rank differs from the Hopf dimension"
        if self.status == NOT_BIJECTIVE:
            shown = self.det.ring.format_element(self.det) if self.det is not None else "?"
            return f"structure map not bijective: determinant {shown} is not a unit"
        shown = self.det.ring.format_element(self.det) if self.det is not None else "?"
        return f"Galois: structure map has unit determinant {shown}"


def is_galois(A: ComoduleAlgebra) -> GaloisVerdict:
    """Total verdict on bijectivity of the structure map.

    A bijection between free modules of different finite rank over a nonzero
    commutative ring cannot exist, so unequal rank short-circuits; otherwise
    the unit test on the determinant is exact.
    """
    if A.dim != A.hopf.dim:
        return GaloisVerdict(RANK_MISMATCH)
    det = BaseElement(A.base, ring_det(canonical_matrix(A).sparse_rows(), A.base))
    return GaloisVerdict(GALOIS if A.base.is_unit(det) else NOT_BIJECTIVE, det)


def verify_bundle(A: ComoduleAlgebra) -> Report:
    """Full quantum-principal-bundle verdict for A over its base.

    Aggregates the comodule algebra axioms, the freeness of A as a base
    module (structural in this representation, recorded for the reader),
    and bijectivity of the structure map.
    """
    rep = Report(f"quantum principal bundle check (rank {A.dim})")
    rep.nest(verify_comodule_algebra(A))
    rep.add("free module over central base", True)
    verdict = is_galois(A)
    rep.add("structure map bijective", verdict.ok, verdict.describe())
    return rep
