"""The structure map deciding whether a comodule algebra is a bundle.

For A of rank n over C coacted on by H of dimension d, the map

    beta : A (x)_C A -> A (x) H,   a (x) b -> (a (x) 1) rho(b)

is C-linear between free modules with bases {a_i (x) a_j} and {a_l (x) h_k}.
Its matrix decides everything: A is Galois over C exactly when beta is
bijective, which for a square matrix over a commutative ring means the
determinant is a unit.  Determinants are computed division-free so bases
with zero divisors (root adjunctions can split the ring) are handled
exactly.
"""

from __future__ import annotations

from .comod import ComoduleAlgebra, verify_comodule_algebra
from .linalg import ring_det
from .record import Record
from .report import Report
from .rings import BaseElement

GALOIS = "galois"
RANK_MISMATCH = "rank_mismatch"
NOT_BIJECTIVE = "not_bijective"


class CanonicalMatrix(Record, frozen=True):
    """Matrix of beta; rows (l, k) as l*d + k, columns (i, j) as i*n + j."""

    algebra: ComoduleAlgebra
    entries: tuple  # tuple of row tuples of BaseElements

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def rows(self) -> list:
        return [list(r) for r in self.entries]

    def entry(self, l: int, k: int, i: int, j: int) -> BaseElement:
        n, d = self.algebra.dim, self.algebra.hopf.dim
        return self.entries[l * d + k][i * n + j]


def canonical_matrix(A: ComoduleAlgebra) -> CanonicalMatrix:
    n, d = A.dim, A.hopf.dim
    zero = A.base.zero()
    cols = []
    for i in range(n):
        left = {(i, k): A.lift(u) for k, u in A.hopf.unit.items()}
        for j in range(n):
            image = A.tensor_mul(left, A.coact_vec(A.basis_vec(j)))
            col = [zero] * (n * d)
            for (l, k), c in image.items():
                col[l * d + k] = c
            cols.append(col)
    entries = tuple(tuple(cols[c][r] for c in range(n * n)) for r in range(n * d))
    return CanonicalMatrix(A, entries)


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
    M = canonical_matrix(A)
    det = ring_det(M.rows(), A.base)
    if A.base.is_unit(det):
        return GaloisVerdict(GALOIS, det)
    return GaloisVerdict(NOT_BIJECTIVE, det)


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
