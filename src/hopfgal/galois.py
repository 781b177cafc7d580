"""The structure map deciding whether a comodule algebra is a bundle.

For A of rank n over C coacted on by H of dimension d, the map

    beta : A (x)_C A -> A (x) H,   a (x) b -> (a (x) 1) rho(b)

is C-linear between free modules with bases {a_i (x) a_j} and {a_l (x) h_k}.
Its matrix decides everything: A is Galois over C exactly when beta is
bijective, which for a square matrix over a commutative ring means the
determinant is a unit.  Determinants divide by units only, so bases with
zero divisors (root adjunctions can split the ring) are handled exactly.

The matrix is read off the structure-constant tables.  With 1_H h_k =
sum_q s h_q, computed once per k over the ground field, beta(1 (x) a_j) =
(1 (x) 1_H) rho(a_j) = sum_q X[q][j] (x) h_q, where X[q][j] = sum c s a_l
over the terms c a_l (x) h_k of rho(a_j), and the column of a_i (x) a_j is

    (a_i (x) 1) rho(a_j) = sum_q a_i X[q][j] (x) h_q,

so entry (p, q) is the sum of c c' over the terms c a_l of X[q][j] and c'
a_p of a_i a_l.  No unitality of H is assumed, so a corrupted H gives the
matrix of the map as defined.  Entries are coefficient dicts, the form of
A's own tables, and ``canonical_matrix`` returns the sparse rows that
``is_galois`` hands straight to ``ring_det``, a dict column -> entry per
row; only the determinant of the verdict is a BaseElement.

The determinant as a norm.  When A is commutative, beta is left A-linear:
X is its n x d matrix over A, from the free A-module on the 1 (x) a_j to
the one on the 1 (x) h_q.  The matrix of beta over C is then the block
matrix of the multiplication matrices L_X[q][j], up to one reordering of
its rows and the same of its columns when n = d.  Its blocks commute, so
when A is moreover unital and associative (x -> L_x a ring map),
det beta = det L_(det X) = N(det X) (Bourbaki, *Algebra* III §9;
Silvester, Math. Gazette 84, 2000).  ``is_galois`` takes that route when
n = d and those premises hold: X is eliminated over A on unit pivots, an
entry's inverse solved in A's regular representation
(``linalg.regular``), and the norm of the signed product of the pivots is
det beta.  The first row with no unit entry ends the attempt, and the
canonical matrix's determinant is taken instead, its rows built from the
same X, as it is when A is not commutative, or not unital and associative
(checked only once elimination has not stalled).
"""

from __future__ import annotations

from .axioms import accumulate, commutativity
from .comod import ComoduleAlgebra, verify_comodule_algebra
from .linalg import _det, regular, ring_det
from .record import Record
from .report import Report
from .rings import BaseElement

GALOIS = "galois"
RANK_MISMATCH = "rank_mismatch"
NOT_BIJECTIVE = "not_bijective"


def _structure_columns(A: ComoduleAlgebra) -> list:
    """X by columns: for each j, {(q, l): c} with c a_l the terms of X[q][j];
    1_H h_k is formed once per k over the ground field."""
    H, K, ops = A.hopf, A.field, A.ops
    scale, is_one = A.base._scale, K.is_one
    unit_times = [H.mul_vec(H.unit, {l: K.one()}) for l in range(H.dim)]
    return [accumulate(ops, (((q, l), c if is_one(s) else scale(s, c))
                             for (l, k), c in A.coaction.get(j, {}).items()
                             for q, s in unit_times[k].items()))
            for j in range(A.dim)]


def _canonical_rows(A: ComoduleAlgebra, X: list) -> list:
    """The rows of the canonical matrix, each a dict column -> entry filled in
    column order, from X by columns as ``_structure_columns`` gives it."""
    n, d = A.dim, A.hopf.dim
    mul, mult = A.ops.mul, A.mult
    rows = [{} for _ in range(n * d)]
    for i in range(n):
        for j in range(n):  # column i * n + j, so each row fills in column order
            col = accumulate(A.ops, ((p * d + q, mul(c, cp)) for (q, l), c in X[j].items()
                                     for p, cp in mult.get((i, l), {}).items()))
            for key, v in col.items():
                rows[key][i * n + j] = v
    return rows


def canonical_matrix(A: ComoduleAlgebra) -> list:
    """The matrix of beta as the rows ``ring_det`` takes: row l*d + k, for
    a_l (x) h_k, is a dict from column i*n + j, for a_i (x) a_j, to a
    nonzero coefficient dict, filled in column order."""
    return _canonical_rows(A, _structure_columns(A))


def _norm_det(A: ComoduleAlgebra, X: list):
    """det beta as N(det X) for A of rank n = d, X by columns, or None when A
    is not commutative, unital and associative or a row of X has no unit entry."""
    n, ops, mult, one = A.dim, A.ops, A.mult, A.unit
    if commutativity(n, mult) is not None:
        return None
    rows = [{} for _ in range(n)]
    for j, col in enumerate(X):
        for (q, l), c in col.items():
            rows[q].setdefault(j, {})[l] = c
    algebra, norm = regular(ops, n, mult, one)
    # a stall gives up before the premise it costs most to check
    det = _det(rows, algebra, wait=False)
    return None if det is None or not A.verdict.ok else norm(det)


class GaloisVerdict(Record, frozen=True):
    status: str
    det: BaseElement | None = None

    @property
    def ok(self) -> bool:
        return self.status == GALOIS

    @property
    def det_text(self) -> str | None:
        """The determinant as printed, None when there is none."""
        return None if self.det is None else repr(self.det)

    def describe(self) -> str:
        if self.status == RANK_MISMATCH:
            return "rank mismatch: module rank differs from the Hopf dimension"
        shown = self.det_text or "?"
        if self.status == NOT_BIJECTIVE:
            return f"structure map not bijective: determinant {shown} is not a unit"
        return f"Galois: structure map has unit determinant {shown}"


def is_galois(A: ComoduleAlgebra) -> GaloisVerdict:
    """Total verdict on bijectivity of the structure map.

    A bijection between free modules of different finite rank over a nonzero
    commutative ring cannot exist, so unequal rank short-circuits; otherwise
    the unit test on the determinant is exact.  The determinant is the norm
    of det X over A when A is commutative, unital and associative and
    elimination over A meets a unit entry in every row it takes; else it is
    the determinant of the canonical matrix (see the module docstring).
    """
    if A.dim != A.hopf.dim:
        return GaloisVerdict(RANK_MISMATCH)
    X = _structure_columns(A)
    det = _norm_det(A, X)
    if det is None:
        det = ring_det(_canonical_rows(A, X), A.base)
    det = BaseElement(A.base, det)
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
