"""Finite-dimensional Hopf algebras as exact structure-constant tensors.

A bialgebra over the ground field k is stored sparsely:

* ``mult[(i, j)]``   -- coordinates of h_i * h_j (dict index -> scalar)
* ``unit``           -- coordinates of 1
* ``comult[i]``      -- coordinates of Delta(h_i) (dict (j, k) -> scalar)
* ``counit``         -- coordinates of the counit functional
* ``antipode[j]``    -- coordinates of S(h_j) (dict index -> scalar)

A record keeps copies of its tables in normal form, built once by its
constructor with ``axioms.normal``: zero coefficients and empty rows are
dropped, so a missing row reads as zero (``.get(key, {})``) and equality
is field by field, and an index outside range(dim) is refused.  A
Bialgebra never equals a HopfAlgebra.  A record carries ``ops``, its
field's ``axioms.field_ops``, built once, and beside it its ``verdict``
(``axioms.Verdict``), built when first read; every check and solve reads them.
A verdict once read is kept, so a record's tables are not to be changed in
place: a changed table is a new record.

Nothing given is trusted: ``verify_hopf`` checks every axiom on the
record's tables, unit and associativity through its verdict, with the one
axiom checker of ``axioms``, which verifies bundles too (a Hopf
algebra is its own comodule algebra), and S * id = id * S = counit(-) 1
with its one convolution.  For an explicit table given without an
antipode, ``solve_antipode`` recovers it from the bialgebra part as the
convolution inverse of id, by the solve that inverts a cleaving, on
generators first (see ``axioms``), then checks both identities.

Constructors write every table, antipode included, in closed form: the
four-dimensional Hopf algebra with X^2 = 1, Y^2 = 0, XY + YX = 0, its
order-N generalization with Y X = q X Y for q of exact multiplicative
order N (Taft's algebras), cyclic group algebras, and duals.
"""

from __future__ import annotations

from functools import cached_property

from . import axioms
from .axioms import accumulate, field_ops, first, normal, record
from .errors import BadRootOfUnityError, NoAntipodeError
from .fields import Field
from .linalg import field_det, field_solve
from .record import Record
from .report import Report

Vec = dict  # index -> scalar


class Bialgebra(Record, frozen=True):
    field: Field
    labels: tuple
    mult: dict
    unit: Vec
    comult: dict
    counit: Vec

    def __post_init__(self):
        put, K, d = object.__setattr__, self.field, self.dim
        put(self, "mult", normal("multiplication", self.mult, (d, d), (d,), K))
        put(self, "unit", normal("unit", self.unit, (d,), None, K))
        put(self, "comult", normal("comultiplication", self.comult, (d,), (d, d), K))
        put(self, "counit", normal("counit", self.counit, (d,), None, K))
        put(self, "ops", field_ops(K))  # not a field: equality and hash ignore it

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def verdict(self) -> axioms.Verdict:
        return axioms.Verdict(self.ops, self.dim, self.mult, self.unit)

    # ------------------------------------------------------ structure ops

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        return accumulate(self.ops, axioms.product(self.ops, self.mult)(a, b))

    def __hash__(self):
        return hash((self.field, self.labels))


class HopfAlgebra(Bialgebra, frozen=True):
    antipode: dict

    def __post_init__(self):
        super().__post_init__()
        d = self.dim
        object.__setattr__(self, "antipode",
                           normal("antipode", self.antipode, (d,), (d,), self.field))

    def __repr__(self):
        return f"<HopfAlgebra dim {self.dim} over {self.field.name}>"


# --------------------------------------------------------------------------
# axiom verification
# --------------------------------------------------------------------------

def _counit(ops, d: int, comult: dict, counit: dict):
    """First i failing the right counit (a coaction counit) or the left one
    (the same on the flipped tensor)."""
    flipped = {i: {(k, j): c for (j, k), c in t.items()} for i, t in comult.items()}
    return first(axioms.coaction_counit(ops, d, comult, counit),
                 axioms.coaction_counit(ops, d, flipped, counit))


def verify_hopf(H: HopfAlgebra) -> Report:
    """Re-check every Hopf axiom on the structure constants; nothing is trusted."""
    K, d, L, ops = H.field, H.dim, H.labels, H.ops
    rep = Report(f"hopf axioms ({d}-dimensional over {K.name})")
    mult, comult, unit, counit = H.mult, H.comult, H.unit, H.counit

    def fails_on(i):
        return f"fails on {L[i]}"

    record(rep, "unit", H.verdict.unit, fails_on)
    record(rep, "associativity", H.verdict.assoc, lambda b: f"({L[b[0]]}*{L[b[1]]})*{L[b[2]]}")
    record(rep, "counit", _counit(ops, d, comult, counit), fails_on)
    record(rep, "coassociativity", axioms.coassociativity(ops, d, comult, comult), fails_on)

    # the counit as an algebra map into k, whose one basis element is 0
    eps, k = {i: {0: c} for i, c in counit.items()}, {(0, 0): {0: ops.one}}
    unit_sq = {(i, j): K.mul(a, b) for i, a in unit.items() for j, b in unit.items()}
    if axioms.image(ops, comult, unit) != unit_sq:
        not_unital = "Delta(1) != 1 (x) 1"
    elif axioms.image(ops, eps, unit) != {0: ops.one}:
        not_unital = "counit(1) != 1"
    else:
        not_unital = None
    rep.add("comultiplication is unital", not_unital is None, not_unital or "")
    tree = H.verdict.tree if not_unital is None else None

    # the first pair failing either identity; Delta is checked first on a pair
    bad = axioms.algebra_map(ops, d, mult, comult, axioms.tensor_product(ops, mult, mult), tree)
    bad_eps = axioms.algebra_map(ops, d, mult, eps, axioms.product(ops, k), tree)
    if bad is not None and (bad_eps is None or bad <= bad_eps):
        rep.add("comultiplication is multiplicative", False, f"Delta({L[bad[0]]}*{L[bad[1]]})")
    elif bad_eps is not None:
        rep.add("comultiplication is multiplicative", False,
                f"counit({L[bad_eps[0]]}*{L[bad_eps[1]]})")
    else:
        rep.add("comultiplication is multiplicative", True)

    record(rep, "antipode identity",
           _antipode_fails(H, H.antipode, axioms.counit_unit(ops, d, counit, unit)), fails_on)

    # the rows of S^T, whose determinant is det S
    rep.add("antipode bijective",
            not K.is_zero(field_det([H.antipode.get(j, {}) for j in range(d)], K)))
    return rep


# --------------------------------------------------------------------------
# antipode recovery
# --------------------------------------------------------------------------

def _antipode_fails(B: Bialgebra, S: dict, expect: list):
    """First i with (S * id)(h_i) or (id * S)(h_i) != counit(h_i) 1."""
    d, ops = B.dim, B.ops
    ident = {i: {i: ops.one} for i in range(d)}
    left, right = (axioms.convolution(ops, d, B.mult, B.comult, f, g)
                   for f, g in ((S, ident), (ident, S)))
    return next((i for i in range(d) if left[i] != expect[i] or right[i] != expect[i]), None)


def _antipode_system(B: Bialgebra, expect: list, sub: list):
    """{i: S(a_i)} for i in sub solving S * id = counit(-) 1 on sub, or None."""
    K, d, ops = B.field, B.dim, B.ops
    return axioms.solve_convolution(ops, d, B.mult, B.comult, {i: {i: ops.one} for i in range(d)},
                                    expect, sub, lambda M, b: field_solve(M, b, K))


def _antipode_on_generators(B: Bialgebra, expect: list):
    """{i: S(a_i)} from the system on generators, or None, by the reduction
    that ``axioms`` states: None on a failed premise (B's word tree, counit,
    coassociativity), a singular sub-system, a sub-system on every basis
    element or a failed identity.
    """
    d, comult, ops, tree = B.dim, B.comult, B.ops, B.verdict.tree
    if (tree is None or _counit(ops, d, comult, B.counit) is not None
            or axioms.coassociativity(ops, d, comult, comult) is not None):
        return None
    sub = [tree.root, *tree.gens]
    for i in sub:  # grows until closed under the left legs of Delta
        for j, _ in comult.get(i, {}):
            if j not in sub:
                sub.append(j)
    if len(sub) == d:
        return None
    cols = _antipode_system(B, expect, sub)
    if cols is None:
        return None
    for i, (s, r, c) in tree.steps.items():
        if i not in cols:
            inv = B.field.inv(c)
            cols[i] = {p: ops.mul(inv, v) for p, v in B.mul_vec(cols[r], cols[s]).items()}
    return None if _antipode_fails(B, cols, expect) is not None else cols


def solve_antipode(B: Bialgebra) -> dict:
    """The unique antipode of a bialgebra as a table {j: S(h_j) as {i: c}},
    or NoAntipodeError.

    Tries the system on generators first (``_antipode_on_generators``).
    Otherwise solves S * id = counit(-) 1 on the whole basis, a d^2 x d^2
    k-linear system (``axioms.solve_convolution``), then verifies
    id * S = counit(-) 1 as well.
    """
    expect = axioms.counit_unit(B.ops, B.dim, B.counit, B.unit)
    cols = _antipode_on_generators(B, expect)
    if cols is None:
        cols = _antipode_system(B, expect, list(range(B.dim)))
        if cols is None:
            raise NoAntipodeError(
                "identity has no convolution inverse: this bialgebra is not a Hopf algebra")
        bad = _antipode_fails(B, cols, expect)
        if bad is not None:
            raise NoAntipodeError(
                f"left convolution inverse fails the right-sided identity on {B.labels[bad]}")
    return {i: col for i, col in cols.items() if col}


def hopf_from_bialgebra(B: Bialgebra) -> HopfAlgebra:
    return HopfAlgebra(B.field, B.labels, B.mult, B.unit, B.comult, B.counit, solve_antipode(B))


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def sweedler_h4(field: Field) -> HopfAlgebra:
    """The four-dimensional Hopf algebra: X^2 = 1, Y^2 = 0, XY + YX = 0."""
    K = field
    one = K.one()
    neg = K.neg(one)
    labels = ("1", "X", "Y", "XY")
    # products of basis elements, derived from the relations:
    # Y*X = -XY, X*XY = Y, XY*X = -Y; the products left out are 0
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: neg}, (3, 0): {3: one}, (3, 1): {2: neg},
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
    antipode = {0: {0: one}, 1: {1: one}, 2: {3: one}, 3: {2: neg}}
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
    otherwise).  X is group-like and Delta(Y) = 1 (x) Y + Y (x) X, as in the
    four-dimensional case.  On the basis X^a Y^b (index a + N b, X exponents
    mod N) every table is written in closed form (Taft, PNAS 68, 1971):

        Delta(X^a Y^b) = sum_k [b k]_q X^a Y^k (x) X^(a+k) Y^(b-k)
        S(X^a Y^b)     = (-1)^b q^(-b(b+1)/2 - ab) X^(-a-b) Y^b

    with the q-binomials from the q-Pascal rule [b k] = [b-1 k-1] + q^k [b-1 k].
    The tables are not trusted: ``verify_hopf`` certifies each of them.
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
    one = K.one()
    qp = [one]  # q^e for e in range(N); q^N = 1
    for _ in range(N - 1):
        qp.append(K.mul(qp[-1], q))
    mult, comult, antipode = {}, {}, {}
    binom = [one]  # [b k]_q for k = 0..b
    for b in range(N):
        if b:
            binom = [one, *(K.add(binom[k - 1], K.mul(qp[k], binom[k])) for k in range(1, b)),
                     one]
        for a in range(N):
            i = a + N * b
            for c in range(N):
                for e in range(N - b):
                    mult[(i, c + N * e)] = {(a + c) % N + N * (b + e): qp[b * c % N]}
            comult[i] = {(a + N * k, (a + k) % N + N * (b - k)): binom[k] for k in range(b + 1)}
            s = qp[-(b * (b + 1) // 2 + a * b) % N]
            antipode[i] = {(-a - b) % N + N * b: K.neg(s) if b % 2 else s}
    counit = {i: one for i in range(N)}
    return HopfAlgebra(K, labels, mult, {0: one}, comult, counit, antipode)


def cyclic_group_algebra(N: int, field: Field) -> HopfAlgebra:
    """Group algebra of Z/N: group-like basis, antipode inverts."""
    K = field
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(N))
    mult = {(i, j): {(i + j) % N: K.one()} for i in range(N) for j in range(N)}
    unit = {0: K.one()}
    comult = {i: {(i, i): K.one()} for i in range(N)}
    counit = {i: K.one() for i in range(N)}
    antipode = {j: {(-j) % N: K.one()} for j in range(N)}
    return HopfAlgebra(K, labels, mult, unit, comult, counit, antipode)


def _transposed(table: dict) -> dict:
    """{k: {i: c}} for the table {i: {k: c}}."""
    out = {}
    for i, row in table.items():
        for k, c in row.items():
            out.setdefault(k, {})[i] = c
    return out


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis (finite dimension only): each
    table is the transpose of the one dual to it."""
    return HopfAlgebra(H.field, tuple(f"{l}*" for l in H.labels), _transposed(H.comult),
                       H.counit, _transposed(H.mult), H.unit, _transposed(H.antipode))


def is_commutative_hopf(H: HopfAlgebra) -> bool:
    return axioms.commutativity(H.dim, H.mult) is None
