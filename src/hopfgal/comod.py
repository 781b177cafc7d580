"""Comodule algebras over a central coinvariant base ring.

An object here is an algebra A, free of finite rank as a module over a
commutative base ring C, together with a coaction of a Hopf algebra H.
Multiplication and coaction are stored as structure constants with
coefficients in C:

* ``mult[(i, j)]``  -- coordinates of a_i * a_j (dict index -> C-element)
* ``unit``          -- coordinates of 1_A
* ``coaction[i]``   -- coordinates of rho(a_i) in A (x) H (dict (j, k) -> C)

C sits inside A as C * 1_A; because all structure constants live in the
commutative ring C, centrality of the base is built into the representation.
Whether C is exactly the coinvariant subalgebra is a theorem to check, not
an assumption: see ``coinvariants_over_field`` and the canonical-map test in
the Galois module.

As for a Hopf algebra, a record keeps copies of its tables, and an
``HModuleMap`` of its values, in normal form: zero coefficients and empty
rows dropped.  Equality is field by field.

``verify_comodule_algebra`` checks the axioms on these tables with the one
axiom checker of ``axioms``, the one that also verifies Hopf algebras.
"""

from __future__ import annotations

from operator import attrgetter

from . import axioms
from .axioms import (accumulate, coeff_table, coeffs, field_ops, nonzero, normal, record,
                     ring_ops, total)
from .errors import (
    BaseNotFieldError,
    DimensionMismatchError,
    NotInvertibleError,
    RingMismatchError,
)
from .hopf import HopfAlgebra
from .linalg import field_kernel, ring_det, ring_solve
from .record import Record
from .report import Report
from .rings import BaseElement, BaseMorphism, BaseRing


_is_zero = attrgetter("is_zero")  # of a BaseElement


def _lifted(A, table: dict) -> dict:
    """A table of H with its coefficients lifted into A's base, as
    coefficient dicts."""
    lift = A.lift
    return {key: {k: lift(c).coeffs for k, c in row.items()} for key, row in table.items()}


class ComoduleAlgebra(Record, frozen=True):
    base: BaseRing
    hopf: HopfAlgebra
    labels: tuple
    mult: dict
    unit: dict
    coaction: dict

    def __post_init__(self):
        put = object.__setattr__
        put(self, "mult", normal(self.mult, _is_zero))
        put(self, "unit", nonzero(self.unit, _is_zero))
        put(self, "coaction", normal(self.coaction, _is_zero))
        if self.base.field != self.hopf.field:
            raise RingMismatchError(
                "base ring and Hopf algebra use different ground fields")
        n, d = self.dim, self.hopf.dim
        for (i, j) in self.mult:
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatchError("multiplication index out of range")
        for i, t in self.coaction.items():
            if not 0 <= i < n:
                raise DimensionMismatchError("coaction index out of range")
            for (j, k) in t:
                if not (0 <= j < n and 0 <= k < d):
                    raise DimensionMismatchError("coaction tensor index out of range")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def field(self):
        return self.base.field

    # ------------------------------------------------------ module vectors

    def basis_vec(self, i: int) -> dict:
        return {i: self.base.one()}

    def lift(self, c) -> BaseElement:
        """Coerce a ground-field scalar into the base ring."""
        return self.base.from_scalar(c)

    def mul_vec(self, a: dict, b: dict) -> dict:
        ops = ring_ops(self.base)
        mul, raw, wrap = ops.mul, ops.raw, ops.wrap
        return total(ops, ((l, wrap(mul(mul(raw(ca), raw(cb)), raw(m))))
                           for i, ca in a.items() for j, cb in b.items()
                           for l, m in self.mult.get((i, j), {}).items()))

    def coact_vec(self, a: dict) -> dict:
        ops = ring_ops(self.base)
        mul, raw, wrap = ops.mul, ops.raw, ops.wrap
        return total(ops, ((jk, wrap(mul(raw(c), raw(m)))) for i, c in a.items()
                           for jk, m in self.coaction.get(i, {}).items()))

    def __hash__(self):
        return hash((self.base, self.hopf, self.labels))

    def __repr__(self):
        return (f"<ComoduleAlgebra rank {self.dim} over {self.base!r} "
                f"with {self.hopf.dim}-dim Hopf coaction>")


# --------------------------------------------------------------------------
# axiom verification
# --------------------------------------------------------------------------

def verify_comodule_algebra(A: ComoduleAlgebra) -> Report:
    """Re-check the comodule-algebra axioms on the structure constants.

    The Hopf algebra's tables are lifted into the base ring once per call.
    """
    rep = Report(f"comodule algebra (rank {A.dim} over {A.base!r})")
    n, L = A.dim, A.labels
    H = A.hopf
    ops, hops = ring_ops(A.base), field_ops(A.field)
    lift = A.lift
    mult, coaction, unit = coeff_table(A.mult), coeff_table(A.coaction), coeffs(A.unit)

    def fails_on(i):
        return f"fails on {L[i]}"

    bad_unit, tree = axioms.unit_tree(ops, n, mult, unit)
    record(rep, "unit", bad_unit, fails_on)
    bad_assoc = axioms.associativity(ops, n, mult, None if tree is None else tree.gens)
    record(rep, "associativity", bad_assoc, lambda b: f"({L[b[0]]}*{L[b[1]]})*{L[b[2]]}")
    hcounit = {k: lift(c).coeffs for k, c in H.counit.items()}
    record(rep, "coaction counit", axioms.coaction_counit(ops, n, coaction, hcounit), fails_on)
    record(rep, "coaction coassociativity",
           axioms.coassociativity(ops, n, coaction, _lifted(A, H.comult)), fails_on)

    hunit = {k: lift(c).coeffs for k, c in H.unit.items()}
    if axioms.image(ops, coaction, unit) != accumulate(ops, (((i, k), ops.mul(c, u))
                                                            for i, c in unit.items()
                                                            for k, u in hunit.items())):
        rep.add("coaction respects product", False, "rho(1) != 1 (x) 1")
    else:
        # the rows of the generators suffice once A (x) H is unital and associative
        gens = (tree.gens if tree is not None and bad_assoc is None and axioms.unital_associative(
            hops, H.dim, H.mult, H.unit) else None)
        record(rep, "coaction respects product",
               axioms.algebra_map(ops, n, mult, coaction,
                                  axioms.tensor_product(ops, mult, _lifted(A, H.mult)), gens),
               lambda b: f"rho({L[b[0]]}*{L[b[1]]})")
    return rep


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------

def trivial_bundle(base: BaseRing, H: HopfAlgebra) -> ComoduleAlgebra:
    """C (x) H with componentwise product and coaction id (x) Delta."""
    if base.field != H.field:
        raise RingMismatchError("base ring and Hopf algebra use different ground fields")
    lift = base.from_scalar
    mult = {ij: {l: lift(c) for l, c in sc.items()} for ij, sc in H.mult.items()}
    unit = {i: lift(c) for i, c in H.unit.items()}
    coaction = {i: {jk: lift(c) for jk, c in t.items()} for i, t in H.comult.items()}
    return ComoduleAlgebra(base, H, H.labels, mult, unit, coaction)


def push_forward(f: BaseMorphism, A: ComoduleAlgebra) -> ComoduleAlgebra:
    """Base change along f: same structure constants with f applied entrywise."""
    if f.source != A.base:
        raise RingMismatchError("morphism source does not match the bundle's base ring")
    mult = {ij: {l: f.apply(c) for l, c in sc.items()} for ij, sc in A.mult.items()}
    unit = {i: f.apply(c) for i, c in A.unit.items()}
    coaction = {i: {jk: f.apply(c) for jk, c in t.items()} for i, t in A.coaction.items()}
    return ComoduleAlgebra(f.target, A.hopf, A.labels, mult, unit, coaction)


def coinvariants_over_field(A: ComoduleAlgebra) -> list:
    """Basis of the coinvariant subspace {v : rho(v) = v (x) 1}.

    Only meaningful when the base ring is the ground field itself; a bundle
    has coinvariants spanned by the unit alone.
    """
    if not A.base.is_field:
        raise BaseNotFieldError(
            "coinvariant computation needs the base ring to be the ground field")
    K = A.field
    n, d = A.dim, A.hopf.dim
    rows = []
    for j in range(n):
        for k in range(d):
            row = []
            for i in range(n):
                c = A.coaction.get(i, {}).get((j, k))
                val = K.zero() if c is None else c.constant_scalar()
                if i == j:
                    val = K.sub(val, A.hopf.unit.get(k, K.zero()))
                row.append(val)
            rows.append(row)
    return field_kernel(rows, K, n)


# --------------------------------------------------------------------------
# algebra maps between comodule algebras
# --------------------------------------------------------------------------

def check_iso(A: ComoduleAlgebra, B: ComoduleAlgebra, M: list) -> Report:
    """Certify that a_j -> sum_i M[i][j] b_i is an isomorphism of bundles.

    Requires the same base ring and the same Hopf algebra on both sides;
    checks invertibility (unit determinant), phi(1) = 1, that phi is an
    algebra map, on the generator rows of A's word tree once A and B are
    unital and associative and phi(1) = 1 (else on every row), and that
    phi is a comodule map.
    """
    rep = Report("bundle isomorphism")
    if A.base != B.base:
        rep.add("same base ring", False, "base rings differ")
        return rep
    rep.add("same base ring", True)
    if A.hopf != B.hopf:
        rep.add("same Hopf algebra", False, "coacting Hopf algebras differ")
        return rep
    rep.add("same Hopf algebra", True)
    n = A.dim
    if B.dim != n or len(M) != n or any(len(row) != n for row in M):
        rep.add("matrix shape", False, "expected a square matrix of the common rank")
        return rep
    rep.add("matrix shape", True)

    det = ring_det(M, A.base)
    if not A.base.is_unit(det):
        rep.add("invertible", False, f"determinant {A.base.format_element(det)} is not a unit")
        return rep
    rep.add("invertible", True)

    ops = ring_ops(A.base)
    phi = coeff_table({j: nonzero({i: row[j] for i, row in enumerate(M)}, _is_zero)
                       for j in range(n)})
    amult, aunit, bmult, bunit = (coeff_table(A.mult), coeffs(A.unit),
                                  coeff_table(B.mult), coeffs(B.unit))
    unital = axioms.image(ops, phi, aunit) == bunit
    rep.add("preserves unit", unital, "phi(1) != 1")

    _, tree = axioms.unit_tree(ops, n, amult, aunit)
    gens = (tree.gens if unital and tree is not None
            and axioms.associativity(ops, n, amult, tree.gens) is None
            and axioms.unital_associative(ops, n, bmult, bunit) else None)
    L = A.labels
    record(rep, "preserves product",
           axioms.algebra_map(ops, n, amult, phi, axioms.product(ops, bmult), gens),
           lambda b: f"phi({L[b[0]]}*{L[b[1]]}) != phi({L[b[0]]})*phi({L[b[1]]})")
    record(rep, "equivariant",
           axioms.comodule_map(ops, n, phi, coeff_table(A.coaction), coeff_table(B.coaction)),
           lambda i: f"coaction differs on phi({L[i]})")
    return rep


def map_matrix_entries(f: BaseMorphism, M: list) -> list:
    return [[f.apply(c) for c in row] for row in M]


# --------------------------------------------------------------------------
# linear maps from H and convolution
# --------------------------------------------------------------------------

class HModuleMap(Record, frozen=True):
    """A C-linear map H -> A given by its values on the H basis."""

    algebra: ComoduleAlgebra
    values: tuple  # values[k] is a coordinate vector in A

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(nonzero(v, _is_zero) for v in self.values))
        if len(self.values) != self.algebra.hopf.dim:
            raise DimensionMismatchError("one value per Hopf basis element required")

    def apply(self, h: dict) -> dict:
        A = self.algebra
        return total(ring_ops(A.base), (
            (i, c * m if isinstance(c, BaseElement) else m.scale(c))
            for k, c in h.items() for i, m in self.values[k].items()))

    def __hash__(self):
        return hash((self.algebra.labels, len(self.values)))


def unit_counit_map(A: ComoduleAlgebra) -> HModuleMap:
    """The convolution identity h -> counit(h) 1_A."""
    K = A.field
    vals = []
    for k in range(A.hopf.dim):
        eps = A.hopf.counit.get(k, K.zero())
        vals.append({i: c * A.lift(eps) for i, c in A.unit.items()})
    return HModuleMap(A, tuple(vals))


def convolve(f: HModuleMap, g: HModuleMap) -> HModuleMap:
    """(f * g)(h) = sum f(h_(1)) g(h_(2)) in A."""
    A = f.algebra
    if g.algebra != A:
        raise RingMismatchError("convolution needs maps into the same algebra")
    ops = ring_ops(A.base)
    return HModuleMap(A, tuple(
        total(ops, ((l, m.scale(c)) for (i, j), c in A.hopf.comult.get(k, {}).items()
                    for l, m in A.mul_vec(f.values[i], g.values[j]).items()))
        for k in range(A.hopf.dim)))


def convolution_invert(gamma: HModuleMap) -> HModuleMap:
    """Two-sided convolution inverse of gamma, by solving a linear system.

    The right-inverse condition gamma * gamma' = unit.counit is C-linear in
    the values of gamma'; solve it, then verify the left identity directly.
    NotInvertibleError if the system is inconsistent or one-sided.
    """
    A = gamma.algebra
    C, K, H = A.base, A.field, A.hopf
    n, d = A.dim, H.dim
    N = n * d
    zero = C.zero()
    rows = [{} for _ in range(N)]
    rhs = [zero] * N
    for k in range(d):
        for (i, j), c in H.comult.get(k, {}).items():
            lifted = A.lift(c)
            for p, cp in gamma.values[i].items():
                base = lifted * cp
                for m in range(n):
                    for l, cl in A.mult.get((p, m), {}).items():
                        row = rows[k * n + l]
                        row[j * n + m] = row.get(j * n + m, zero) + base * cl
        eps = H.counit.get(k, K.zero())
        if not K.is_zero(eps):
            lifted = A.lift(eps)
            for l, u in A.unit.items():
                rhs[k * n + l] = lifted * u
    sol = ring_solve(rows, rhs, C)
    if sol is None:
        raise NotInvertibleError("the cleaving map has no convolution inverse")
    inv = HModuleMap(A, tuple({i: sol[j * n + i] for i in range(n)} for j in range(d)))
    e = unit_counit_map(A)
    if convolve(inv, gamma) != e:
        raise NotInvertibleError(
            "right convolution inverse exists but is not two-sided")
    return inv
