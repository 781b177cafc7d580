"""Comodule algebras over a central coinvariant base ring.

An object here is an algebra A, free of finite rank as a module over a
commutative base ring C, together with a coaction of a Hopf algebra H.
Multiplication and coaction are stored as structure constants with
coefficients in C, each held as its coefficient dict {monomial: scalar},
the form in which ``axioms.ring_ops`` computes:

* ``mult[(i, j)]``  -- coordinates of a_i * a_j (dict index -> coefficient)
* ``unit``          -- coordinates of 1_A
* ``coaction[i]``   -- coordinates of rho(a_i) in A (x) H (dict (j, k) -> coefficient)

C sits inside A as C * 1_A; because all structure constants live in the
commutative ring C, centrality of the base is built into the representation.
Whether C is exactly the coinvariant subalgebra is a theorem to check, not
an assumption: see ``coinvariants_over_field`` and the canonical-map test in
the Galois module.

As for a Hopf algebra, a record keeps copies of its tables, and an
``HModuleMap`` of its values, in normal form (``axioms.normal``): zero
coefficients and empty rows dropped, every index in range.  Equality is
field by field.  Building a record is the one place that converts: an
entry given as a BaseElement of the base ring is read as its coefficient
dict, so tables may be built with ring arithmetic, and any other entry
but a coefficient dict is refused, as in ``check_iso``'s matrix.
Module vectors ({index: coefficient dict}) are summed by
``axioms.accumulate`` with the record's ``ops``, the ``axioms.ring_ops`` of
its base, built once with the record, and a base change maps them entry by
entry with ``BaseMorphism.apply``, dict to dict, forming no BaseElement.
Beside its ``ops`` a record holds its ``verdict`` (``axioms.Verdict``),
built when first read and then kept, as a Hopf algebra does, so its tables
are not to be changed in place.
``_lifted`` alone lifts H's tables and vectors into the base.

``verify_comodule_algebra`` checks the axioms on the record's own tables
with the one axiom checker of ``axioms``, the one that also verifies Hopf
algebras.
"""

from __future__ import annotations

from functools import cached_property

from . import axioms
from .axioms import accumulate, normal, record, ring_ops
from .errors import (BaseNotFieldError, DimensionMismatchError, NotInvertibleError,
                     RingMismatchError)
from .hopf import HopfAlgebra
from .linalg import _solve, field_kernel, ring_det
from .record import Record
from .report import Report
from .rings import BaseMorphism, BaseRing


def _lifted(C: BaseRing, x: dict) -> dict:
    """A vector or table of H with its coefficients lifted into C, as
    coefficient dicts: H's are nonzero, and constants are in normal form."""
    const = (0,) * len(C.gens)
    return {key: _lifted(C, c) if isinstance(c, dict) else {const: c} for key, c in x.items()}


class ComoduleAlgebra(Record, frozen=True):
    base: BaseRing
    hopf: HopfAlgebra
    labels: tuple
    mult: dict
    unit: dict
    coaction: dict

    def __post_init__(self):
        put, C = object.__setattr__, self.base
        if C.field != self.hopf.field:
            raise RingMismatchError(
                "base ring and Hopf algebra use different ground fields")
        n, d = self.dim, self.hopf.dim
        put(self, "mult", normal("multiplication", self.mult, (n, n), (n,), C))
        put(self, "unit", normal("unit", self.unit, (n,), None, C))
        put(self, "coaction", normal("coaction", self.coaction, (n,), (n, d), C))
        put(self, "ops", ring_ops(C))  # not a field: equality and hash ignore it

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def field(self):
        return self.base.field

    @cached_property
    def verdict(self) -> axioms.Verdict:
        return axioms.Verdict(self.ops, self.dim, self.mult, self.unit)

    # ------------------------------------------------------ module vectors

    def basis_vec(self, i: int) -> dict:
        return {i: self.base.one().coeffs}

    def mul_vec(self, a: dict, b: dict) -> dict:
        return accumulate(self.ops, axioms.product(self.ops, self.mult)(a, b))

    def coact_vec(self, a: dict) -> dict:
        return axioms.image(self.ops, self.coaction, a)

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

    A's tables are read as they are; the Hopf algebra's are lifted into the
    base ring once per call.
    """
    rep = Report(f"comodule algebra (rank {A.dim} over {A.base!r})")
    n, L, H = A.dim, A.labels, A.hopf
    ops, C, verdict = A.ops, A.base, A.verdict
    mult, coaction, unit = A.mult, A.coaction, A.unit

    def fails_on(i):
        return f"fails on {L[i]}"

    record(rep, "unit", verdict.unit, fails_on)
    record(rep, "associativity", verdict.assoc, lambda b: f"({L[b[0]]}*{L[b[1]]})*{L[b[2]]}")
    record(rep, "coaction counit",
           axioms.coaction_counit(ops, n, coaction, _lifted(C, H.counit)), fails_on)
    record(rep, "coaction coassociativity",
           axioms.coassociativity(ops, n, coaction, _lifted(C, H.comult)), fails_on)

    hunit = _lifted(C, H.unit)
    if axioms.image(ops, coaction, unit) != accumulate(ops, (((i, k), ops.mul(c, u))
                                                            for i, c in unit.items()
                                                            for k, u in hunit.items())):
        rep.add("coaction respects product", False, "rho(1) != 1 (x) 1")
    else:
        # the rows of the generators suffice once A (x) H is unital and associative
        tree = verdict.tree if verdict.tree is not None and H.verdict.ok else None
        record(rep, "coaction respects product",
               axioms.algebra_map(ops, n, mult, coaction,
                                  axioms.tensor_product(ops, mult, _lifted(C, H.mult)), tree),
               lambda b: f"rho({L[b[0]]}*{L[b[1]]})")
    return rep


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------

def trivial_bundle(base: BaseRing, H: HopfAlgebra) -> ComoduleAlgebra:
    """C (x) H with componentwise product and coaction id (x) Delta."""
    return ComoduleAlgebra(base, H, H.labels, _lifted(base, H.mult), _lifted(base, H.unit),
                           _lifted(base, H.comult))


def push_forward(f: BaseMorphism, A: ComoduleAlgebra) -> ComoduleAlgebra:
    """Base change along f: same structure constants with f applied entrywise."""
    if f.source != A.base:
        raise RingMismatchError("morphism source does not match the bundle's base ring")

    def image(vec):
        return {k: f.apply(c) for k, c in vec.items()}
    return ComoduleAlgebra(f.target, A.hopf, A.labels, {ij: image(v) for ij, v in A.mult.items()},
                           image(A.unit), {i: image(t) for i, t in A.coaction.items()})


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
                val = A.coaction.get(i, {}).get((j, k), {}).get((), K.zero())
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

    Requires the same base ring and the same Hopf algebra on both sides,
    and M's entries in that ring (RingMismatchError otherwise); checks
    invertibility (unit determinant), phi(1) = 1, that phi is an algebra
    map, on the generator rows of A's word tree once phi(1) = 1 and B is
    unital and associative (else on every row), and that phi is a comodule
    map.
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

    # phi's rows are the columns of M, and det of the transpose is det M
    ops = A.ops
    phi = normal("matrix", {j: {i: row[j] for i, row in enumerate(M)} for j in range(n)},
                 (n,), (n,), A.base)
    det = ring_det([phi.get(j, {}) for j in range(n)], A.base)
    if not ops.is_unit(det):
        rep.add("invertible", False, f"determinant {A.base.format_coeffs(det)} is not a unit")
        return rep
    rep.add("invertible", True)

    unital = axioms.image(ops, phi, A.unit) == B.unit
    rep.add("preserves unit", unital, "phi(1) != 1")

    tree = A.verdict.tree if unital and A.verdict.tree is not None and B.verdict.ok else None
    L = A.labels
    record(rep, "preserves product",
           axioms.algebra_map(ops, n, A.mult, phi, axioms.product(ops, B.mult), tree),
           lambda b: f"phi({L[b[0]]}*{L[b[1]]}) != phi({L[b[0]]})*phi({L[b[1]]})")
    record(rep, "equivariant",
           axioms.comodule_map(ops, n, phi, A.coaction, lambda p: B.coaction.get(p, {}).items()),
           lambda i: f"coaction differs on phi({L[i]})")
    return rep


def map_matrix_entries(f: BaseMorphism, M: list) -> list:
    return [[f(c) for c in row] for row in M]


# --------------------------------------------------------------------------
# linear maps from H and convolution
# --------------------------------------------------------------------------

class HModuleMap(Record, frozen=True):
    """A C-linear map H -> A given by its values on the H basis."""

    algebra: ComoduleAlgebra
    values: tuple  # values[k] is a vector in A, {index: coefficient dict}

    def __post_init__(self):
        A, d = self.algebra, len(self.values)
        if d != A.hopf.dim:
            raise DimensionMismatchError("one value per Hopf basis element required")
        values = normal("value", dict(enumerate(self.values)), (d,), (A.dim,), A.base)
        object.__setattr__(self, "values", tuple(values.get(k, {}) for k in range(d)))

    def apply(self, h: dict) -> dict:
        """The value at h, a vector {k: scalar} of H."""
        A = self.algebra
        scale = A.base._scale
        return accumulate(A.ops, ((i, scale(c, m)) for k, c in h.items()
                                  for i, m in self.values[k].items()))

    def __hash__(self):
        return hash((self.algebra.labels, len(self.values)))


def unit_counit_map(A: ComoduleAlgebra) -> HModuleMap:
    """The convolution identity h -> counit(h) 1_A."""
    return HModuleMap(A, tuple(axioms.counit_unit(A.ops, A.hopf.dim,
                                                  _lifted(A.base, A.hopf.counit), A.unit)))


def convolve(f: HModuleMap, g: HModuleMap) -> HModuleMap:
    """(f * g)(h) = sum f(h_(1)) g(h_(2)) in A."""
    A = f.algebra
    if g.algebra != A:
        raise RingMismatchError("convolution needs maps into the same algebra")
    return HModuleMap(A, tuple(axioms.convolution(
        A.ops, A.hopf.dim, A.mult, _lifted(A.base, A.hopf.comult),
        dict(enumerate(f.values)), dict(enumerate(g.values)))))


def convolution_invert(gamma: HModuleMap) -> HModuleMap:
    """Two-sided convolution inverse of gamma, by solving a linear system.

    The left-inverse condition gamma' * gamma = unit.counit is C-linear in
    the values of gamma'; solve it (``axioms.solve_convolution``), then
    verify the right identity directly.  NotInvertibleError if the system
    is inconsistent or one-sided.
    """
    A = gamma.algebra
    C, d = A.base, A.hopf.dim
    e = unit_counit_map(A)
    sol = axioms.solve_convolution(A.ops, A.dim, A.mult, _lifted(C, A.hopf.comult),
                                   dict(enumerate(gamma.values)), e.values, list(range(d)),
                                   lambda M, b: _solve(M, b, A.ops))
    if sol is None:
        raise NotInvertibleError("the cleaving map has no convolution inverse")
    inv = HModuleMap(A, tuple(sol[k] for k in range(d)))
    if convolve(gamma, inv) != e:
        raise NotInvertibleError(
            "left convolution inverse exists but is not two-sided")
    return inv
