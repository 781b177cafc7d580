"""Cleaving maps, cocycles, and twisted products.

A cleft bundle is one admitting a convolution-invertible comodule map
gamma from the coacting Hopf algebra into the total algebra.  From such a
map two pieces of data fall out: a quasi-action of H on the base and a
cocycle sigma(g, h) = sum gamma(g_(1)) gamma(h_(1)) gamma'(g_(2) h_(2)).
With central base the quasi-action must be trivial and sigma must take
values in the base; the bundle is then recovered as a twisted product of
the base with H.  Each Sweedler sum here is one ``axioms.convolution``.

A ``Cocycle`` keeps sigma as a tuple of rows of BaseElements, and the sums
read it as a table in a record's normal form (``axioms.normal``).

Cocycle validity is certified by directly checking unitality and
associativity of the constructed product on all basis triples rather than
through abstract cocycle identities; at the ranks handled here the direct
check is cheap and leaves nothing implicit.
"""

from __future__ import annotations

from . import axioms
from .axioms import normal
from .comod import (
    ComoduleAlgebra,
    HModuleMap,
    _lifted,
    convolution_invert,
    convolve,
    trivial_bundle,
    unit_counit_map,
)
from .errors import (BadNormalizationError, DimensionMismatchError, NonCentralDatumError,
                     NotAssociativeError, NotComoduleMapError, RingMismatchError)
from .hopf import HopfAlgebra
from .record import Record
from .report import Report
from .rings import BaseElement, BaseMorphism, BaseRing


def _times_unit(A: ComoduleAlgebra, c: dict) -> dict:
    """c 1_A for a coefficient dict c."""
    return {i: v for i, u in A.unit.items() if (v := A.ops.mul(c, u))}


def central_coefficient(A: ComoduleAlgebra, vec: dict):
    """The c in C (a BaseElement) with vec = c * unit, or None if vec is not
    central; vec holds coefficient dicts, with no zero among them."""
    inv = A.ops.inv
    pivot = next(((i, v) for i, u in A.unit.items() if (v := inv(u)) is not None), None)
    if pivot is None:
        return None
    c = A.ops.mul(vec.get(pivot[0], {}), pivot[1])
    return BaseElement(A.base, c) if vec == _times_unit(A, c) else None


class CleavingMap(Record, frozen=True):
    """A convolution-invertible comodule map H -> A with stored inverse."""

    algebra: ComoduleAlgebra
    gamma: HModuleMap
    gamma_inv: HModuleMap

    def verify(self) -> Report:
        rep = Report("cleaving map")
        A, H = self.algebra, self.algebra.hopf
        axioms.record(rep, "comodule morphism", _comodule_map_witness(A, self.gamma),
                      lambda i: f"fails on {H.labels[i]}")
        e = unit_counit_map(A)
        rep.add("right convolution inverse", convolve(self.gamma, self.gamma_inv) == e)
        rep.add("left convolution inverse", convolve(self.gamma_inv, self.gamma) == e)
        return rep


def _comodule_map_witness(A: ComoduleAlgebra, gamma: HModuleMap):
    """Index of the first basis element where rho(gamma(h)) != (gamma (x) id)(Delta h)."""
    return axioms.comodule_map(A.ops, A.hopf.dim, dict(enumerate(gamma.values)),
                               _lifted(A.base, A.hopf.comult),
                               lambda p: A.coaction.get(p, {}).items())


def check_cleaving(A: ComoduleAlgebra, gamma: HModuleMap) -> CleavingMap:
    """Certify gamma as a cleaving map of A.

    Verifies the comodule-morphism identity on every Hopf basis element
    (NotComoduleMap with the failing element as witness), then computes and
    verifies a two-sided convolution inverse (NotInvertible on failure).
    """
    if gamma.algebra != A:
        raise RingMismatchError("cleaving candidate is a map into a different algebra")
    bad = _comodule_map_witness(A, gamma)
    if bad is not None:
        raise NotComoduleMapError(
            f"coaction does not intertwine on {A.hopf.labels[bad]}")
    return CleavingMap(A, gamma, convolution_invert(gamma))


# --------------------------------------------------------------------------
# cocycle extraction
# --------------------------------------------------------------------------

class Cocycle(Record, frozen=True):
    """sigma: H (x) H -> C on basis pairs; sigma[a][b] = sigma(h_a, h_b)."""

    base: BaseRing
    hopf: HopfAlgebra
    sigma: tuple  # d x d tuple of tuples of BaseElements

    def __post_init__(self):
        d = self.hopf.dim
        object.__setattr__(self, "sigma", tuple(map(tuple, self.sigma)))
        if len(self.sigma) != d or any(len(row) != d for row in self.sigma):
            raise DimensionMismatchError("cocycle table must be square of the Hopf dimension")
        # not a field: sigma as {(a, b): coefficient dict}, the form the sums read
        object.__setattr__(self, "table", normal(
            "cocycle", {(a, b): c for a, row in enumerate(self.sigma) for b, c in enumerate(row)},
            (d, d), None, self.base))


def trivial_cocycle(base: BaseRing, H: HopfAlgebra) -> Cocycle:
    """sigma(g, h) = counit(g) counit(h) 1, the untwisted case."""
    eps = [base.from_scalar(H.counit.get(k, H.field.zero())) for k in range(H.dim)]
    return Cocycle(base, H, tuple(tuple(a * b for b in eps) for a in eps))


def _tensor_square_comult(C: BaseRing, H: HopfAlgebra) -> dict:
    """Delta of H (x) H on the basis h_a (x) h_b, index a d + b, lifted to C:
    Delta(g (x) h) = sum (g_(1) (x) h_(1)) (x) (g_(2) (x) h_(2))."""
    d, mul = H.dim, H.field.mul
    return _lifted(C, {a * d + b: {(a1 * d + b1, a2 * d + b2): mul(ca, cb)
                                   for (a1, a2), ca in ta.items() for (b1, b2), cb in tb.items()}
                       for a, ta in H.comult.items() for b, tb in H.comult.items()})


def quasi_action(cm: CleavingMap, c: BaseElement) -> list:
    """[h_k . c for k < d] as elements of A, h . c = sum gamma(h_(1)) (c 1_A)
    gamma'(h_(2)): the convolution of gamma (c 1_A) with gamma'."""
    A = cm.algebra
    c1 = _times_unit(A, c.coeffs)
    return axioms.convolution(A.ops, A.hopf.dim, A.mult, _lifted(A.base, A.hopf.comult),
                              {k: A.mul_vec(v, c1) for k, v in enumerate(cm.gamma.values)},
                              dict(enumerate(cm.gamma_inv.values)))


def extract_cocycle(cm: CleavingMap) -> Cocycle:
    """The cocycle of a cleaving map on a bundle with central base.

    First certifies that the quasi-action is trivial (h . c = counit(h) c on
    the unit and every base generator), then evaluates sigma on all basis
    pairs and certifies each value lands in C * 1_A.  NonCentralDatum if
    either fails: the input did not come from a central extension.
    """
    A = cm.algebra
    C, H, ops = A.base, A.hopf, A.ops
    d, L, hcounit = H.dim, H.labels, _lifted(C, H.counit)
    probes = [(c, quasi_action(cm, c),
               axioms.counit_unit(ops, d, hcounit, _times_unit(A, c.coeffs)))
              for c in [C.one()] + [C.gen(g.name) for g in C.gens]]
    for k in range(d):
        for c, got, want in probes:
            if got[k] != want[k]:
                raise NonCentralDatumError(
                    f"quasi-action of {L[k]} moves the base element {C.format_element(c)}")
    gamma = cm.gamma.values
    sigma = [central_coefficient(A, v) for v in axioms.convolution(
        ops, d * d, A.mult, _tensor_square_comult(C, H),
        {a * d + b: A.mul_vec(gamma[a], gamma[b]) for a in range(d) for b in range(d)},
        {a * d + b: cm.gamma_inv.apply(h) for (a, b), h in H.mult.items()})]
    bad = next((i for i, c in enumerate(sigma) if c is None), None)
    if bad is not None:
        raise NonCentralDatumError(f"sigma({L[bad // d]}, {L[bad % d]}) does not lie in the base")
    return Cocycle(C, H, tuple(tuple(sigma[a * d:a * d + d]) for a in range(d)))


def push_cocycle(f: BaseMorphism, sigma: Cocycle) -> Cocycle:
    if f.source != sigma.base:
        raise RingMismatchError("morphism source does not match the cocycle's base")
    return Cocycle(f.target, sigma.hopf, [[f(c) for c in row] for row in sigma.sigma])


# --------------------------------------------------------------------------
# twisted and crossed products
# --------------------------------------------------------------------------

def _check_normalization(ops, sigma: Cocycle) -> None:
    """sigma(1, h) = sigma(h, 1) = counit(h) 1, each side summed once."""
    C, H = sigma.base, sigma.hopf
    L, unit, eps = H.labels, _lifted(C, H.unit), _lifted(C, H.counit)
    rows, cols = {}, {}
    for (a, b), c in sigma.table.items():
        rows.setdefault(a, {})[b] = c
        cols.setdefault(b, {})[a] = c
    left, right = axioms.image(ops, rows, unit), axioms.image(ops, cols, unit)
    for b in range(H.dim):
        if left.get(b, {}) != eps.get(b, {}):
            raise BadNormalizationError(f"sigma(1, {L[b]}) != counit({L[b]}) 1")
        if right.get(b, {}) != eps.get(b, {}):
            raise BadNormalizationError(f"sigma({L[b]}, 1) != counit({L[b]}) 1")


def twisted_product(base: BaseRing, H: HopfAlgebra, sigma: Cocycle) -> ComoduleAlgebra:
    """C tensor H with product twisted by sigma, coaction id (x) Delta.

    (c (x) g)(d (x) h) = sum c d sigma(g_(1), h_(1)) (x) g_(2) h_(2)

    The table is sigma convolved with H's product over H (x) H.
    Normalization of sigma is checked first (BadNormalization), then the
    result is screened for unitality and associativity (NotAssociative, on
    the generators of a word tree when they pass); what survives is a
    genuine comodule algebra.
    """
    if sigma.base != base or sigma.hopf != H:
        raise RingMismatchError("cocycle was built over different data")
    T = trivial_bundle(base, H)  # its unit and coaction; it refuses another ground field
    ops, d, L = T.ops, H.dim, H.labels
    _check_normalization(ops, sigma)
    # C, of rank 1 with basis index 0, acts on H by {(0, q): {q: 1}}
    table = axioms.convolution(
        ops, d * d, {(0, q): {q: ops.one} for q in range(d)}, _tensor_square_comult(base, H),
        {a * d + b: {0: c} for (a, b), c in sigma.table.items()},
        _lifted(base, {a * d + b: h for (a, b), h in H.mult.items()}))
    A = ComoduleAlgebra(base, H, H.labels, {divmod(i, d): v for i, v in enumerate(table)},
                        T.unit, T.coaction)
    if A.verdict.unit is not None:
        raise NotAssociativeError(f"twisted product is not unital on {L[A.verdict.unit]}")
    if A.verdict.assoc is not None:
        i, j, l = A.verdict.assoc
        raise NotAssociativeError(
            f"twisted product fails associativity on ({L[i]}, {L[j]}, {L[l]})")
    return A


def trivial_action(base: BaseRing, H: HopfAlgebra):
    """h . c = counit(h) c, the only action compatible with central bases."""
    def act(k: int, c: BaseElement) -> BaseElement:
        return base.from_scalar(H.counit.get(k, H.field.zero())) * c

    return act


def crossed_product(base: BaseRing, H: HopfAlgebra, action, sigma: Cocycle) -> ComoduleAlgebra:
    """Crossed product with an explicit action; the action must be trivial.

    A nontrivial action would place the base outside the centre, leaving the
    structure-constant representation unable to express the product; such
    input is rejected (NonCentralDatum).  With the trivial action this is
    exactly the twisted product.
    """
    trivial = trivial_action(base, H)
    probes = [base.one()] + [base.gen(g.name) for g in base.gens]
    for k in range(H.dim):
        for c in probes:
            if action(k, c) != trivial(k, c):
                raise NonCentralDatumError(
                    f"action of {H.labels[k]} moves {base.format_element(c)}: "
                    "base would not be central")
    return twisted_product(base, H, sigma)


def cleaving_of_twisted_product(A: ComoduleAlgebra) -> CleavingMap:
    """gamma(h_k) = a_k, certified, on a bundle whose k-th basis element
    stands for the k-th basis element of H: 1 (x) h on a twisted product,
    1 -> 1, X -> x, Y -> y, XY -> xy on the rank-4 family."""
    gamma = HModuleMap(A, tuple(A.basis_vec(k) for k in range(A.hopf.dim)))
    return check_cleaving(A, gamma)
