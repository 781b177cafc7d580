"""Cleaving maps, cocycles, and twisted products.

A cleft bundle is one admitting a convolution-invertible comodule map
gamma from the coacting Hopf algebra into the total algebra.  From such a
map two pieces of data fall out: a quasi-action of H on the base and a
cocycle sigma(g, h) = sum gamma(g_(1)) gamma(h_(1)) gamma'(g_(2) h_(2)).
With central base the quasi-action must be trivial and sigma must take
values in the base; the bundle is then recovered as a twisted product of
the base with H.

Cocycle validity is certified by directly checking unitality and
associativity of the constructed product on all basis triples rather than
through abstract cocycle identities; at the ranks handled here the direct
check is cheap and leaves nothing implicit.
"""

from __future__ import annotations

from . import axioms
from .axioms import accumulate, ring_ops
from .comod import (
    ComoduleAlgebra,
    HModuleMap,
    _lifted,
    convolution_invert,
    convolve,
    trivial_bundle,
    unit_counit_map,
)
from .errors import (
    BadNormalizationError,
    DimensionMismatchError,
    NonCentralDatumError,
    NotAssociativeError,
    NotComoduleMapError,
    RingMismatchError,
)
from .hopf import HopfAlgebra
from .record import Record
from .report import Report
from .rings import BaseElement, BaseMorphism, BaseRing


def central_coefficient(A: ComoduleAlgebra, vec: dict):
    """The c in C (a BaseElement) with vec = c * unit, or None if vec is not
    central; vec holds coefficient dicts, with no zero among them."""
    C = A.base
    pivot = None
    for i, u in A.unit.items():
        inv = C.try_inverse(BaseElement(C, u))
        if inv is not None:
            pivot = (i, inv.coeffs)
            break
    if pivot is None:
        return None
    i0, uinv = pivot
    c = C._mul(vec.get(i0, {}), uinv)
    expect = {i: v for i, u in A.unit.items() if (v := C._mul(c, u))}
    return BaseElement(C, c) if vec == expect else None


class CleavingMap(Record, frozen=True):
    """A convolution-invertible comodule map H -> A with stored inverse."""

    algebra: ComoduleAlgebra
    gamma: HModuleMap
    gamma_inv: HModuleMap

    def verify(self) -> Report:
        rep = Report("cleaving map")
        A, H = self.algebra, self.algebra.hopf
        bad = _comodule_map_witness(A, self.gamma)
        rep.add("comodule morphism", bad is None,
                "" if bad is None else f"fails on {H.labels[bad]}")
        e = unit_counit_map(A)
        rep.add("right convolution inverse", convolve(self.gamma, self.gamma_inv) == e)
        rep.add("left convolution inverse", convolve(self.gamma_inv, self.gamma) == e)
        return rep


def _comodule_map_witness(A: ComoduleAlgebra, gamma: HModuleMap):
    """Index of the first basis element where rho(gamma(h)) != (gamma (x) id)(Delta h)."""
    return axioms.comodule_map(A.ops, A.hopf.dim, dict(enumerate(gamma.values)),
                               _lifted(A, A.hopf.comult), A.coaction)


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
        if len(self.sigma) != d or any(len(row) != d for row in self.sigma):
            raise DimensionMismatchError("cocycle table must be square of the Hopf dimension")


def trivial_cocycle(base: BaseRing, H: HopfAlgebra) -> Cocycle:
    """sigma(g, h) = counit(g) counit(h) 1, the untwisted case."""
    K = H.field
    d = H.dim
    sigma = tuple(tuple(base.from_scalar(K.mul(H.counit.get(a, K.zero()),
                                               H.counit.get(b, K.zero())))
                        for b in range(d)) for a in range(d))
    return Cocycle(base, H, sigma)


def quasi_action(cm: CleavingMap, k: int, c: BaseElement) -> dict:
    """h_k . c = sum gamma(h_(1)) (c 1_A) gamma'(h_(2)), as an element of A."""
    A = cm.algebra
    C, H = A.base, A.hopf
    c_vec = {i: C._mul(c.coeffs, u) for i, u in A.unit.items()}
    return accumulate(A.ops, (
        (l, C._scale(w, m)) for (i, j), w in H.comult.get(k, {}).items()
        for l, m in A.mul_vec(A.mul_vec(cm.gamma.values[i], c_vec),
                              cm.gamma_inv.values[j]).items()))


def extract_cocycle(cm: CleavingMap) -> Cocycle:
    """The cocycle of a cleaving map on a bundle with central base.

    First certifies that the quasi-action is trivial (h . c = counit(h) c on
    the unit and every base generator), then evaluates sigma on all basis
    pairs and certifies each value lands in C * 1_A.  NonCentralDatum if
    either fails: the input did not come from a central extension.
    """
    A = cm.algebra
    C, H, K = A.base, A.hopf, A.field
    probes = [C.one()] + [C.gen(g.name) for g in C.gens]
    for k in range(H.dim):
        eps = H.counit.get(k, K.zero())
        for c in probes:
            got = quasi_action(cm, k, c)
            ec = C._scale(eps, c.coeffs)
            want = {i: v for i, u in A.unit.items() if (v := C._mul(ec, u))}
            if got != want:
                raise NonCentralDatumError(
                    f"quasi-action of {H.labels[k]} moves the base element "
                    f"{C.format_element(c)}")
    d, ops = H.dim, A.ops
    rows = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = accumulate(ops, (
                (l, C._scale(K.mul(ca, cb), m))
                for (a1, a2), ca in H.comult.get(a, {}).items()
                for (b1, b2), cb in H.comult.get(b, {}).items()
                for l, m in A.mul_vec(A.mul_vec(cm.gamma.values[a1], cm.gamma.values[b1]),
                                      cm.gamma_inv.apply(H.mult.get((a2, b2), {}))).items()))
            c = central_coefficient(A, acc)
            if c is None:
                raise NonCentralDatumError(
                    f"sigma({H.labels[a]}, {H.labels[b]}) does not lie in the base")
            row.append(c)
        rows.append(tuple(row))
    return Cocycle(C, H, tuple(rows))


def push_cocycle(f: BaseMorphism, sigma: Cocycle) -> Cocycle:
    if f.source != sigma.base:
        raise RingMismatchError("morphism source does not match the cocycle's base")
    return Cocycle(f.target, sigma.hopf,
                   tuple(tuple(f.apply(c) for c in row) for row in sigma.sigma))


# --------------------------------------------------------------------------
# twisted and crossed products
# --------------------------------------------------------------------------

def _check_normalization(sigma: Cocycle) -> None:
    C, H, K = sigma.base, sigma.hopf, sigma.hopf.field
    d = H.dim
    for b in range(d):
        eps = C.from_scalar(H.counit.get(b, K.zero()))
        left = C.zero()
        right = C.zero()
        for a, u in H.unit.items():
            lifted = C.from_scalar(u)
            left = left + lifted * sigma.sigma[a][b]
            right = right + lifted * sigma.sigma[b][a]
        if left != eps:
            raise BadNormalizationError(
                f"sigma(1, {H.labels[b]}) != counit({H.labels[b]}) 1")
        if right != eps:
            raise BadNormalizationError(
                f"sigma({H.labels[b]}, 1) != counit({H.labels[b]}) 1")


def twisted_product(base: BaseRing, H: HopfAlgebra, sigma: Cocycle) -> ComoduleAlgebra:
    """C tensor H with product twisted by sigma, coaction id (x) Delta.

    (c (x) g)(d (x) h) = sum c d sigma(g_(1), h_(1)) (x) g_(2) h_(2)

    Normalization of sigma is checked first (BadNormalization), then the
    result is screened for unitality and associativity (NotAssociative, on
    the generators of a word tree when they pass); what survives is a
    genuine comodule algebra.
    """
    if sigma.base != base or sigma.hopf != H:
        raise RingMismatchError("cocycle was built over different data")
    T = trivial_bundle(base, H)  # its unit and coaction; it refuses another ground field
    _check_normalization(sigma)
    K = H.field
    d = H.dim
    ops = ring_ops(base)
    scale, sig = base._scale, [[c.coeffs for c in row] for row in sigma.sigma]
    mult = {(a, b): accumulate(ops, ((l, scale(K.mul(K.mul(ca, cb), m), sig[a1][b1]))
                                     for (a1, a2), ca in H.comult.get(a, {}).items()
                                     for (b1, b2), cb in H.comult.get(b, {}).items()
                                     for l, m in H.mult.get((a2, b2), {}).items()))
            for a in range(d) for b in range(d)}
    A = ComoduleAlgebra(base, H, H.labels, mult, T.unit, T.coaction)
    L = H.labels
    bad, tree = axioms.unit_tree(ops, d, A.mult, A.unit)
    if bad is not None:
        raise NotAssociativeError(f"twisted product is not unital on {L[bad]}")
    bad = axioms.associativity(ops, d, A.mult, None if tree is None else tree.gens)
    if bad is not None:
        i, j, l = bad
        raise NotAssociativeError(
            f"twisted product fails associativity on ({L[i]}, {L[j]}, {L[l]})")
    return A


def trivial_action(base: BaseRing, H: HopfAlgebra):
    """h . c = counit(h) c, the only action compatible with central bases."""
    K = H.field

    def act(k: int, c: BaseElement) -> BaseElement:
        return base.from_scalar(H.counit.get(k, K.zero())) * c

    return act


def crossed_product(base: BaseRing, H: HopfAlgebra, action, sigma: Cocycle) -> ComoduleAlgebra:
    """Crossed product with an explicit action; the action must be trivial.

    A nontrivial action would place the base outside the centre, leaving the
    structure-constant representation unable to express the product; such
    input is rejected (NonCentralDatum).  With the trivial action this is
    exactly the twisted product.
    """
    K = H.field
    probes = [base.one()] + [base.gen(g.name) for g in base.gens]
    for k in range(H.dim):
        eps = base.from_scalar(H.counit.get(k, K.zero()))
        for c in probes:
            if action(k, c) != eps * c:
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
