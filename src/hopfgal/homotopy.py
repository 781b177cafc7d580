"""Homotopy equivalence of bundles, witnessed by families over an interval.

Two bundles over the same central base count as equivalent when, after an
admissible extension of the base (a tower of root adjunctions), both appear
as endpoint fibres of a single bundle over the extension with a free
interval variable adjoined.  A witness packages the extension step, the
family, and one certifying matrix per endpoint; verification recomputes
every push-forward and re-certifies both matrices, trusting nothing stored.
A step is its inclusion alone, its root adjunctions read off and checked on
the target ring's own tower, so it cannot disagree with its extension and
checking it builds no tower.  A witness is well formed when built: a step
refuses an inclusion that is not a tower of root adjunctions over its
source, the interval is its step's, and a witness refuses a family off
that interval or a matrix entry off the extension.  Chains of witnesses
compose the relation, and a reversed link runs its family backwards.
"""

from __future__ import annotations

from functools import cached_property

from . import axioms
from .errors import (BaseMismatchError, CharTwoError, MathError,
                     NotCommutativeError, NotEtaleInclusionError,
                     RingMismatchError)
from .rings import (ROOT, BaseElement, BaseMorphism, IntervalRing, adjoin_root, compose,
                    extend_with_t, fresh_name, identity_morphism,
                    inclusion_morphism)
from .record import Record
from .report import Report
from .hopf import is_commutative_hopf
from .comod import (ComoduleAlgebra, check_iso, map_matrix_entries,
                    push_forward, trivial_bundle)
from .galois import verify_bundle
from .bundles import AbgParams, abg_bundle, kummer_root_data, sqrt_reduction


def identity_matrix(ring, n: int) -> list:
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# --------------------------------------------------------------- base steps


class EtaleStep(Record, frozen=True):
    """An admissible extension of the base: a tower of root adjunctions.

    The step is its inclusion alone.  Its recipe, each root adjunction past
    the source as (value, degree, name), is read off the target's own tower,
    so the tower can be rebuilt over a different base.  A step that
    ``verify_step`` does not pass is refused.
    """

    morphism: BaseMorphism

    def __post_init__(self):
        if not verify_step(self):
            raise NotEtaleInclusionError("step is not a tower of root adjunctions over its source")

    @property
    def source(self):
        return self.morphism.source

    @property
    def target(self):
        return self.morphism.target

    @cached_property
    def recipe(self) -> tuple:
        T, k = self.target, len(self.source.gens)
        return tuple((T.root_value(i), g.degree, g.name)
                     for i, g in enumerate(T.gens) if i >= k and g.kind == ROOT)

    @cached_property
    def interval(self) -> IntervalRing:
        return extend_with_t(self.target)

    def __repr__(self):
        if not self.recipe:
            return f"<identity step on {self.source!r}>"
        adjs = ", ".join(f"{nm}^{n} = {u}" for u, n, nm in self.recipe)
        return f"<step adjoining {adjs}>"


def identity_step(ring) -> EtaleStep:
    return EtaleStep(identity_morphism(ring))


def root_step(ring, u, n: int, name: str | None = None):
    """Adjoin an n-th root of the unit u; returns (step, root)."""
    _, incl, root = adjoin_root(ring, u, n, name)
    return EtaleStep(incl), root


def compose_steps(first: EtaleStep, second: EtaleStep) -> EtaleStep:
    return EtaleStep(compose(first.morphism, second.morphism))


def verify_step(step: EtaleStep) -> bool:
    """Whether the target's own tower, read with no tower built, is the
    source and then root adjunctions (``BaseRing.is_etale_over``), and the
    morphism sends each generator of the source to its namesake.  Every
    ``EtaleStep`` passes, as its constructor refuses one that does not."""
    S, T = step.source, step.target
    return (T.prefix(len(S.gens)) == S and T.is_etale_over(len(S.gens))
            and step.morphism.images == [T.gen(g.name) for g in S.gens])


def transport_step(step: EtaleStep, f: BaseMorphism):
    """Replay the tower over the target of f; returns (step', fbar).

    fbar extends f to the tops of the two towers, and the square
    step'.morphism o f = fbar o step.morphism commutes on the nose.  That
    exact commutation is what lets transported witnesses be re-certified.
    """
    if f.source != step.source:
        raise BaseMismatchError("morphism must start at the step's source")
    fbar = f
    for j, (u, n, nm) in enumerate(step.recipe, len(step.source.gens)):
        top, incl, root = adjoin_root(fbar.target, fbar(u), n, fresh_name(fbar.target, nm))
        images = {g.name: incl(img) for g, img in zip(fbar.source.gens, fbar.images)}
        fbar = BaseMorphism(step.target.prefix(j + 1), top, {**images, nm: root})
    return EtaleStep(inclusion_morphism(f.target, fbar.target)), fbar


# ---------------------------------------------------------------- witnesses


class HomotopyWitness(Record, frozen=True):
    """A family over the interval with certified endpoint fibres.

    The family lives over the step's interval ring.  The two matrices
    identify the pushed-forward endpoint bundles with the fibres of the
    family at 0 and at 1; both live over the extension, and the record holds
    each as a tuple of row tuples, so that it hashes.
    """

    step: EtaleStep
    family: ComoduleAlgebra
    at_zero: ComoduleAlgebra
    at_one: ComoduleAlgebra
    iso_zero: tuple
    iso_one: tuple

    @property
    def interval(self) -> IntervalRing:
        return self.step.interval

    def __post_init__(self):
        for name in ("iso_zero", "iso_one"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        if self.family.base != self.interval.ring:
            raise BaseMismatchError("family must live over the interval ring")
        ext = self.step.target
        if any(getattr(e, "ring", None) != ext
               for M in (self.iso_zero, self.iso_one) for row in M for e in row):
            raise BaseMismatchError("endpoint matrices must live over the extension")


def verify_witness(w: HomotopyWitness) -> Report:
    """Re-derive everything a witness claims; stored data is not trusted."""
    A, B = w.at_zero, w.at_one
    C = w.step.source
    if A.base != C or B.base != C:
        raise BaseMismatchError("endpoint bundles must live over the step's source")
    if A.hopf != B.hopf or A.hopf != w.family.hopf:
        raise BaseMismatchError("endpoints and family must share the coacting Hopf algebra")
    rep = Report("homotopy witness")
    # recorded, not tested: a witness is refused when built unless these hold
    rep.add("admissible extension step", True)
    rep.add("interval ring over the extension", True)
    for title, bundle in (("family bundle", w.family), ("endpoint bundle at 0", A),
                          ("endpoint bundle at 1", B)):
        rep.nest(verify_bundle(bundle), title)
    for label, M, end, at in (("0", w.iso_zero, A, w.interval.at_zero),
                              ("1", w.iso_one, B, w.interval.at_one)):
        rep.add(f"matrix at {label} over the extension", True)
        rep.nest(check_iso(push_forward(w.step.morphism, end), push_forward(at, w.family), M),
                 f"endpoint fibre at {label}")
    return rep


def reflexive_witness(A: ComoduleAlgebra) -> HomotopyWitness:
    """The constant family: every bundle is equivalent to itself."""
    idm, step = identity_morphism(A.base), identity_step(A.base)
    return morphism_homotopy_witness(idm, idm, step, step.interval.include, A)


def transport_witness(f: BaseMorphism, w: HomotopyWitness) -> HomotopyWitness:
    """Push a witness along a change of the base; equivalence survives.

    The step is replayed over the new base, the family travels along the
    lift of f to the interval rings, and the endpoint matrices are mapped
    entrywise through the lift to the extension tops.
    """
    step2, fbar = transport_step(w.step, f)
    interval2 = step2.interval
    lift = {g.name: interval2.include(img) for g, img in zip(fbar.source.gens, fbar.images)}
    fbar_t = BaseMorphism(w.interval.ring, interval2.ring, {**lift, w.interval.t_name: interval2.t})
    return HomotopyWitness(
        step2,
        push_forward(fbar_t, w.family),
        push_forward(f, w.at_zero),
        push_forward(f, w.at_one),
        map_matrix_entries(fbar, w.iso_zero),
        map_matrix_entries(fbar, w.iso_one))


# ------------------------------------------------------------------- chains


def _link_ends(link):
    w, forward = link
    return (w.at_zero, w.at_one) if forward else (w.at_one, w.at_zero)


class WitnessChain(Record, frozen=True):
    """Witnesses laid end to end; links are (witness, forward) pairs.

    A backward link contributes its family run from 1 to 0, which is how a
    single witness already yields a symmetric relation.
    """

    links: tuple

    def __post_init__(self):
        if not self.links:
            raise ValueError("a chain needs at least one link")
        for a, b in zip(self.links, self.links[1:]):
            if _link_ends(a)[1] != _link_ends(b)[0]:
                raise BaseMismatchError("adjacent links must share an endpoint bundle")

    @property
    def start(self):
        return _link_ends(self.links[0])[0]

    @property
    def end(self):
        return _link_ends(self.links[-1])[1]

    def reverse(self) -> "WitnessChain":
        return WitnessChain(tuple((w, not fwd) for w, fwd in reversed(self.links)))

    def then(self, other: "WitnessChain") -> "WitnessChain":
        return WitnessChain(self.links + other.links)

    def __len__(self):
        return len(self.links)


def verify_chain(chain: WitnessChain, start=None, end=None) -> Report:
    rep = Report("homotopy equivalence chain")
    if start is not None:
        rep.add("chain starts at the given bundle", chain.start == start)
    if end is not None:
        rep.add("chain ends at the given bundle", chain.end == end)
    for idx, (w, forward) in enumerate(chain.links):
        rep.nest(verify_witness(w), f"link {idx}" + ("" if forward else " (reversed)"))
    return rep


# ------------------------------------------------- homotopies of morphisms


def verify_morphism_homotopy(f: BaseMorphism, g: BaseMorphism,
                             step: EtaleStep, path: BaseMorphism) -> Report:
    """Check that the path interpolates the two morphisms after extension.

    Evaluating the path at 0 must recover the first morphism composed into
    the extension, and at 1 the second; generators suffice.
    """
    if f.source != g.source or f.target != g.target:
        raise RingMismatchError("the two morphisms must share source and target")
    if step.source != f.target:
        raise BaseMismatchError("step must extend the morphisms' target")
    interval = step.interval
    if path.source != f.source or path.target != interval.ring:
        raise RingMismatchError("path must map the source into the interval ring")
    i = step.morphism
    rep = Report("morphism homotopy")
    if not f.source.gens:
        rep.add("endpoints on the ground field", True)
    for gen in f.source.gens:
        x = f.source.gen(gen.name)
        p = path(x)
        rep.add(f"endpoint 0 on {gen.name}", interval.at_zero(p) == i(f(x)),
                "path does not start at the first morphism")
        rep.add(f"endpoint 1 on {gen.name}", interval.at_one(p) == i(g(x)),
                "path does not end at the second morphism")
    return rep


def morphism_homotopy_witness(f: BaseMorphism, g: BaseMorphism,
                              step: EtaleStep, path: BaseMorphism,
                              A: ComoduleAlgebra) -> HomotopyWitness:
    """Push-forwards along homotopic morphisms are equivalent bundles.

    The family is the push-forward along the path itself; both endpoint
    matrices are identities because evaluation commutes with push-forward
    on the nose.
    """
    rep = verify_morphism_homotopy(f, g, step, path)
    if not rep.ok:
        raise MathError("; ".join(rep.failures()))
    if A.base != f.source:
        raise BaseMismatchError("bundle must live over the morphisms' source")
    ident = identity_matrix(step.target, A.dim)
    return HomotopyWitness(step, push_forward(path, A), push_forward(f, A), push_forward(g, A),
                           ident, ident)


def grading_witness(A: ComoduleAlgebra) -> HomotopyWitness:
    """Contract the positive-degree part of a graded base onto degree zero.

    A generator of degree i travels along t^i: at 1 this is the identity,
    at 0 it is projection onto degree zero followed by inclusion, so the
    bundle is carried onto its degree-zero restriction without any base
    extension.  A base with no positive degrees yields the reflexive
    witness.
    """
    C = A.base
    step = identity_step(C)
    interval = step.interval
    t = interval.t
    path_images, proj_images = {}, {}
    for g in C.gens:
        lifted = interval.ring.gen(g.name)
        path_images[g.name] = (t ** g.grade) * lifted if g.grade else lifted
        proj_images[g.name] = C.gen(g.name) if g.grade == 0 else C.zero()
    path = BaseMorphism(C, interval.ring, path_images)
    proj = BaseMorphism(C, C, proj_images)
    return morphism_homotopy_witness(proj, identity_morphism(C), step, path, A)


# ------------------------------------------------ trivialization pipelines


def cleft_trivialization_witness(p: AbgParams) -> WitnessChain:
    """One-link chain from the four-parameter bundle to the untwisted one.

    A square root s of the leading parameter is adjoined (no extension when
    it is already 1), the rescaling onto (1, b, g/s) provides the matrix at
    the 1 end, and the straight-line family (1, t*b, t*g/s) walks that
    endpoint down to (1, 0, 0).  The chain runs backwards through the
    family, from the original bundle to the one with all parameters off.
    """
    C = p.base
    if C.field.characteristic() == 2:
        raise CharTwoError("a square root of the leading parameter needs 2 invertible")
    if p.alpha == C.one():
        step, s = identity_step(C), C.one()
    else:
        step, s = root_step(C, p.alpha, 2, fresh_name(C, "s"))
    i = step.morphism
    ext = step.target
    red = sqrt_reduction(AbgParams(ext, i(p.alpha), i(p.beta), i(p.gamma)), s)
    interval = step.interval
    t, inc = interval.t, interval.include
    family = abg_bundle(AbgParams(interval.ring, interval.ring.one(),
                                  t * inc(red.target.beta),
                                  t * inc(red.target.gamma)))
    w = HomotopyWitness(step, family,
                        abg_bundle(AbgParams(C, C.one(), C.zero(), C.zero())),
                        abg_bundle(p),
                        identity_matrix(ext, 4), red.matrix)
    return WitnessChain(((w, False),))


def etale_trivialization_witness(A: ComoduleAlgebra, step: EtaleStep,
                                 images) -> HomotopyWitness:
    """A commutative bundle trivializes over its own total algebra.

    The images realize the module basis inside the extension; the matrix
    whose columns are the realized coaction legs then identifies the pushed
    bundle with the product bundle of the coacting Hopf algebra, and the
    family is constant.
    """
    n = A.dim
    bad = axioms.commutativity(n, A.mult)
    if bad is not None:
        raise NotCommutativeError(
            f"total algebra is not commutative on {A.labels[bad[0]]}, {A.labels[bad[1]]}")
    if not is_commutative_hopf(A.hopf):
        raise NotCommutativeError("coacting Hopf algebra is not commutative")
    if step.source != A.base:
        raise BaseMismatchError("step must extend the bundle's base")
    ext, incl = step.target, step.morphism
    if len(images) != n or any(getattr(x, "ring", None) != ext for x in images):
        raise NotEtaleInclusionError("need one extension element per module basis vector")

    # a_i -> images[i] must be an algebra map into ext, whose one basis element is 0
    P = push_forward(incl, A)
    ops = P.ops
    phi = {i: {0: x.coeffs} for i, x in enumerate(images) if not x.is_zero}
    if axioms.image(ops, phi, P.unit) != {0: ops.one}:
        raise NotEtaleInclusionError("images do not realize the unit")
    bad = axioms.algebra_map(ops, n, P.mult, phi, axioms.product(ops, {(0, 0): {0: ops.one}}))
    if bad is not None:
        raise NotEtaleInclusionError(
            f"images break the product on {A.labels[bad[0]]}, {A.labels[bad[1]]}")
    d = A.hopf.dim
    M = [[ext.zero() for _ in range(n)] for _ in range(d)]
    for j in range(n):
        for (jj, k), c in P.coaction.get(j, {}).items():
            M[k][j] = M[k][j] + BaseElement(ext, c) * images[jj]
    return HomotopyWitness(step, trivial_bundle(step.interval.ring, A.hopf), A,
                           trivial_bundle(A.base, A.hopf), M, identity_matrix(ext, d))


def kummer_trivialization_witness(N: int, q, k):
    """The cyclotomic circle bundle trivialized over its own total algebra.

    Returns (bundle, witness): the root of the coordinate realizes the
    module basis, so the bundle's total algebra is itself the admissible
    extension that splits it.
    """
    A, _, incl, images = kummer_root_data(N, q, k)
    return A, etale_trivialization_witness(A, EtaleStep(incl), images)
