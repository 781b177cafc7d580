"""Concrete bundle families: the two-generator rank-4 family and Kummer covers.

The rank-4 family over a base C is presented by generators x, y with

    x^2 = alpha (a unit),  y^2 = beta,  x y + y x = gamma

and carries the four-dimensional Hopf algebra's coaction.  Its full
multiplication table is derived mechanically by rewriting words in x, y
with the rules {xx -> alpha, yy -> beta, yx -> gamma - xy}; the rewriting
system is confluent (tests drive it with different strategies and compare).

The Kummer cover adjoins an N-th root of the Laurent generator z and is
coacted on by the dual of the cyclic group algebra through the order-N
root-of-unity action.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .cleft import CleavingMap, check_cleaving
from .comod import ComoduleAlgebra, HModuleMap, check_iso
from .errors import (
    BadRootError,
    BadRootOfUnityError,
    BaseNotFieldError,
    CharDividesError,
    CharTwoError,
    MathError,
    NonUnitAlphaError,
    RingMismatchError,
    RootSearchUnsupportedError,
)
from .fields import Field, PrimeField
from .hopf import cyclic_group_algebra, dual_hopf, sweedler_h4
from .record import Record
from .report import Report
from .rings import BaseElement, BaseRing, adjoin_root, laurent_ring


# --------------------------------------------------------------------------
# the rank-4 two-generator family
# --------------------------------------------------------------------------

class AbgParams(Record, frozen=True):
    """Structure constants (alpha, beta, gamma) of the rank-4 family over C."""

    base: BaseRing
    alpha: BaseElement
    beta: BaseElement
    gamma: BaseElement

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if isinstance(v, int):
                object.__setattr__(self, name, self.base.from_int(v))
            elif v.ring != self.base:
                raise RingMismatchError(f"{name} does not belong to the base ring")
        if not self.base.is_unit(self.alpha):
            raise NonUnitAlphaError(
                f"alpha = {self.base.format_element(self.alpha)} is not a unit; "
                "x could not be invertible")

    def __repr__(self):
        f = self.base.format_element
        return f"({f(self.alpha)}, {f(self.beta)}, {f(self.gamma)} / {self.base!r})"


_WORDS = ("", "x", "y", "xy")
_WORD_INDEX = {w: i for i, w in enumerate(_WORDS)}


def _find_redex(word: str, leftmost: bool):
    rng = range(len(word) - 1)
    for i in (rng if leftmost else reversed(rng)):
        if word[i:i + 2] in ("xx", "yy", "yx"):
            return i
    return None


def reduce_word_combination(p: AbgParams, comb: dict, leftmost: bool = True) -> dict:
    """Normal form of a C-combination of words in x, y.

    Rules: xx -> alpha, yy -> beta, yx -> gamma * (empty) - xy.  Both
    strategies must agree; the default scans leftmost.
    """
    C = p.base
    out: dict = {}
    stack = list(comb.items())
    while stack:
        word, c = stack.pop()
        if c.is_zero:
            continue
        i = _find_redex(word, leftmost)
        if i is None:
            s = out.get(word, C.zero()) + c
            if s.is_zero:
                out.pop(word, None)
            else:
                out[word] = s
            continue
        pair = word[i:i + 2]
        rest = word[:i] + word[i + 2:]
        if pair == "xx":
            stack.append((rest, c * p.alpha))
        elif pair == "yy":
            stack.append((rest, c * p.beta))
        else:
            stack.append((rest, c * p.gamma))
            stack.append((word[:i] + "xy" + word[i + 2:], -c))
    return out


def abg_bundle(p: AbgParams) -> ComoduleAlgebra:
    """The rank-4 bundle of p on the basis {1, x, y, xy}."""
    C = p.base
    one = C.one()
    mult = {}
    for i, wi in enumerate(_WORDS):
        for j, wj in enumerate(_WORDS):
            nf = reduce_word_combination(p, {wi + wj: one})
            mult[(i, j)] = {_WORD_INDEX[w]: c for w, c in nf.items()}
    lift = C.from_scalar
    K = C.field
    e = K.one()
    coaction = {
        0: {(0, 0): lift(e)},
        1: {(1, 1): lift(e)},
        2: {(0, 2): lift(e), (2, 1): lift(e)},
        3: {(1, 3): lift(e), (3, 0): lift(e)},
    }
    return ComoduleAlgebra(C, sweedler_h4(K), ("1", "x", "y", "xy"),
                           mult, {0: one}, coaction)


def abg_cleaving(A: ComoduleAlgebra) -> CleavingMap:
    """The tautological cleaving 1 -> 1, X -> x, Y -> y, XY -> xy, certified."""
    gamma = HModuleMap(A, tuple(A.basis_vec(k) for k in range(A.hopf.dim)))
    return check_cleaving(A, gamma)


# --------------------------------------------------------------------------
# triviality over a field
# --------------------------------------------------------------------------

class TrivialityVerdict(Record, frozen=True):
    trivial: bool
    s: object = None
    t: object = None
    matrix: tuple = None
    target: ComoduleAlgebra = None
    report: Report = None

    def describe(self) -> str:
        if not self.trivial:
            return "not trivial: no (s, t) with alpha = s^2, beta = t^2, gamma = 2st"
        return "trivial"


def trivialization_matrix(C: BaseRing, s, t) -> list:
    """Change of basis onto (1, 0, 0): x -> s x', y -> t x' + y', xy -> st + s x'y'."""

    def lift(v):
        return v if isinstance(v, BaseElement) else C.from_scalar(v)

    s_, t_ = lift(s), lift(t)
    zero, one = C.zero(), C.one()
    return [
        [one, zero, zero, s_ * t_],
        [zero, s_, t_, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, s_],
    ]


def abg_triviality_criterion(p: AbgParams) -> TrivialityVerdict:
    """Decide isomorphism to (1, 0, 0) over a field of characteristic != 2.

    Trivial exactly when alpha = s^2, beta = t^2 and gamma = 2 s t for some
    unit s and scalar t; given a square root s of alpha, t is forced to be
    gamma / 2s.  On success the verdict carries the explicit change of
    basis, certified by check_iso rather than assumed.
    """
    C = p.base
    if not C.is_field:
        raise BaseNotFieldError("the triviality criterion works over a field base")
    K: Field = C.field
    if K.characteristic() == 2:
        raise CharTwoError("criterion needs 2 invertible: t = gamma / 2s")
    alpha = p.alpha.constant_scalar()
    beta = p.beta.constant_scalar()
    gamma = p.gamma.constant_scalar()
    s0 = K.sqrt(alpha)
    if s0 is None:
        return TrivialityVerdict(False)
    two = K.from_int(2)
    for s in (s0, K.neg(s0)):
        t = K.div(gamma, K.mul(two, s))
        if not K.is_zero(K.sub(K.mul(t, t), beta)):
            continue
        M = trivialization_matrix(C, s, t)
        target = abg_bundle(AbgParams(C, C.one(), C.zero(), C.zero()))
        rep = check_iso(abg_bundle(p), target, M)
        if not rep.ok:
            raise MathError("criterion produced a map that failed certification: "
                            + "; ".join(rep.failures()))
        return TrivialityVerdict(True, s, t, tuple(tuple(r) for r in M), target, rep)
    return TrivialityVerdict(False)


@cache
def _coaction_images(C: BaseRing):
    """The bundle (1, 0, 0) over C, with the candidate images of x and of y
    in it that respect the coaction: they depend on C alone, so a census of
    many triples over one ring filters its q^4 candidates once.  Every
    caller shares the result and only reads it."""
    K = C.field
    T = abg_bundle(AbgParams(C, C.one(), C.zero(), C.zero()))
    zero, one = C.zero(), C.one()
    elems = [C.from_scalar(K.from_int(i)) for i in range(K.characteristic())]
    # rho(x) = x (x) X and rho(y) = 1 (x) Y + y (x) X in the whole family,
    # so an algebra map respects the coaction iff its generator images do.
    xs, ys = [], []
    for combo in product(elems, repeat=4):
        v = {i: c for i, c in enumerate(combo) if c != zero}
        rho = T.coact_vec(v)
        tensored = {(i, 1): c for i, c in v.items()}
        if rho == tensored:
            xs.append(v)
        if rho == tensored | {(0, 2): one}:
            ys.append(v)
    return T, tuple(xs), tuple(ys)


def search_trivialization(p: AbgParams):
    """Exhaustive search for a change of generators onto (1, 0, 0).

    Independent of the square-root criterion: every pair of candidate
    images for x and y in the target is enumerated (q^8 pairs over F_q),
    organized so the coaction constraint is evaluated once per component.
    Any candidate that could survive the full check also survives the
    component filters, so no isomorphism is missed.  The first surviving
    change of basis is certified with check_iso before it is returned;
    None means no candidate works.
    """
    C = p.base
    if not isinstance(C.field, PrimeField):
        raise RootSearchUnsupportedError(
            "exhaustive image search runs over a finite prime field")
    alpha = p.alpha.constant_scalar()
    beta = p.beta.constant_scalar()
    gamma = p.gamma.constant_scalar()
    A = abg_bundle(p)
    T, xs, ys = _coaction_images(C)
    zero, one = C.zero(), C.one()

    want_xx = {} if p.alpha.is_zero else {0: C.from_scalar(alpha)}
    want_yy = {} if p.beta.is_zero else {0: C.from_scalar(beta)}
    want_anti = {} if p.gamma.is_zero else {0: C.from_scalar(gamma)}
    for vx in xs:
        if T.mul_vec(vx, vx) != want_xx:
            continue
        for vy in ys:
            if T.mul_vec(vy, vy) != want_yy:
                continue
            cross = T.mul_vec(vx, vy)
            anti = dict(T.mul_vec(vy, vx))
            for i, c in cross.items():
                s = anti.get(i, zero) + c
                if s == zero:
                    anti.pop(i, None)
                else:
                    anti[i] = s
            if anti != want_anti:
                continue
            images = ({0: one}, vx, vy, cross)
            M = [[images[j].get(i, zero) for j in range(4)] for i in range(4)]
            if check_iso(A, T, M).ok:
                return M
    return None


# --------------------------------------------------------------------------
# square-root reduction of alpha
# --------------------------------------------------------------------------

class SqrtReduction(Record, frozen=True):
    source: AbgParams
    target: AbgParams
    matrix: tuple
    report: Report


def sqrt_reduction(p: AbgParams, s: BaseElement) -> SqrtReduction:
    """Normalize alpha to 1 using a unit square root s of alpha.

    Certifies x -> s x', y -> y', xy -> s x'y' as an isomorphism onto
    (1, beta, gamma/s) over the same base.  BadRoot if s^2 != alpha or s is
    not a unit.
    """
    C = p.base
    if isinstance(s, int):
        s = C.from_int(s)
    if s * s != p.alpha:
        raise BadRootError(f"{C.format_element(s)} squared is not alpha")
    sinv = C.try_inverse(s)
    if sinv is None:
        raise BadRootError(f"{C.format_element(s)} is not a unit")
    target = AbgParams(C, C.one(), p.beta, p.gamma * sinv)
    zero, one = C.zero(), C.one()
    M = [
        [one, zero, zero, zero],
        [zero, s, zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, s],
    ]
    rep = check_iso(abg_bundle(p), abg_bundle(target), M)
    if not rep.ok:
        raise MathError("square-root reduction failed certification: "
                        + "; ".join(rep.failures()))
    return SqrtReduction(p, target, tuple(tuple(r) for r in M), rep)


# --------------------------------------------------------------------------
# Kummer covers of the Laurent line
# --------------------------------------------------------------------------

def _kummer_checks(N: int, q, k: Field):
    if isinstance(q, int):
        q = k.from_int(q)
    ch = k.characteristic()
    if N < 2:
        raise BadRootOfUnityError("cover degree must be at least 2")
    if ch and N % ch == 0:
        raise CharDividesError(f"characteristic {ch} divides the degree {N}")
    if not k.has_order(q, N):
        raise BadRootOfUnityError(
            f"{k.format(q)} does not have exact multiplicative order {N}")
    return q


def kummer_bundle(N: int, q, k: Field) -> ComoduleAlgebra:
    """Adjoining an N-th root of z to k[z, z^-1], as a bundle.

    The dual of the cyclic group algebra coacts by encoding the degree-N
    deck action w -> q w; the j-th power of the root transforms through the
    j-th character.
    """
    q = _kummer_checks(N, q, k)
    C = laurent_ring(k, "z")
    z = C.gen("z")
    H = dual_hopf(cyclic_group_algebra(N, k))
    labels = tuple("1" if j == 0 else ("w" if j == 1 else f"w^{j}") for j in range(N))
    one = C.one()
    mult = {}
    for a in range(N):
        for b in range(N):
            mult[(a, b)] = {a + b: one} if a + b < N else {a + b - N: z}
    coaction = {j: {(j, i): C.from_scalar(k.pow(q, i * j)) for i in range(N)}
                for j in range(N)}
    return ComoduleAlgebra(C, H, labels, mult, {0: one}, coaction)


def kummer_root_data(N: int, q, k: Field):
    """The bundle together with its own base inclusion as ring data.

    Returns (A, ext, inclusion, images): ext is the base with an N-th root
    of z adjoined, inclusion the base morphism into it, and images[j] the
    ring element realizing the j-th module basis vector.  The identification
    lets the total algebra of the bundle be reused as an admissible step for
    self-trivialization.
    """
    A = kummer_bundle(N, q, k)
    C = A.base
    ext, incl, w = adjoin_root(C, C.gen("z"), N, "w")
    images = [ext.one()]
    for _ in range(N - 1):
        images.append(images[-1] * w)
    return A, ext, incl, images
