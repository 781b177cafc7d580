"""Comodule algebras, push-forwards, the structure map, convolution.

The rank-2 sample bundle adjoins a square root v of a base element u with
the order-2 group algebra coacting by the sign character.  Over k[u] the
structure-map determinant is -u (not a unit, ramified); over k[u, u^-1]
it is a unit.  Both facts were checked by hand and are frozen here.
"""

import pytest

from hopfgal.comod import (
    ComoduleAlgebra,
    HModuleMap,
    check_iso,
    coinvariants_over_field,
    convolution_invert,
    convolve,
    push_forward,
    trivial_bundle,
    unit_counit_map,
)
from hopfgal.errors import BaseNotFieldError, NotInvertibleError, RingMismatchError
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import (
    GALOIS,
    NOT_BIJECTIVE,
    RANK_MISMATCH,
    canonical_matrix,
    is_galois,
    verify_bundle,
)
from hopfgal.hopf import cyclic_group_algebra, sweedler_h4
from hopfgal.rings import (
    BaseMorphism,
    base_ring,
    compose,
    laurent_ring,
    polynomial_ring,
)
from hopfgal.comod import verify_comodule_algebra

import reference_axioms as ref

F7 = PrimeField(7)


def c2_root_bundle(C, u):
    """Rank-2 algebra C[v]/(v^2 = u) with the sign coaction of Z/2."""
    H = cyclic_group_algebra(2, C.field)
    one = C.one()
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: u}}
    unit = {0: one}
    coaction = {0: {(0, 0): one}, 1: {(1, 1): one}}
    return ComoduleAlgebra(C, H, ("1", "v"), mult, unit, coaction)


def test_trivial_bundle_axioms_and_galois():
    for k in (QQ, F7):
        C = base_ring(k)
        A = trivial_bundle(C, sweedler_h4(k))
        assert verify_comodule_algebra(A).ok
        v = is_galois(A)
        assert v.status == GALOIS
        rep = verify_bundle(A)
        assert rep.ok, str(rep)


def test_canonical_matrix_known_entry():
    # beta(1 (x) X) = X (x) X in the trivial bundle: single unit entry
    A = trivial_bundle(base_ring(QQ), sweedler_h4(QQ))
    M = canonical_matrix(A)
    assert M.nrows == 16 and M.ncols == 16
    col = [ref.entries(M)[r][0 * 4 + 1] for r in range(16)]
    nonzero = [(r, c) for r, c in enumerate(col) if not c.is_zero]
    assert nonzero == [(1 * 4 + 1, A.base.one())]


def test_rank_one_corner():
    C = base_ring(QQ)
    H = sweedler_h4(QQ)
    one = C.one()
    A = ComoduleAlgebra(C, H, ("1",), {(0, 0): {0: one}}, {0: one},
                        {0: {(0, 0): one}})
    M = canonical_matrix(A)
    assert M.nrows == 4 and M.ncols == 1
    assert is_galois(A).status == RANK_MISMATCH


def test_root_bundle_polynomial_base_not_galois():
    C = polynomial_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    assert verify_comodule_algebra(A).ok
    v = is_galois(A)
    assert v.status == NOT_BIJECTIVE
    # det computed by hand from the permutation shape: -u
    assert v.det == -C.gen("u")


def test_root_bundle_laurent_base_galois():
    C = laurent_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    v = is_galois(A)
    assert v.status == GALOIS
    assert verify_bundle(A).ok


def test_push_forward_composes_and_transforms_det():
    C = laurent_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    u = C.gen("u")
    f = BaseMorphism(C, C, {"u": u * 2})
    g = BaseMorphism(C, C, {"u": u * u * 3})
    left = push_forward(compose(f, g), A)
    right = push_forward(g, push_forward(f, A))
    assert left == right
    # base change rewrites the structure map by f entrywise, so the
    # determinant transforms functorially
    assert is_galois(push_forward(f, A)).det == f.apply(is_galois(A).det)
    assert verify_bundle(left).ok


def test_push_forward_wrong_source_rejected():
    C = laurent_ring(QQ, "u")
    D = polynomial_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    f = BaseMorphism(D, D, {"u": D.gen("u")})
    with pytest.raises(RingMismatchError):
        push_forward(f, A)


def test_galois_invariant_under_basis_permutation():
    import random
    rng = random.Random(7)
    C = base_ring(QQ)
    A = trivial_bundle(C, sweedler_h4(QQ))
    perm = list(range(A.dim))
    rng.shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    labels = tuple(A.labels[perm[i]] for i in range(A.dim))
    mult = {(inv[i], inv[j]): {inv[l]: c for l, c in sc.items()}
            for (i, j), sc in A.mult.items()}
    unit = {inv[i]: c for i, c in A.unit.items()}
    coaction = {inv[i]: {(inv[j], k): c for (j, k), c in t.items()}
                for i, t in A.coaction.items()}
    B = ComoduleAlgebra(C, A.hopf, labels, mult, unit, coaction)
    assert is_galois(B).status == GALOIS


def test_coinvariants_over_field():
    C = base_ring(QQ)
    A = c2_root_bundle(C, C.from_int(2))
    basis = coinvariants_over_field(A)
    assert len(basis) == 1
    v = basis[0]
    assert not QQ.is_zero(v[0]) and QQ.is_zero(v[1])
    with pytest.raises(BaseNotFieldError):
        coinvariants_over_field(c2_root_bundle(polynomial_ring(QQ, "u"),
                                               polynomial_ring(QQ, "u").gen("u")))


def test_check_iso_identity_and_failure():
    C = base_ring(QQ)
    A = trivial_bundle(C, sweedler_h4(QQ))
    n = A.dim
    ident = [[C.one() if i == j else C.zero() for j in range(n)] for i in range(n)]
    assert check_iso(A, A, ident).ok
    # scaling one basis vector breaks multiplicativity (X*X = 1 forces 1)
    bad = [row[:] for row in ident]
    bad[1][1] = C.from_int(2)
    rep = check_iso(A, A, bad)
    assert not rep.ok
    singular = [row[:] for row in ident]
    singular[2][2] = C.zero()
    assert not check_iso(A, A, singular).ok


def test_check_iso_ignores_an_explicit_zero_in_the_unit():
    C = polynomial_ring(QQ, "u")
    A = trivial_bundle(C, sweedler_h4(QQ))
    B = ComoduleAlgebra(C, A.hopf, A.labels, A.mult, A.unit | {1: C.zero()}, A.coaction)
    assert A == B and verify_bundle(B).ok
    ident = [[C.one() if i == j else C.zero() for j in range(4)] for i in range(4)]
    assert check_iso(A, B, ident).ok


def test_trivial_cleaving_inverse_is_antipode():
    H = sweedler_h4(QQ)
    C = base_ring(QQ)
    A = trivial_bundle(C, H)
    gamma = HModuleMap(A, tuple({k: C.one()} for k in range(4)))
    inv = convolution_invert(gamma)
    # gamma'(h) = S(h) embedded in C (x) H, known by hand for this algebra
    expect = HModuleMap(A, tuple(
        {i: C.from_scalar(c) for i, c in H.antipode[k].items()} for k in range(4)))
    assert inv == expect
    e = unit_counit_map(A)
    assert convolve(gamma, inv) == e
    assert convolve(inv, gamma) == e


def test_convolution_invert_over_laurent_base():
    C = laurent_ring(QQ, "u")
    u = C.gen("u")
    A = c2_root_bundle(C, u)
    # gamma(1) = 1, gamma(g) = v; inverse must send g to v/u since v^2 = u
    gamma = HModuleMap(A, ({0: C.one()}, {1: C.one()}))
    inv = convolution_invert(gamma)
    assert inv.values[0] == {0: C.one()}
    assert inv.values[1] == {1: C.inverse(u)}


def test_convolution_invert_failure():
    C = base_ring(QQ)
    A = trivial_bundle(C, sweedler_h4(QQ))
    # gamma(X) = 0 is fatal: the group-like X forces
    # (gamma * gamma')(X) = gamma(X) gamma'(X) = 0 != 1
    gamma = HModuleMap(A, ({0: C.one()}, {}, {}, {}))
    with pytest.raises(NotInvertibleError):
        convolution_invert(gamma)


def test_convolution_invert_tolerates_nilpotent_kernel():
    # killing the nilpotent part keeps gamma invertible: only the
    # group-like values need inverses
    C = base_ring(QQ)
    A = trivial_bundle(C, sweedler_h4(QQ))
    gamma = HModuleMap(A, ({0: C.one()}, {1: C.one()}, {}, {}))
    inv = convolution_invert(gamma)
    e = unit_counit_map(A)
    assert convolve(gamma, inv) == e and convolve(inv, gamma) == e
