"""The rank-4 two-generator family and the Kummer covers.

The multiplication-table entries asserted below were computed by hand from
the rewriting rules, e.g. y * xy rewrites through gamma y - x y y to
gamma y - beta x.  The F3 census compares the field criterion against a
brute-force isomorphism search written here in plain modular arithmetic
with its own copy of the (1, 0, 0) structure constants; the two
implementations share no code.
"""

from itertools import permutations, product

import pytest

from hopfgal.bundles import (
    AbgParams,
    abg_bundle,
    abg_cleaving,
    abg_triviality_criterion,
    kummer_bundle,
    kummer_root_data,
    sqrt_reduction,
    trivialization_matrix,
)
from hopfgal.cleft import extract_cocycle, twisted_product
from hopfgal.comod import check_iso, coinvariants_over_field, push_forward
from hopfgal.errors import (
    BadRootError,
    BadRootOfUnityError,
    BaseNotFieldError,
    CharDividesError,
    CharTwoError,
    NonUnitAlphaError,
    RootSearchUnsupportedError,
)
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import is_galois, verify_bundle
from hopfgal.rings import BaseMorphism, adjoin_root, base_ring, laurent_ring, polynomial_ring

from reference_axioms import abg_mult, elements, reduce_word_combination

F3 = PrimeField(3)
F7 = PrimeField(7)
Q = base_ring(QQ)


def qp(a, b, g):
    return AbgParams(Q, a, b, g)


def test_multiplication_table_hand_oracle():
    A = abg_bundle(qp(3, 5, 7))
    B = A.base

    def mul(i, j):
        return elements(B, A.mul_vec(A.basis_vec(i), A.basis_vec(j)))
    assert mul(1, 1) == {0: B.from_int(3)}
    assert mul(2, 2) == {0: B.from_int(5)}
    assert mul(1, 2) == {3: B.one()}
    assert mul(2, 1) == {0: B.from_int(7), 3: -B.one()}
    assert mul(2, 3) == {2: B.from_int(7), 1: B.from_int(-5)}
    assert mul(3, 1) == {1: B.from_int(7), 2: B.from_int(-3)}
    assert mul(1, 3) == {2: B.from_int(3)}
    assert mul(3, 2) == {1: B.from_int(5)}
    assert mul(3, 3) == {3: B.from_int(7), 0: B.from_int(-15)}


def test_rewriting_confluent_over_generic_parameters():
    C = laurent_ring(QQ, "a").add_free("b").add_free("g")
    p = AbgParams(C, C.gen("a"), C.gen("b"), C.gen("g"))
    words = {"".join(t) for n in range(5) for t in product("xy", repeat=n)}
    for w in sorted(words):
        left = reduce_word_combination(p, {w: C.one()}, leftmost=True)
        right = reduce_word_combination(p, {w: C.one()}, leftmost=False)
        assert left == right, w
        assert set(left) <= {"", "x", "y", "xy"}
        if w in ("", "x", "y", "xy"):
            assert left == {w: C.one()}


def test_written_table_is_the_rewriting_over_generic_parameters():
    """Every entry is a polynomial in alpha, beta, gamma, so equality over
    Q[a^+-1, b, g] covers every specialization."""
    C = laurent_ring(QQ, "a").add_free("b").add_free("g")
    p = AbgParams(C, C.gen("a"), C.gen("b"), C.gen("g"))
    assert {ij: elements(C, row) for ij, row in abg_bundle(p).mult.items()} == abg_mult(p)


def test_bundle_verdicts():
    for p in (qp(1, 0, 0), qp(3, 5, 7), qp(-2, 3, 0)):
        assert verify_bundle(abg_bundle(p)).ok
    C = polynomial_ring(QQ, "u")
    u = C.gen("u")
    A = abg_bundle(AbgParams(C, C.from_int(2), u, u * u + 1))
    assert verify_bundle(A).ok
    F7b = base_ring(F7)
    assert verify_bundle(abg_bundle(AbgParams(F7b, 3, 5, 0))).ok


def test_non_unit_alpha_refused():
    with pytest.raises(NonUnitAlphaError):
        qp(0, 1, 0)
    C = polynomial_ring(QQ, "u")
    with pytest.raises(NonUnitAlphaError):
        AbgParams(C, C.gen("u"), C.zero(), C.zero())


def test_cleaving_inverse_oracles():
    # (1,0,0): gamma'(X) = x, gamma'(Y) = -yx = xy, gamma'(XY) = -y
    cm = abg_cleaving(abg_bundle(qp(1, 0, 0)))
    B = cm.algebra.base
    values = [elements(B, v) for v in cm.gamma_inv.values]
    assert values[0] == {0: B.one()}
    assert values[1] == {1: B.one()}
    assert values[2] == {3: B.one()}
    assert values[3] == {2: -B.one()}
    # (4,1,4): gamma'(X) = x/4, gamma'(Y) = (xy - 4)/4, gamma'(XY) = -y
    cm = abg_cleaving(abg_bundle(qp(4, 1, 4)))
    quarter = B.from_scalar(QQ.parse("1/4"))
    values = [elements(B, v) for v in cm.gamma_inv.values]
    assert values[1] == {1: quarter}
    assert values[2] == {0: -B.one(), 3: quarter}
    assert values[3] == {2: -B.one()}
    assert cm.verify().ok


def test_extracted_cocycle_and_round_trip():
    C = polynomial_ring(QQ, "u")
    u = C.gen("u")
    for params in (qp(3, 5, 7), AbgParams(C, C.from_int(2), u, u * u)):
        A = abg_bundle(params)
        cm = abg_cleaving(A)
        sigma = extract_cocycle(cm)
        assert sigma.sigma[1][1] == params.alpha
        T = twisted_product(params.base, A.hopf, sigma)
        n = A.dim
        ident = [[params.base.one() if i == j else params.base.zero()
                  for j in range(n)] for i in range(n)]
        assert check_iso(T, A, ident).ok
        assert verify_bundle(T).ok


def test_triviality_criterion_oracles():
    v = abg_triviality_criterion(qp(1, 0, 0))
    assert v.trivial and QQ.is_zero(v.t) and not QQ.is_zero(v.s)
    assert not abg_triviality_criterion(qp(1, 0, 5)).trivial
    v = abg_triviality_criterion(qp(4, 1, 4))
    assert v.trivial
    assert QQ.is_zero(QQ.sub(QQ.mul(v.s, v.s), QQ.from_int(4)))
    assert QQ.is_zero(QQ.sub(QQ.mul(v.t, v.t), QQ.one()))
    assert not abg_triviality_criterion(qp(2, 0, 0)).trivial
    F7b = base_ring(F7)
    v = abg_triviality_criterion(AbgParams(F7b, 2, 0, 0))
    assert v.trivial and F7.is_zero(v.t)
    assert F7.is_zero(F7.sub(F7.mul(v.s, v.s), F7.from_int(2)))
    for g in range(1, 6):
        assert not abg_triviality_criterion(qp(1, 0, g)).trivial


def test_triviality_criterion_guards():
    F2 = PrimeField(2)
    with pytest.raises(CharTwoError):
        abg_triviality_criterion(AbgParams(base_ring(F2), 1, 0, 0))
    C = polynomial_ring(QQ, "u")
    with pytest.raises(BaseNotFieldError):
        abg_triviality_criterion(AbgParams(C, C.one(), C.zero(), C.zero()))
    from hopfgal.fields import SimpleExtension
    K = SimpleExtension(QQ, "r", (QQ.from_int(-3), QQ.zero(), QQ.one()))
    Kb = base_ring(K)
    r = Kb.from_scalar(K.parse("r"))
    with pytest.raises(RootSearchUnsupportedError):
        abg_triviality_criterion(AbgParams(Kb, r, Kb.zero(), Kb.zero()))


def test_criterion_isomorphism_is_certified():
    v = abg_triviality_criterion(qp(4, 1, 4))
    assert v.report is not None and v.report.ok
    M = trivialization_matrix(Q, v.s, v.t)
    assert check_iso(abg_bundle(qp(4, 1, 4)), v.target, M).ok


def test_sqrt_reduction():
    red = sqrt_reduction(qp(4, 1, 4), 2)
    assert red.target.alpha == Q.one()
    assert red.target.beta == Q.one()
    assert red.target.gamma == Q.from_int(2)
    assert red.report.ok
    with pytest.raises(BadRootError):
        sqrt_reduction(qp(4, 1, 4), 3)
    # adjoined root: (3,5,7) over Q with s adjoined, s^2 = 3
    ext, incl, s = adjoin_root(Q, Q.from_int(3), 2, "s")
    p = AbgParams(ext, ext.from_int(3), ext.from_int(5), ext.from_int(7))
    red = sqrt_reduction(p, s)
    assert red.target.alpha == ext.one()
    assert red.target.gamma == ext.from_int(7) * ext.try_inverse(s)
    # s = 1 on an already-reduced triple is the identity change of basis
    red = sqrt_reduction(qp(1, 2, 3), 1)
    assert red.target == qp(1, 2, 3)
    assert all(red.matrix[i][j] == (Q.one() if i == j else Q.zero())
               for i in range(4) for j in range(4))


# --------------------------------------------------------------------------
# independent brute force over F3: plain ints, own structure constants
# --------------------------------------------------------------------------

# (1,0,0) table: x^2 = 1, y^2 = 0, xy = -yx, basis order (1, x, y, xy)
_T_MULT = {
    (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
    (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
    (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
    (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {},
}
_T_COACT = {
    0: {(0, 0): 1},
    1: {(1, 1): 1},
    2: {(0, 2): 1, (2, 1): 1},
    3: {(1, 3): 1, (3, 0): 1},
}


def _bf_mul(u, v, p):
    out = [0, 0, 0, 0]
    for i in range(4):
        if not u[i]:
            continue
        for j in range(4):
            if not v[j]:
                continue
            for l, c in _T_MULT[(i, j)].items():
                out[l] = (out[l] + u[i] * v[j] * c) % p
    return out


def _bf_coact(v, p):
    out = {}
    for i in range(4):
        if v[i]:
            for jk, c in _T_COACT[i].items():
                out[jk] = (out.get(jk, 0) + v[i] * c) % p
    return {k: x for k, x in out.items() if x}


def _bf_det(cols, p):
    tot = 0
    for perm in permutations(range(4)):
        sign = 1
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = sign
        for c in range(4):
            prod = prod * cols[c][perm[c]] % p
        tot = (tot + prod) % p
    return tot


def brute_force_trivialization(alpha, beta, gamma, p):
    """Search all p^8 generator images for an equivariant isomorphism
    from (alpha, beta, gamma) onto (1, 0, 0) over the prime field."""
    vecs = [list(v) for v in product(range(p), repeat=4)]
    e0 = [1, 0, 0, 0]
    xs = []
    for vx in vecs:
        if _bf_mul(vx, vx, p) != [alpha % p, 0, 0, 0]:
            continue
        if _bf_coact(vx, p) != {(i, 1): vx[i] for i in range(4) if vx[i]}:
            continue
        xs.append(vx)
    ys = []
    for vy in vecs:
        if _bf_mul(vy, vy, p) != [beta % p, 0, 0, 0]:
            continue
        want = {(i, 1): vy[i] for i in range(4) if vy[i]}
        want[(0, 2)] = 1
        if _bf_coact(vy, p) != want:
            continue
        ys.append(vy)
    for vx in xs:
        for vy in ys:
            anti = [(a + b) % p for a, b in zip(_bf_mul(vx, vy, p), _bf_mul(vy, vx, p))]
            if anti != [gamma % p, 0, 0, 0]:
                continue
            vxy = _bf_mul(vx, vy, p)
            if _bf_det([e0, vx, vy, vxy], p):
                return vx, vy
    return None


def test_f3_census_matches_brute_force():
    C = base_ring(F3)
    trivial_triples = set()
    for alpha in (1, 2):
        for beta in range(3):
            for gamma in range(3):
                found = brute_force_trivialization(alpha, beta, gamma, 3)
                verdict = abg_triviality_criterion(AbgParams(C, alpha, beta, gamma))
                assert (found is not None) == verdict.trivial, (alpha, beta, gamma)
                if found:
                    trivial_triples.add((alpha, beta, gamma))
                    vx, vy = found
                    vxy = _bf_mul(vx, vy, 3)
                    cols = [[1, 0, 0, 0], vx, vy, vxy]
                    M = [[C.from_int(cols[j][i]) for j in range(4)] for i in range(4)]
                    src = abg_bundle(AbgParams(C, alpha, beta, gamma))
                    tgt = abg_bundle(AbgParams(C, 1, 0, 0))
                    assert check_iso(src, tgt, M).ok, (alpha, beta, gamma)
    # derived by hand: alpha must be the square 1 and beta = gamma^2
    assert trivial_triples == {(1, 0, 0), (1, 1, 1), (1, 1, 2)}


# --------------------------------------------------------------------------
# Kummer covers
# --------------------------------------------------------------------------

def test_kummer_bundles_verify():
    A = kummer_bundle(2, -1, QQ)
    assert A.dim == 2
    assert verify_bundle(A).ok
    B = kummer_bundle(3, 2, F7)
    assert B.dim == 3
    assert verify_bundle(B).ok
    for X in (A, B):
        for i in range(X.dim):
            for j in range(X.dim):
                assert X.mul_vec(X.basis_vec(i), X.basis_vec(j)) == \
                    X.mul_vec(X.basis_vec(j), X.basis_vec(i))


def test_kummer_guards():
    with pytest.raises(BadRootOfUnityError):
        kummer_bundle(3, 3, F7)
    with pytest.raises(BadRootOfUnityError):
        kummer_bundle(2, 1, QQ)
    with pytest.raises(CharDividesError):
        kummer_bundle(5, 1, PrimeField(5))


def test_kummer_specialization_coinvariants():
    A = kummer_bundle(2, -1, QQ)
    f = BaseMorphism(A.base, Q, {"z": Q.one()})
    fiber = push_forward(f, A)
    basis = coinvariants_over_field(fiber)
    assert len(basis) == 1
    assert is_galois(fiber).ok


def test_kummer_root_data_identification():
    for N, q, k in ((2, -1, QQ), (3, 2, F7)):
        A, ext, incl, images = kummer_root_data(N, q, k)
        w = images[1] if N > 1 else ext.one()
        z_up = incl(A.base.gen("z"))
        assert w ** N == z_up
        for i in range(N):
            for j in range(N):
                lhs = images[i] * images[j]
                rhs = ext.zero()
                for l, c in elements(A.base, A.mult[(i, j)]).items():
                    rhs = rhs + incl(c) * images[l]
                assert lhs == rhs
