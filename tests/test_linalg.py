import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import linalg
from hopfgal.axioms import field_ops, ring_ops
from hopfgal.bundles import kummer_bundle
from hopfgal.comod import ComoduleAlgebra
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.galois import NOT_BIJECTIVE, canonical_matrix, is_galois
from hopfgal.homotopy import identity_matrix
from hopfgal.linalg import field_det, field_kernel, field_solve
from hopfgal.rings import (
    BaseElement,
    BaseRing,
    adjoin_root,
    base_ring,
    laurent_ring,
    polynomial_ring,
)

import reference_axioms as ref
from reference_scalars import random_scalar
from reference_units import _berkowitz_dicts, _charpoly_dicts, berkowitz_det, cramer_solve

F5 = PrimeField(5)
F7 = PrimeField(7)


# The ring layer of linalg takes and returns coefficient dicts; these tests
# build their matrices with BaseElement arithmetic and convert at this edge.

def _coeffs(M):
    """A matrix of BaseElements, each row dense or sparse, as coefficient dicts."""
    return [{c: e.coeffs for c, e in row.items()} if isinstance(row, dict)
            else [e.coeffs for e in row] for row in M]


def ring_det(M, ring):
    return BaseElement(ring, linalg.ring_det(_coeffs(M), ring))


def ring_solve(M, b, ring):
    x = linalg.ring_solve(_coeffs(M), [e.coeffs for e in b], ring)
    return None if x is None else [BaseElement(ring, c) for c in x]


def test_field_det_known() -> None:
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert field_det(M, QQ) == Fraction(-2)
    M3 = [[Fraction(x) for x in row] for row in ((2, 0, 1), (1, 1, 0), (0, 3, 1))]
    assert field_det(M3, QQ) == Fraction(5)
    assert field_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 0


def test_field_solve_round_trip_random() -> None:
    rng = random.Random(2)
    for K in (QQ, F7):
        for n in (1, 2, 4, 6):
            for _ in range(10):
                M = [[random_scalar(K, rng) for _ in range(n)] for _ in range(n)]
                x = [random_scalar(K, rng) for _ in range(n)]
                b = [K.zero()] * n
                for i in range(n):
                    for j in range(n):
                        b[i] = K.add(b[i], K.mul(M[i][j], x[j]))
                got = field_solve(M, b, K)
                if K.is_zero(field_det(M, K)):
                    assert got is None
                else:
                    assert got == x


def _dense_solve(M, b, K):
    """Reference: textbook dense Gauss-Jordan, first nonzero pivot per column."""
    n = len(M)
    A = [list(row) + [bv] for row, bv in zip(M, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not K.is_zero(A[r][col])), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        pinv = K.inv(A[col][col])
        A[col] = [K.mul(pinv, x) for x in A[col]]
        for r in range(n):
            if r != col and not K.is_zero(A[r][col]):
                f = A[r][col]
                A[r] = [K.sub(x, K.mul(f, y)) for x, y in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def _residual_zero(M, x, b, K):
    for row, bv in zip(M, b):
        acc = K.zero()
        for a, v in zip(row, x):
            acc = K.add(acc, K.mul(a, v))
        if not K.is_zero(K.sub(acc, bv)):
            return False
    return True


QI = SimpleExtension(QQ, "i", [Fraction(1), Fraction(0), Fraction(1)])


def test_field_solve_matches_dense_reference() -> None:
    big = PrimeField(4294967311)  # p**2 overflows int64
    cases = [
        (PrimeField(5), 60, random.Random(4), lambda r: r.randrange(5)),
        (big, 48, random.Random(1), lambda r: r.randrange(big.p)),
        (QI, 8, random.Random(3), lambda r: (random_scalar(QQ, r, 4), random_scalar(QQ, r, 4))),
    ]
    for K, n, rng, draw in cases:
        M = [[draw(rng) for _ in range(n)] for _ in range(n)]
        b = [draw(rng) for _ in range(n)]
        got = field_solve(M, b, K)
        assert got is not None
        assert got == _dense_solve(M, b, K)
        assert _residual_zero(M, got, b, K)
        # singular: the last row repeats a combination of the first two
        two = K.from_int(2)
        M[-1] = [K.add(x, K.mul(two, y)) for x, y in zip(M[0], M[1])]
        assert _dense_solve(M, b, K) is None
        assert field_solve(M, b, K) is None
        assert K.is_zero(field_det(M, K))


def test_field_kernel() -> None:
    M = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    basis = field_kernel(M, QQ, 3)
    assert len(basis) == 2
    for v in basis:
        for row in M:
            acc = sum((a * x for a, x in zip(row, v)), Fraction(0))
            assert acc == 0


def _sample_rings():
    L = laurent_ring(QQ, "z")
    kum, _, _ = adjoin_root(L, L.gen("z"), 2, name="w")
    T4, _, _ = adjoin_root(base_ring(QQ), base_ring(QQ).from_int(4), 2, name="T")
    return [polynomial_ring(QQ, "x"), L, kum, T4]


def _rand_element(ring, rng):
    out = ring.zero()
    for _ in range(2):
        exps = {}
        for g in ring.gens:
            lo = -2 if g.kind == "laurent" else 0
            hi = g.degree - 1 if g.kind == "root" else 2
            exps[g.name] = rng.randint(lo, hi)
        out = out + ring.monomial(exps, random_scalar(ring.field, rng, 4))
    return out


def _mat_vec(A, v, ring):
    out = []
    for row in A:
        acc = ring.zero()
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return out


def _mat_mul(A, B, ring):
    cols = [_mat_vec(A, [row[j] for row in B], ring) for j in range(len(B[0]))]
    return [list(r) for r in zip(*cols)]


def _ring_inverse(M, ring):
    """Columns of the inverse from ring_solve on unit vectors, or None."""
    n = len(M)
    cols = []
    for j in range(n):
        x = ring_solve(M, [ring.one() if i == j else ring.zero() for i in range(n)], ring)
        if x is None:
            return None
        cols.append(x)
    return [list(r) for r in zip(*cols)]


def test_ring_det_agrees_with_berkowitz() -> None:
    rng = random.Random(6)
    for ring in _sample_rings():
        for n in (2, 3, 4):
            for _ in range(8):
                M = [[_rand_element(ring, rng) for _ in range(n)] for _ in range(n)]
                assert ring_det(M, ring) == berkowitz_det(M, ring)


def test_ring_det_multiplicative_on_products() -> None:
    rng = random.Random(8)
    for ring in _sample_rings():
        for _ in range(5):
            A = [[_rand_element(ring, rng) for _ in range(3)] for _ in range(3)]
            B = [[_rand_element(ring, rng) for _ in range(3)] for _ in range(3)]
            assert ring_det(_mat_mul(A, B, ring), ring) == ring_det(A, ring) * ring_det(B, ring)


def test_ring_solve_and_inverse() -> None:
    rng = random.Random(10)
    for ring in _sample_rings():
        n = 3
        for _ in range(12):
            M = [[_rand_element(ring, rng) for _ in range(n)] for _ in range(n)]
            d = ring_det(M, ring)
            x = [_rand_element(ring, rng) for _ in range(n)]
            b = _mat_vec(M, x, ring)
            got = ring_solve(M, b, ring)
            if ring.is_unit(d):
                assert got == x
                Minv = _ring_inverse(M, ring)
                assert _mat_mul(M, Minv, ring) == identity_matrix(ring, n)
            else:
                assert got is None or _mat_vec(M, got, ring) == b


def test_ring_det_no_unit_entry_falls_back() -> None:
    # every entry a non-unit polynomial, so elimination can take no step
    ring = polynomial_ring(QQ, "x")
    x = ring.gen("x")
    M = [[x, x * x], [x * x, x]]
    assert ring_det(M, ring) == x * x - x ** 4


def _stalling_matrices(rng):
    """(ring, matrix, k, m): a k x k block of constants, invertible over Q,
    and an m x m block with no unit entry, with rows and columns permuted at
    random.  The off-diagonal blocks keep the lower-right block free of
    units however elimination proceeds, so exactly k pivots are taken.

    Over Q[x] both off-diagonal blocks lie in x Q[x], so the determinant is
    no unit.  Over Q[r | r^2=1], with the idempotents e, f = (1 +- r)/2, the
    upper-right entries are multiples of e and the lower-left ones of f
    (ef = 0), and the m x m block has multiples of e on its diagonal and of
    f next to it: its determinant is a e + b f with nonzero scalars a and b,
    a unit.
    """
    P = polynomial_ring(QQ, "x")
    x = P.gen("x")
    E, _, r = adjoin_root(base_ring(QQ), base_ring(QQ).one(), 2, name="r")
    e, f = (E.one() + r) / 2, (E.one() - r) / 2

    def c(nonzero=False):
        return rng.randint(1, 3) if nonzero else rng.randint(-3, 3)

    def poly_block(m):
        return [[x * c() + x * x * c() for _ in range(m)] for _ in range(m)]

    def idempotent_block(m):
        return [[e * c(True) if j == i else f * c(True) if j == (i + 1) % m else E.zero()
                 for j in range(m)] for i in range(m)]

    for ring, upper, lower, block in ((P, x, x, poly_block), (E, e, f, idempotent_block)):
        for k in (1, 2, 3):
            for m in (2, 3):
                A = [[ring.zero()]]
                while berkowitz_det(A, ring).is_zero:
                    A = [[ring.from_int(c()) for _ in range(k)] for _ in range(k)]
                B = block(m)
                M = ([A[i] + [upper * c() for _ in range(m)] for i in range(k)]
                     + [[lower * c() for _ in range(k)] + B[i] for i in range(m)])
                rows, cols = list(range(k + m)), list(range(k + m))
                rng.shuffle(rows)
                rng.shuffle(cols)
                yield ring, [[M[i][j] for j in cols] for i in rows], k, m


def test_ring_kernel_stalls_on_a_block_without_units(monkeypatch) -> None:
    rng = random.Random(12)
    blocks = []
    berkowitz = linalg._berkowitz

    def recording(block, ops):
        blocks.append(len(block))
        return berkowitz(block, ops)
    monkeypatch.setattr(linalg, "_berkowitz", recording)
    seen_unit = False
    for ring, M, k, m in _stalling_matrices(rng):
        del blocks[:]
        det = ring_det(M, ring)
        assert blocks == [m]  # k pivots, then one Berkowitz tail
        assert det == berkowitz_det(M, ring)
        b = [ring.from_int(rng.randint(-3, 3)) for _ in range(k + m)]
        x = ring_solve(M, b, ring)
        assert x == cramer_solve(M, b, ring)
        assert (x is not None) == ring.is_unit(det)
        if x is not None:
            seen_unit = True
            assert _mat_vec(M, x, ring) == b
    assert seen_unit


def _multiplication_matrix(x, n):
    """The matrix of multiplication by x on the basis 1, r, ..., r^(n-1)
    over the prefix ring, column k holding the coordinates of x r^k."""
    ring = x.ring
    sub, r = ring.prefix(len(ring.gens) - 1), ring.gens[-1].name
    M = [[sub.zero()] * n for _ in range(n)]
    for k in range(n):
        for mono, c in (x * ring.monomial({r: k})).coeffs.items():
            M[mono[-1]][k] = M[mono[-1]][k] + sub.element({mono[:-1]: c})
    return M


@pytest.mark.parametrize("n", (2, 3, 6))
def test_ring_solve_of_stalled_systems_matches_cramer(monkeypatch, n) -> None:
    """With e = (1 + r + ... + r^(n-1))/n and r^n = 1 over F7[z^+-1], no entry
    of the multiplication matrix of e z + (1 - e) or of e z^2 + (1 - e)(1 + z)
    is a unit: elimination stalls on all of it, and the Cayley-Hamilton tail
    solves the first (a unit) and refuses the second.  Bordered by a unit
    block whose rows reach into it, the system stalls on that part only."""
    L = laurent_ring(F7, "z")
    ring, _, r = adjoin_root(L, L.one(), n, name="r")
    z, w = ring.gen("z"), L.gen("z")
    e = sum((r ** k for k in range(n)), ring.zero()) * F7.inv(F7.from_int(n))
    blocks = []
    charpoly = linalg._charpoly

    def recording(B, ops):
        blocks.append(len(B))
        return charpoly(B, ops)
    monkeypatch.setattr(linalg, "_charpoly", recording)
    rng = random.Random(n)
    for x, unit in ((e * z + (ring.one() - e), True),
                    (e * z * z + (ring.one() - e) * (ring.one() + z), False)):
        X = _multiplication_matrix(x, n)
        A = [[L.from_int(1), L.from_int(2)], [L.from_int(3), L.from_int(5)]]
        C = [[L.from_int(rng.randint(-3, 3)) * w ** rng.randint(-1, 1) for _ in range(n)]
             for _ in range(2)]
        bordered = [A[i] + C[i] for i in range(2)] + [[L.zero()] * 2 + row for row in X]
        for M in (X, bordered):
            b = [L.from_int(rng.randint(-3, 3)) + w * rng.randint(-3, 3) for _ in M]
            del blocks[:]
            got = ring_solve(M, b, L)
            assert blocks == [n]
            assert got == cramer_solve(M, b, L)
            assert (got is not None) == unit
            if unit:
                assert _mat_vec(M, got, L) == b


def test_ring_det_tests_each_entry_for_a_unit_once(monkeypatch) -> None:
    K = PrimeField(241)
    q = next(K.from_int(a) for a in range(2, 241) if K.has_order(K.from_int(a), 8))
    A = kummer_bundle(8, q, K)
    M = ref.rows(A, canonical_matrix(A))
    tested = []
    try_inverse = BaseRing.try_inverse

    def recording(ring, a):
        tested.append(frozenset(a.coeffs.items()))
        return try_inverse(ring, a)
    monkeypatch.setattr(BaseRing, "try_inverse", recording)
    det = ring_det(M, A.base)
    monkeypatch.undo()
    assert A.base.is_unit(det)
    assert tested and len(tested) == len(set(tested))


# --------------------------------------------------------------------------
# independent oracles: sympy over Q, brute force over F_p
# --------------------------------------------------------------------------

# small rationals, zero drawn often so that singular and sparse cases occur
_q_entries = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _matrices(draw, entries, rows, cols=None):
    m = draw(rows)
    n = m if cols is None else draw(cols)
    return [[draw(entries) for _ in range(n)] for _ in range(m)], n


def _sympy_matrix(M, ncols):
    return sympy.Matrix(len(M), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in M for x in row])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(deadline=None)
@given(_matrices(_q_entries, st.integers(1, 6)))
def test_field_det_matches_sympy(case) -> None:
    M, n = case
    assert field_det(M, QQ) == _fraction(_sympy_matrix(M, n).det())


def _leibniz_det_mod(M, p):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total % p


@settings(deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 61)).flatmap(
    lambda p: st.tuples(st.just(p), _matrices(st.integers(0, p - 1), st.integers(0, 5)))))
def test_field_det_matches_brute_force_mod_p(case) -> None:
    p, (M, _) = case
    assert field_det(M, PrimeField(p)) == _leibniz_det_mod(M, p)


@settings(deadline=None)
@given(_matrices(_q_entries, st.integers(1, 5), st.integers(1, 6)))
def test_field_kernel_matches_sympy_nullspace(case) -> None:
    # sympy also sets each free column to 1 and the others to 0, in
    # increasing column order, so the bases must agree exactly
    M, n = case
    expect = [[_fraction(x) for x in v] for v in _sympy_matrix(M, n).nullspace()]
    assert field_kernel(M, QQ, n) == expect


# ring determinants against sympy: sparse integer-coefficient polynomial
# matrices over Q[x, y] and F_p[x], a share of them made singular

_X, _Y = sympy.symbols("x y")


@st.composite
def _poly_matrices(draw, nvars, coeffs):
    n = draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    entry = st.one_of(st.just({}), st.dictionaries(monomial, coeffs, max_size=2))
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("any", "any", "repeat", "zero", "sum")))
    if n > 1 and kind == "repeat":
        M[-1] = list(M[0])
    elif kind == "zero":
        M[-1] = [{}] * n
    elif n > 2 and kind == "sum":
        M[-1] = [{m: a.get(m, 0) + b.get(m, 0) for m in a.keys() | b.keys()}
                 for a, b in zip(M[0], M[1])]
    return M


def _sympy_poly_matrix(M, gens):
    return sympy.Matrix([[sum(c * sympy.prod(g ** e for g, e in zip(gens, m))
                              for m, c in entry.items())
                          for entry in row] for row in M])


@settings(deadline=None, max_examples=60)
@given(_poly_matrices(2, st.integers(-3, 3)))
def test_ring_det_matches_sympy_over_qxy(M) -> None:
    ring = polynomial_ring(QQ, "x", "y")
    got = ring_det([[ring.element({m: Fraction(c) for m, c in e.items()}) for e in row]
                    for row in M], ring)
    det = sympy.Poly(sympy.expand(_sympy_poly_matrix(M, (_X, _Y)).det()), _X, _Y)
    assert got.coeffs == {m: Fraction(int(c)) for m, c in det.terms() if c != 0}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((2, 3, 7)).flatmap(
    lambda p: st.tuples(st.just(p), _poly_matrices(1, st.integers(0, p - 1)))))
def test_ring_det_matches_sympy_over_fpx(case) -> None:
    p, M = case
    ring = polynomial_ring(PrimeField(p), "x")
    got = ring_det([[ring.element({m: c % p for m, c in e.items()}) for e in row]
                    for row in M], ring)
    det = sympy.Poly(sympy.expand(_sympy_poly_matrix(M, (_X,)).det()), _X, modulus=p)
    assert got.coeffs == {m: int(c) % p for m, c in det.terms() if int(c) % p}


# ring determinants and solves on coefficient dicts against Berkowitz, Cramer
# and the Leibniz sum, over F_p[z], F_p[z^+-1] and Q[r | r^2 = 1] (zero divisors)

def _leibniz_det(M, ring):
    n, total = len(M), ring.zero()
    for perm in permutations(range(n)):
        term = ring.one()
        for i in range(n):
            term = term * M[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def _coefficient_rings():
    P = polynomial_ring(F7, "z")
    L = laurent_ring(F7, "z")
    E, _, _ = adjoin_root(base_ring(QQ), base_ring(QQ).one(), 2, name="r")
    return [P, L, E]


@st.composite
def _ring_matrices(draw):
    """(ring, M, b): M square with sparse entries, a share of them block
    diagonal with rows and columns permuted, or with an empty row or column."""
    ring = draw(st.sampled_from(_coefficient_rings()))
    g = ring.gens[0]
    lo, hi = (-2, 2) if g.kind == "laurent" else (0, g.degree - 1 if g.kind == "root" else 2)
    scalar = st.integers(-3, 3).map(ring.field.from_int)
    term = st.builds(lambda e, c: ring.monomial({g.name: e}, c), st.integers(lo, hi), scalar)
    entry = st.one_of(st.just(ring.zero()), st.just(ring.zero()),
                      st.lists(term, min_size=1, max_size=2).map(lambda ts: sum(ts, ring.zero())))
    n = draw(st.integers(0, 6))
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("any", "blocks", "blocks", "empty row", "empty column")))
    if kind == "blocks" and n:
        block = [draw(st.integers(0, 2)) for _ in range(n)]  # the block of each index
        M = [[x if block[i] == block[j] else ring.zero() for j, x in enumerate(row)]
             for i, row in enumerate(M)]
        rows = draw(st.permutations(range(n)))
        cols = draw(st.permutations(range(n)))
        M = [[M[i][j] for j in cols] for i in rows]
    elif kind == "empty row" and n:
        M[draw(st.integers(0, n - 1))] = [ring.zero()] * n
    elif kind == "empty column" and n:
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = ring.zero()
    b = [draw(entry) for _ in range(n)]
    return ring, M, b


@settings(deadline=None, max_examples=100)
@given(_ring_matrices())
def test_ring_det_and_solve_match_berkowitz_cramer_and_leibniz(case) -> None:
    ring, M, b = case
    det = ring_det(M, ring)
    assert det == berkowitz_det(M, ring) == _leibniz_det(M, ring)
    # the Berkowitz of the whole matrix, not split into components
    whole = _charpoly_dicts(ring, [[e.coeffs for e in row] for row in M])[-1]
    assert det == ring.element(whole if len(M) % 2 == 0 else ring._neg(whole))
    assert ring_solve(M, b, ring) == cramer_solve(M, b, ring)
    sparse = [{j: e for j, e in enumerate(row) if not e.is_zero} for row in M]
    assert ring_det(sparse, ring) == det


def test_berkowitz_runs_per_connected_block(monkeypatch) -> None:
    """The non-Galois bundle: Kummer 8 over F241[z], determinant z^28.  Its
    stalled 28-row block falls apart into blocks of 7, 6, ..., 1 rows."""
    K = PrimeField(241)
    q = next(K.from_int(a) for a in range(2, 241) if K.has_order(K.from_int(a), 8))
    A = kummer_bundle(8, q, K)
    P = polynomial_ring(K, "z")

    def over_p(table):
        return {key: {k: P.element(c) for k, c in row.items()}
                for key, row in table.items()}
    B = ComoduleAlgebra(P, A.hopf, A.labels, over_p(A.mult), {0: P.one()},
                        over_p(A.coaction))
    sizes = []
    charpoly = linalg._charpoly

    def recording(M, ops):
        sizes.append(len(M))
        return charpoly(M, ops)
    monkeypatch.setattr(linalg, "_charpoly", recording)
    verdict = is_galois(B)
    assert verdict.status == NOT_BIJECTIVE and verdict.det == P.gen("z") ** 28
    assert sorted(sizes) == [1, 2, 3, 4, 5, 6, 7]


# Berkowitz on any Ops against oracles that share no code with linalg: the
# Leibniz sum over F7, sympy's characteristic polynomial over Q, and the
# coefficient-dict Berkowitz over F7[z^+-1, r | r^2 = 1] (zero divisors)

def _draw_pattern(draw, entry, zero, sizes):
    """A square matrix of ``entry`` draws: dense, with a zero row or column,
    or block diagonal with its rows and columns permuted."""
    n = draw(sizes)
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("any", "blocks", "blocks", "zero row", "zero column")))
    if kind == "blocks" and n:
        block = [draw(st.integers(0, 2)) for _ in range(n)]
        rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        M = [[M[i][j] if block[i] == block[j] else zero for j in cols] for i in rows]
    elif kind == "zero row" and n:
        M[draw(st.integers(0, n - 1))] = [zero] * n
    elif kind == "zero column" and n:
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = zero
    return M


@settings(deadline=None, max_examples=250)
@given(st.data())
def test_berkowitz_over_a_field_matches_leibniz(data) -> None:
    M = _draw_pattern(data.draw, st.one_of(st.just(0), st.integers(0, 6)), 0, st.integers(0, 5))
    assert linalg._berkowitz(M, field_ops(F7)) == _leibniz_det_mod(M, 7)


@settings(deadline=None, max_examples=100)
@given(_matrices(_q_entries, st.integers(1, 6)))
def test_charpoly_over_q_matches_sympy(case) -> None:
    M, n = case
    expect = [_fraction(c) for c in _sympy_matrix(M, n).charpoly().all_coeffs()]
    assert linalg._charpoly(M, field_ops(QQ)) == expect


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_berkowitz_over_a_ring_matches_the_dict_oracle(data) -> None:
    """Over F7[z^+-1, r | r^2 = 1], where (1 + r)/2 and (1 - r)/2 are
    idempotents, so products of nonzero entries can vanish."""
    L = laurent_ring(F7, "z")
    ring, _, r = adjoin_root(L, L.one(), 2, name="r")
    z = ring.gen("z")
    e = (ring.one() + r) * 4  # 4 = 1/2 in F7
    atoms = [z, z ** -1, r, z * r, e, ring.one() - e, e * z]
    entry = st.one_of(st.just(ring.zero()), st.tuples(st.sampled_from(atoms), st.integers(1, 6))
                      .map(lambda ac: ac[0] * ac[1]))
    M = _draw_pattern(data.draw, entry, ring.zero(), st.integers(0, 4))
    raw = [[x.coeffs for x in row] for row in M]
    ops = ring_ops(ring)
    assert linalg._berkowitz(raw, ops) == _berkowitz_dicts(ring, raw)
    assert linalg._charpoly(raw, ops) == _charpoly_dicts(ring, raw)
    assert linalg.berkowitz_det(raw, ring) == berkowitz_det(M, ring).coeffs
