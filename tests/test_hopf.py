"""Hopf layer: axioms, the order-N family, duals, antipode recovery.

Oracle values were computed by hand from the defining relations and frozen
here; none were produced by the code under test.
"""

import functools
import itertools
import json
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfgal import axioms, hopf
from hopfgal.comod import trivial_bundle
from hopfgal.document import Document, dump_document, load_document, parse_document
from hopfgal.errors import BadRootOfUnityError, DimensionMismatchError, NoAntipodeError
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.galois import is_galois
from hopfgal.hopf import (
    Bialgebra,
    HopfAlgebra,
    cyclic_group_algebra,
    dual_hopf,
    hopf_from_bialgebra,
    solve_antipode,
    sweedler_h4,
    taft,
    verify_hopf,
)
from hopfgal.linalg import field_solve
from hopfgal.rings import base_ring
from test_axioms import HOPF

import reference_axioms as ref
from reference_units import berkowitz_det

F5 = PrimeField(5)
F7 = PrimeField(7)


def _ref_antipode(B) -> dict:
    """The reference solve's dense matrix, S(h_j) = sum_i S[i][j] h_i, read
    as a table {j: {i: c}} with no zero."""
    K, S = B.field, ref.solve_antipode(B)
    cols = {j: {i: row[j] for i, row in enumerate(S) if not K.is_zero(row[j])}
            for j in range(B.dim)}
    return {j: col for j, col in cols.items() if col}


def test_sweedler_axioms():
    for k in (QQ, F7):
        rep = verify_hopf(sweedler_h4(k))
        assert rep.ok, str(rep)


def test_sweedler_broken_antipode_detected():
    H = sweedler_h4(QQ)
    # replace S(Y) = XY with S(Y) = Y; the antipode identity must fail on Y
    bad = HopfAlgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit,
                      {**H.antipode, 2: {2: QQ.one()}})
    rep = verify_hopf(bad)
    assert not rep.ok
    assert any("antipode identity" in f for f in rep.failures())


def test_the_antipode_is_a_required_range_checked_table():
    H = sweedler_h4(QQ)
    tables = (H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    with pytest.raises(TypeError):
        HopfAlgebra(*tables)
    for bad in ({4: {0: QQ.one()}}, {0: {4: QQ.one()}}, {-1: {0: QQ.one()}}):
        with pytest.raises(DimensionMismatchError, match="antipode index out of range"):
            HopfAlgebra(*tables, {**H.antipode, **bad})
    # no antipode at all, or an explicit zero: S = 0 is not bijective
    for empty in ({}, {0: {0: QQ.zero()}}):
        rep = verify_hopf(HopfAlgebra(*tables, empty))
        assert [c.ok for c in rep.checks if c.name == "antipode bijective"] == [False]
        assert rep.to_json() == ref.verify_hopf(HopfAlgebra(*tables, empty)).to_json()


def test_sweedler_known_products():
    H = sweedler_h4(QQ)
    one = QQ.one()
    X, Y, XY = {1: one}, {2: one}, {3: one}
    assert H.mul_vec(X, X) == {0: one}
    assert H.mul_vec(Y, X) == {3: QQ.neg(one)}
    assert H.mul_vec(X, Y) == {3: one}
    assert H.mul_vec(Y, Y) == {}
    assert H.mul_vec(XY, XY) == {}
    assert ref._h_comult_vec(H, XY) == {(1, 3): one, (3, 0): one}
    assert ref._h_antipode_vec(H, Y) == {3: one}      # S(Y) = XY
    assert ref._h_antipode_vec(H, XY) == {2: QQ.neg(one)}  # S(XY) = -Y


def test_order_two_case_is_the_four_dimensional_algebra():
    assert taft(2, -1, QQ) == sweedler_h4(QQ)


def test_taft_3_2_f7_antipode():
    # hand computation: S(X) = X^2 = X^{-1}; S(Y) = -Y X^2 = -q^2 X^2 Y
    # with q = 2 mod 7, so S(Y) = -4 X^2 Y = 3 X^2 Y.
    H = taft(3, 2, F7)
    rep = verify_hopf(H)
    assert rep.ok, str(rep)
    i_X, i_Y = 1, 3 * 1  # X = X^1 Y^0 at index 1, Y = X^0 Y^1 at index 3
    i_X2 = 2
    i_X2Y = 2 + 3 * 1
    assert ref._h_antipode_vec(H, {i_X: F7.one()}) == {i_X2: F7.one()}
    assert ref._h_antipode_vec(H, {i_Y: F7.one()}) == {i_X2Y: 3}


def test_taft_3_2_f7_comult_of_y_squared():
    # Delta(Y)^2 = 1 (x) Y^2 + (1 + q) Y (x) X Y + Y^2 (x) X^2, q = 2 mod 7
    H = taft(3, 2, F7)
    i_Y2 = 3 * 2
    i_Y, i_XY, i_X2 = 3, 1 + 3, 2
    t = ref._h_comult_vec(H, {i_Y2: F7.one()})
    assert t == {(0, i_Y2): 1, (i_Y, i_XY): 3, (i_Y2, i_X2): 1}


def test_taft_rejects_wrong_order_root():
    # 3 has multiplicative order 6 mod 7, not 3
    with pytest.raises(BadRootOfUnityError):
        taft(3, 3, F7)
    # 2 has order 4 mod 5, not 2
    with pytest.raises(BadRootOfUnityError):
        taft(2, 2, F5)


def test_taft_4_2_f5():
    H = taft(4, 2, F5)
    assert H.dim == 16
    rep = verify_hopf(H)
    assert rep.ok, str(rep)


def test_cyclic_group_algebra_and_dual():
    for N in (2, 3, 4, 6):
        G = cyclic_group_algebra(N, QQ)
        assert verify_hopf(G).ok
        D = dual_hopf(G)
        assert verify_hopf(D).ok
        DD = dual_hopf(D)
        # double dual has the same tensors (labels gain two stars)
        assert (DD.mult, DD.unit, DD.comult, DD.counit) == (G.mult, G.unit, G.comult, G.counit)
        assert DD.antipode == G.antipode


def test_dual_of_noncommutative_is_noncocommutative():
    H = sweedler_h4(QQ)
    D = dual_hopf(H)
    assert verify_hopf(D).ok
    flipped = {i: {(k, j): c for (j, k), c in t.items()} for i, t in D.comult.items()}
    assert any(flipped[i] != D.comult.get(i, {}) for i in range(D.dim))


def test_solve_antipode_matches_known():
    H = sweedler_h4(QQ)
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert solve_antipode(B) == H.antipode


@pytest.mark.parametrize("H", [sweedler_h4(QQ), taft(3, 2, F7)], ids=repr)
def test_explicit_zero_in_the_unit_changes_nothing(H):
    """A unit stored with an explicit zero coordinate is the same algebra:
    the same report, and the same antipode from either solve."""
    K = H.field
    unit = {**H.unit, 1: K.zero()}
    Z = HopfAlgebra(K, H.labels, H.mult, unit, H.comult, H.counit, H.antipode)
    assert Z == H
    assert verify_hopf(Z).to_json() == verify_hopf(H).to_json()
    assert ref.verify_hopf(Z).to_json() == verify_hopf(H).to_json()
    B = Bialgebra(K, H.labels, H.mult, unit, H.comult, H.counit)
    assert solve_antipode(B) == _ref_antipode(B) == H.antipode
    assert hopf_from_bialgebra(B).antipode == H.antipode


def _system_sizes(monkeypatch):
    sizes = []

    def solve(M, b, field):
        sizes.append(len(M))
        return field_solve(M, b, field)

    monkeypatch.setattr(hopf, "field_solve", solve)
    return sizes


def _monoid_bialgebra(n):
    """k{1, a, ..., a^(n-1)} with a^n = a^(n-1), every basis element group-like:
    a is not invertible, so the identity has no convolution inverse."""
    one = QQ.one()
    labels = ("1", "a") + tuple(f"a^{i}" for i in range(2, n))
    mult = {(i, j): {min(i + j, n - 1): one} for i in range(n) for j in range(n)}
    return Bialgebra(QQ, labels, mult, {0: one}, {i: {(i, i): one} for i in range(n)},
                     {i: one for i in range(n)})


def test_monoid_bialgebra_has_no_antipode(monkeypatch):
    # n = 2 is k{1, e} with e idempotent, where the generators are the whole
    # basis; for n > 2 the system on the generators {1, a} is singular
    sizes = _system_sizes(monkeypatch)
    for n in (2, 3, 4):
        with pytest.raises(NoAntipodeError) as err:
            ref.solve_antipode(_monoid_bialgebra(n))
        assert str(err.value) == (
            "identity has no convolution inverse: this bialgebra is not a Hopf algebra")
        sizes.clear()
        with pytest.raises(NoAntipodeError, match=f"^{err.value}$"):
            solve_antipode(_monoid_bialgebra(n))
        assert sizes == ([2 * n] if n > 2 else []) + [n * n]


@pytest.mark.parametrize("H", HOPF + [taft(6, 3, F7), taft(8, 2, PrimeField(17))], ids=repr)
def test_antipode_on_generators_equals_the_full_solve(H, monkeypatch):
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    sizes = _system_sizes(monkeypatch)
    assert solve_antipode(B) == _ref_antipode(B) == H.antipode
    # one system, on generators unless 1 is a sum of basis elements (the dual)
    assert len(sizes) == 1 and (sizes[0] < H.dim ** 2) == (len(H.unit) == 1)


def test_antipode_extension_failing_the_identities_falls_back(monkeypatch):
    # Z/3 with Delta(g^2) = 1 (x) g^2 + g^2 (x) 1 - 1 (x) 1: coassociative and
    # counital, but Delta is not multiplicative, so S(g^2) = S(g) S(g) = g
    # fails the antipode identity; the full solve gives S(g^2) = 2 - g^2
    H = cyclic_group_algebra(3, QQ)
    one = QQ.one()
    comult = dict(H.comult)
    comult[2] = {(0, 2): one, (2, 0): one, (0, 0): -one}
    B = Bialgebra(QQ, H.labels, H.mult, H.unit, comult, H.counit)
    sizes = _system_sizes(monkeypatch)
    S = solve_antipode(B)
    assert sizes == [2 * 3, 3 * 3]  # the system on {1, g} solved, then the full one
    assert S == _ref_antipode(B)
    assert S[2] == {0: 2, 2: -1}


def test_the_checks_read_the_records_own_tables(monkeypatch):
    """verify_hopf and solve_antipode hand H's tables to the axiom checker
    as they are: the rows are read in place, not copied first.  A record
    holds its verdict, so a second check scans its associativity no more."""
    calls = []
    for name in ("associativity", "convolution"):
        def spy(*args, _check=getattr(axioms, name), _name=name, **kw):
            calls.append((_name, args))
            return _check(*args, **kw)
        monkeypatch.setattr(axioms, name, spy)
    for run, again in ((verify_hopf, solve_antipode), (solve_antipode, verify_hopf)):
        H = taft(4, 2, F5)
        calls.clear()
        run(H)
        assert sorted({name for name, _ in calls}) == ["associativity", "convolution"], run
        for name, args in calls:
            assert args[2] is H.mult
            if name == "convolution":
                assert args[3] is H.comult
        calls.clear()
        again(H)
        assert {name for name, _ in calls} == {"convolution"}, again
    assert verify_hopf(H).ok


def _reindexed(H, perm):
    """The bialgebra part of H on its basis reordered: new index n holds the
    old basis element perm[n]."""
    new = {old: n for n, old in enumerate(perm)}
    return Bialgebra(
        H.field, tuple(H.labels[old] for old in perm),
        {(new[i], new[j]): {new[l]: c for l, c in row.items()} for (i, j), row in H.mult.items()},
        {new[i]: c for i, c in H.unit.items()},
        {new[i]: {(new[j], new[k]): c for (j, k), c in t.items()} for i, t in H.comult.items()},
        {new[i]: c for i, c in H.counit.items()})


def test_antipode_system_closes_under_the_left_legs_of_delta(monkeypatch):
    # on this basis order the word tree has root 1 and generators X, Y^2 and
    # X^2 Y; the left legs of Delta(Y^2) bring in Y, those of Delta(X^2 Y)
    # bring in X^2, so the system is solved on 6 of the 9 basis elements
    B = _reindexed(taft(3, 2, F7), [1, 6, 5, 0, 2, 4, 8, 7, 3])
    assert B.labels == ("X", "Y^2", "X^2Y", "1", "X^2", "XY", "X^2Y^2", "XY^2", "Y")
    sizes = _system_sizes(monkeypatch)
    S = solve_antipode(B)
    assert sizes == [6 * 9]
    assert S == _ref_antipode(B)
    assert verify_hopf(hopf_from_bialgebra(B)).ok


def test_antipode_on_generators_needs_an_associative_algebra():
    # Z/4 over F5 with g^3 g^2 = 0: not associative.  S(g^i) = g^-i still
    # satisfies both antipode identities, but the full system is singular, so
    # the solve on generators must not be used
    H = cyclic_group_algebra(4, F5)
    mult = dict(H.mult)
    mult[(3, 2)] = {}
    B = Bialgebra(F5, H.labels, mult, H.unit, H.comult, H.counit)
    with pytest.raises(NoAntipodeError) as err:
        ref.solve_antipode(B)
    with pytest.raises(NoAntipodeError, match=f"^{err.value}$"):
        solve_antipode(B)


def test_taft6_matches_stored_document():
    # the stored document holds the antipode written by perfbench/gen_taft6.py
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "taft6_F7_q3.json"
    assert taft(6, 3, F7) == load_document(str(path)).hopf_algebras["T"]


# ------------------------------------------- Taft's closed forms, by oracle

QI = SimpleExtension(QQ, "i", (1, 0, 1))
QW = SimpleExtension(QQ, "w", (1, 1, 1))
# (N, field, every q of exact order N); N = 2..8 over four prime fields
# wherever such a q exists, and the roots of unity of Q, Q(i) and Q(w)
TAFT_CASES = [(N, F, qs) for p in (7, 13, 61, 97) for F in [PrimeField(p)]
              for N in range(2, 9) if (qs := [q for q in range(1, p) if F.has_order(q, N)])]
TAFT_CASES += [(2, QQ, [-1]), (4, QI, [QI.gen(), QI.neg(QI.gen())]),
               (3, QW, [QW.gen(), QW.sub(QW.neg(QW.gen()), QW.one())])]


def _taft_comult_oracle(H, N, a, b):
    """(X (x) X)^a (1 (x) Y + Y (x) X)^b, multiplied out in H (x) H."""
    one = H.field.one()
    t = {(0, 0): one}
    for _ in range(a):
        t = ref._h_tensor_mul(H, t, {(1, 1): one})
    for _ in range(b):
        t = ref._h_tensor_mul(H, t, {(0, N): one, (N, 1): one})
    return t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TAFT_CASES).flatmap(
    lambda case: st.tuples(st.just(case[:2]), st.sampled_from(case[2]))))
def test_taft_closed_forms_equal_the_multiplied_out_and_solved_tables(drawn):
    (N, K), q = drawn
    H = taft(N, q, K)
    for i in range(N * N):
        assert H.comult.get(i, {}) == _taft_comult_oracle(H, N, i % N, i // N), H.labels[i]
    B = Bialgebra(K, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert H.antipode == solve_antipode(B) == _ref_antipode(B)


# Every constructor's antipode table, on the inputs of the closed forms above
# (N <= 6 over F7, F13 and Q(i)), cyclic group algebras, duals and Sweedler's
_TABLE_FIELDS = (F7, PrimeField(13), QI)
_TAFTS = st.sampled_from([(N, K, qs) for N, K, qs in TAFT_CASES
                          if N <= 6 and K in _TABLE_FIELDS]).flatmap(
    lambda case: st.sampled_from(case[2]).map(lambda q: taft(case[0], q, case[1])))
_HOPFS = st.one_of(
    _TAFTS,
    st.builds(cyclic_group_algebra, st.integers(1, 6), st.sampled_from((QQ, F7))),
    st.sampled_from((QQ, F7, QI)).map(sweedler_h4))
HOPF_TABLES = st.one_of(_HOPFS, _HOPFS.map(dual_hopf))


@settings(max_examples=40, deadline=None)
@given(HOPF_TABLES)
def test_a_dumped_hopf_algebra_parses_to_an_equal_record(H):
    text = dump_document(Document(H.field, hopf_algebras={"H": H}))
    back = parse_document(text).hopf_algebras["H"]
    assert back == H and back.antipode == H.antipode and hash(back) == hash(H)


@settings(max_examples=40, deadline=None)
@given(HOPF_TABLES)
def test_the_antipode_table_matches_the_solves_and_the_reference_report(H):
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert hopf_from_bialgebra(B).antipode == H.antipode == _ref_antipode(B)
    assert verify_hopf(H).to_json() == ref.verify_hopf(H).to_json()


def _count_builds(monkeypatch):
    """Counters of solve_antipode calls and of record constructions."""
    calls = {"solve_antipode": 0, "post_init": 0}
    solve, post_init = hopf.solve_antipode, Bialgebra.__post_init__

    def counting_solve(B):
        calls["solve_antipode"] += 1
        return solve(B)

    def counting_post_init(self):
        calls["post_init"] += 1
        post_init(self)
    monkeypatch.setattr(hopf, "solve_antipode", counting_solve)
    monkeypatch.setattr(Bialgebra, "__post_init__", counting_post_init)
    return calls


def test_a_taft_shorthand_builds_one_record_and_solves_nothing(monkeypatch):
    calls = _count_builds(monkeypatch)
    doc = parse_document(json.dumps({"field": "F61", "hopf_algebras": {
        "T": {"construction": "taft", "order": 5, "q": "9"}}}))
    assert calls == {"solve_antipode": 0, "post_init": 1}
    assert verify_hopf(doc.hopf_algebras["T"]).ok


def test_an_explicit_table_with_an_antipode_builds_one_record(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "taft6_F7_q3.json"
    calls = _count_builds(monkeypatch)
    H = load_document(str(path)).hopf_algebras["T"]
    assert calls == {"solve_antipode": 0, "post_init": 1}
    assert type(H) is HopfAlgebra


# ------------------------------------- a Hopf-Galois oracle for the antipode

def _monoid_tables(n: int) -> list:
    """Every associative table on range(n) with identity 0, as rows t[a][b]."""
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    tables = []
    for values in itertools.product(range(n), repeat=len(pairs)):
        t = [list(range(n))] + [[a] + [0] * (n - 1) for a in range(1, n)]
        for (a, b), v in zip(pairs, values):
            t[a][b] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)):
            tables.append(t)
    return tables


MONOIDS = [t for n in (1, 2, 3) for t in _monoid_tables(n)]


def _is_group(t: list) -> bool:
    return all(0 in row for row in t)


def _monoid_algebra(t: list, K) -> Bialgebra:
    """k[M]: the elements of M group-like, multiplied by the table t."""
    n, one = len(t), K.one()
    return Bialgebra(K, tuple(f"m{a}" for a in range(n)),
                     {(a, b): {t[a][b]: one} for a in range(n) for b in range(n)},
                     {0: one}, {a: {(a, a): one} for a in range(n)}, dict.fromkeys(range(n), one))


def _dual_bialgebra(B: Bialgebra) -> Bialgebra:
    """B* on the dual basis: each table the transpose of the one dual to it."""
    def transposed(table):
        out = {}
        for i, row in table.items():
            for k, c in row.items():
                out.setdefault(k, {})[i] = c
        return out
    return Bialgebra(B.field, tuple(f"{l}*" for l in B.labels), transposed(B.comult), B.counit,
                     transposed(B.mult), B.unit)


def _solves(B: Bialgebra) -> bool:
    try:
        solve_antipode(B)
    except NoAntipodeError:
        return False
    return True


def _galois_over_its_field(B: Bialgebra, dense=False) -> bool:
    """Whether B, coacted on by its own Delta over the ring with no
    generators, is Galois: the canonical map reads no antipode.  With
    ``dense`` the determinant must also be Berkowitz's on the reference's
    dense canonical matrix."""
    A = trivial_bundle(base_ring(B.field), B)
    verdict = is_galois(A)
    if dense:
        assert verdict.det == berkowitz_det(ref.canonical_matrix(A), A.base)
    return verdict.ok


def test_the_monoids_on_three_elements() -> None:
    """14 tables with identity 0 on at most 3 elements, 3 of them groups:
    on 3 elements the 7 monoids up to isomorphism give 11 tables, as Z/3
    and the left and right zero semigroups with 1 adjoined are fixed by
    the swap of their two other elements."""
    assert [len(_monoid_tables(n)) for n in (1, 2, 3)] == [1, 2, 11]
    assert sum(map(_is_group, MONOIDS)) == 3


@pytest.mark.parametrize("K", [F5, QQ], ids=repr)
@pytest.mark.parametrize("t", MONOIDS, ids=str)
def test_a_monoid_bialgebra_is_hopf_exactly_when_it_is_galois_over_its_field(t, K) -> None:
    """B is a Hopf algebra iff its canonical map x (x) y -> x y_(1) (x) y_(2)
    is bijective (Montgomery, CBMS 82, 8.1); for k[M] and k^M that is when
    M is a group."""
    for B in (_monoid_algebra(t, K), _dual_bialgebra(_monoid_algebra(t, K))):
        assert _galois_over_its_field(B, dense=True) == _solves(B) == _is_group(t)


def _changed_basis(B: Bialgebra, P) -> Bialgebra:
    """B on the basis e'_a = sum_i P[i, a] e_i, for a sympy matrix P
    invertible over B's field, and Q = P^-1 by sympy, so e_l = sum_c Q[c, l]
    e'_c: each table is its structure constants multiplied out, as
    e'_a e'_b = sum P[i, a] P[j, b] m_ij^l Q[c, l] e'_c."""
    K, d = B.field, B.dim
    Q = P.inv() if K == QQ else P.inv_mod(K.p)

    def scalar(x):
        x = sympy.Rational(x)
        return K.div(K.from_int(int(x.p)), K.from_int(int(x.q)))
    P, Q = ([[scalar(M[i, j]) for j in range(d)] for i in range(d)] for M in (P, Q))

    def total(terms):
        return functools.reduce(K.add, terms, K.zero())

    def mul(*xs):
        return functools.reduce(K.mul, xs, K.one())
    mult = {(a, b): {c: total(mul(P[i][a], P[j][b], m, Q[c][l])
                              for (i, j), row in B.mult.items() for l, m in row.items())
                     for c in range(d)} for a in range(d) for b in range(d)}
    unit = {c: total(mul(u, Q[c][l]) for l, u in B.unit.items()) for c in range(d)}
    comult = {a: {(x, y): total(mul(P[i][a], c, Q[x][j], Q[y][k])
                                for i, t in B.comult.items() for (j, k), c in t.items())
                  for x in range(d) for y in range(d)} for a in range(d)}
    counit = {a: total(mul(P[i][a], c) for i, c in B.counit.items()) for a in range(d)}
    return Bialgebra(K, tuple(f"e{a}" for a in range(d)), mult, unit, comult, counit)


def _bialgebra_part(H: HopfAlgebra) -> Bialgebra:
    return Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)


# (bialgebra over a field, whether it is Hopf): k[M] and k^M over F5 and Q
# for each monoid M, and two Hopf algebras
BASIS_CHANGED = [(B, _is_group(t)) for t in MONOIDS for K in (F5, QQ)
                 for B in (_monoid_algebra(t, K), _dual_bialgebra(_monoid_algebra(t, K)))]
BASIS_CHANGED += [(_bialgebra_part(sweedler_h4(K)), True) for K in (F5, QQ)]
BASIS_CHANGED += [(_bialgebra_part(cyclic_group_algebra(3, F7)), True)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_galois_iff_hopf_on_a_changed_basis(data) -> None:
    """On a dense change of basis P (entries in {-2, -1, 1, 2}, det P != 0
    over the field by sympy), a bialgebra is still Hopf exactly when it is
    Galois over its field: the tables are dense, so one wrong sign in the
    canonical matrix can change the verdict."""
    B, hopf_ = data.draw(st.sampled_from(BASIS_CHANGED))
    d = B.dim
    P = sympy.Matrix(d, d, data.draw(st.lists(st.sampled_from((-2, -1, 1, 2)),
                                              min_size=d * d, max_size=d * d)))
    det = P.det()
    assume(det != 0 if B.field == QQ else det % B.field.p != 0)
    B2 = _changed_basis(B, P)
    assert _galois_over_its_field(B2, dense=d <= 3) == _solves(B2) == hopf_


QW = SimpleExtension(QQ, "w", (1, 1, 1))
QI = SimpleExtension(QQ, "i", (1, 0, 1))
GALOIS_HOPF = [sweedler_h4(QQ), taft(3, 2, F7), taft(3, QW.gen(), QW), taft(4, QI.gen(), QI),
               cyclic_group_algebra(6, F7)]


@pytest.mark.parametrize("H", GALOIS_HOPF + [dual_hopf(H) for H in GALOIS_HOPF], ids=repr)
def test_a_hopf_algebra_is_galois_over_its_field(H) -> None:
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert _galois_over_its_field(B, dense=H.dim <= 4) and _solves(B)
