"""The table-based axiom checker against the basis-vector reference.

``reference_axioms`` keeps the verifiers written on basis vectors through
the public vector operations.  Every report of ``verify_hopf``,
``verify_comodule_algebra`` and ``check_iso`` must equal the reference's
JSON exactly, on the untouched inputs and after one structure constant or
matrix entry is changed, added or zeroed.  Zeroed entries stay in the
tables as explicit zeros, so the checker's dropping of zero coefficients is
exercised too.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import axioms
from hopfgal.axioms import field_ops, ring_ops, word_tree
from hopfgal.bundles import (
    AbgParams,
    abg_bundle,
    abg_triviality_criterion,
    kummer_bundle,
    sqrt_reduction,
)
from hopfgal.cleft import Cocycle, trivial_cocycle, twisted_product
from hopfgal.comod import (
    ComoduleAlgebra,
    check_iso,
    push_forward,
    trivial_bundle,
    verify_comodule_algebra,
)
from hopfgal.document import load_document
from hopfgal.errors import NotAssociativeError
from hopfgal.fields import QQ, PrimeField, SimpleExtension, is_prime
from hopfgal.galois import canonical_matrix, is_galois
from hopfgal.hopf import (
    HopfAlgebra,
    cyclic_group_algebra,
    dual_hopf,
    is_commutative_hopf,
    sweedler_h4,
    taft,
    verify_hopf,
)
from hopfgal.homotopy import (
    cleft_trivialization_witness,
    grading_witness,
    kummer_trivialization_witness,
)
from hopfgal.linalg import berkowitz_det
from hopfgal.rings import adjoin_root, base_ring, laurent_ring, polynomial_ring

import reference_axioms as ref

F5 = PrimeField(5)
F7 = PrimeField(7)
F241 = PrimeField(241)
QW = SimpleExtension(QQ, "w", (QQ.one(), QQ.one(), QQ.one()))  # w^2 + w + 1
SEED0 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "seed0"


def _hopf_inputs():
    return [
        sweedler_h4(QQ),
        taft(3, 2, F7),
        taft(3, QW.gen(), QW),
        cyclic_group_algebra(4, F7),
        dual_hopf(taft(3, 2, F7)),
    ]


def _bundle_inputs():
    C = polynomial_ring(QQ, "u", "v")
    u, v = C.gen("u"), C.gen("v")
    return [
        kummer_bundle(3, F241.from_int(15), F241),  # 15 has order 3 mod 241
        abg_bundle(AbgParams(C, C.from_int(2), u, v * v - C.from_int(3))),
    ]


HOPF = _hopf_inputs()
BUNDLES = _bundle_inputs()


def _nonzero_scalar(data, K):
    if K == QQ:
        n = data.draw(st.integers(-5, 5).filter(bool))
        return Fraction(n, data.draw(st.integers(1, 4)))
    if isinstance(K, PrimeField):
        return data.draw(st.integers(1, K.p - 1))
    c = tuple(_scalar(data, K.base) for _ in range(K.degree))
    return c if not K.is_zero(c) else K.one()


def _scalar(data, K):
    return K.zero() if data.draw(st.booleans()) else _nonzero_scalar(data, K)


def _corrupt_entry(data, table: dict, keys, value, zero):
    """Change, add or zero one entry of {key: {index: c}} (rows copied)."""
    table = {k: dict(row) for k, row in table.items()}
    key = data.draw(st.sampled_from(keys))
    row = table.setdefault(key, {})
    action = data.draw(st.sampled_from(("change", "add", "zero")))
    if action == "change" and row:
        index = data.draw(st.sampled_from(sorted(row)))
    else:
        # any index the table uses in some row, so a zero may land on a new key
        index = data.draw(st.sampled_from(sorted({i for r in table.values() for i in r})))
    row[index] = zero if action == "zero" else value
    return table


def _corrupt_vector(data, vec: dict, dim: int, value, zero):
    out = dict(vec)
    action = data.draw(st.sampled_from(("change", "add", "zero")))
    if action == "change" and out:
        index = data.draw(st.sampled_from(sorted(out)))
    else:
        index = data.draw(st.integers(0, dim - 1))
    out[index] = zero if action == "zero" else value
    return out


def _corrupt_hopf(data, H: HopfAlgebra, value, zero) -> HopfAlgebra:
    d = H.dim
    mult, unit, comult, counit = H.mult, H.unit, H.comult, H.counit
    antipode = H.antipode
    part = data.draw(st.sampled_from(("mult", "comult", "unit", "counit", "antipode")))
    if part == "mult":
        mult = _corrupt_entry(data, mult, [(i, j) for i in range(d) for j in range(d)],
                              value, zero)
    elif part == "comult":
        comult = _corrupt_entry(data, comult, list(range(d)), value, zero)
    elif part == "unit":
        unit = _corrupt_vector(data, unit, d, value, zero)
    elif part == "counit":
        counit = _corrupt_vector(data, counit, d, value, zero)
    else:
        antipode = _corrupt_entry(data, antipode, list(range(d)), value, zero)
    return HopfAlgebra(H.field, H.labels, mult, unit, comult, counit, antipode)


def _commutative_reference(H) -> bool:
    one = H.field.one()
    return all(H.mul_vec({i: one}, {j: one}) == H.mul_vec({j: one}, {i: one})
               for i in range(H.dim) for j in range(i))


@pytest.mark.parametrize("H", HOPF, ids=repr)
def test_hopf_reports_match_reference_on_passing_inputs(H):
    rep = verify_hopf(H)
    assert rep.ok
    assert rep.to_json() == ref.verify_hopf(H).to_json()


@pytest.mark.parametrize("A", BUNDLES, ids=repr)
def test_bundle_reports_match_reference_on_passing_inputs(A):
    rep = verify_comodule_algebra(A)
    assert rep.ok
    assert rep.to_json() == ref.verify_comodule_algebra(A).to_json()


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_corrupted_hopf_reports_match_reference(data):
    H = data.draw(st.sampled_from(HOPF))
    K = H.field
    bad = _corrupt_hopf(data, H, _nonzero_scalar(data, K), K.zero())
    assert verify_hopf(bad).to_json() == ref.verify_hopf(bad).to_json()
    assert is_commutative_hopf(bad) == _commutative_reference(bad)


def _corrupt_bundle(data) -> ComoduleAlgebra:
    """One of BUNDLES with one entry of its tables, or of H's, changed."""
    A = data.draw(st.sampled_from(BUNDLES))
    C, H = A.base, A.hopf
    value = C.from_scalar(_nonzero_scalar(data, C.field))
    if data.draw(st.booleans()):
        value = value * C.gen(data.draw(st.integers(0, len(C.gens) - 1)))
    n = A.dim
    mult, unit, coaction = A.mult, A.unit, A.coaction
    part = data.draw(st.sampled_from(("mult", "unit", "coaction", "hopf")))
    if part == "mult":
        mult = _corrupt_entry(data, mult, [(i, j) for i in range(n) for j in range(n)],
                              value, C.zero())
    elif part == "unit":
        unit = _corrupt_vector(data, unit, n, value, C.zero())
    elif part == "coaction":
        coaction = _corrupt_entry(data, coaction, list(range(n)), value, C.zero())
    else:
        H = _corrupt_hopf(data, H, _nonzero_scalar(data, H.field), H.field.zero())
    return ComoduleAlgebra(C, H, A.labels, mult, unit, coaction)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_corrupted_bundle_reports_match_reference(data):
    bad = _corrupt_bundle(data)
    assert verify_comodule_algebra(bad).to_json() == ref.verify_comodule_algebra(bad).to_json()


# ----------------------------------------------------- the structure map

def _kummer(N):
    """(K, q): the least prime field K with an element q of order N."""
    K = PrimeField(next(p for p in range(N + 1, 10 * N * N, N) if is_prime(p)))
    q = next(K.from_int(a) for a in range(2, K.p) if K.has_order(K.from_int(a), N))
    return K, q


def _structure_map_inputs():
    out = [kummer_bundle(N, q, K) for N in range(2, 13) for K, q in [_kummer(N)]]
    R = polynomial_ring(QQ, "u", "v", "w")
    u, v, w = R.gen("u"), R.gen("v"), R.gen("w")
    out.append(abg_bundle(AbgParams(R, 3, u * v + 2 * w, 5 * u + 7 * v * w + 4)))
    Cg = polynomial_ring(QQ, "x", grades=(1,))
    C = base_ring(QQ)
    witnesses = [kummer_trivialization_witness(N, q, K)[1]
                 for N in (2, 3, 4) for K, q in [_kummer(N)]]
    witnesses += [cleft_trivialization_witness(AbgParams(C, 3, 5, 7)).links[0][0],
                  grading_witness(abg_bundle(AbgParams(Cg, 1, Cg.gen("x"), 0)))]
    out += [A for w in witnesses for A in (w.family, w.at_zero, w.at_one)]
    return out


@pytest.mark.parametrize("A", _structure_map_inputs(), ids=repr)
def test_canonical_matrix_matches_tensor_mul_reference(A):
    assert ref.entries(A, canonical_matrix(A)) == ref.canonical_matrix(A)


def _with_hopf(A, H) -> ComoduleAlgebra:
    return ComoduleAlgebra(A.base, H, A.labels, A.mult, A.unit, A.coaction)


def _with_unit(H, unit) -> HopfAlgebra:
    return HopfAlgebra(H.field, H.labels, H.mult, unit, H.comult, H.counit, H.antipode)


def test_canonical_matrix_reads_no_unit_premise_of_h():
    """1_H a sum of basis elements (the dual group algebra of a Kummer
    bundle), or no unit at all: 1_H h_l is formed from H's tables as given."""
    A = kummer_bundle(3, F241.from_int(15), F241)
    H = A.hopf
    assert len(H.unit) == 3  # 1 is the sum of the three idempotents
    for unit in (H.unit, {}, {0: 1}, {0: 2, 2: 1}, {1: 0}):
        B = _with_hopf(A, _with_unit(H, unit))
        assert ref.entries(B, canonical_matrix(B)) == ref.canonical_matrix(B), unit
    S = abg_bundle(AbgParams(base_ring(QQ), 3, 5, 7))
    for unit in ({}, {1: QQ.one()}, {0: QQ.one(), 3: Fraction(1, 2)}):
        B = _with_hopf(S, _with_unit(S.hopf, unit))
        assert ref.entries(B, canonical_matrix(B)) == ref.canonical_matrix(B), unit


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_canonical_matrix_matches_reference_on_corrupted_tables(data):
    bad = _corrupt_bundle(data)
    M = canonical_matrix(bad)
    assert ref.entries(bad, M) == ref.canonical_matrix(bad)
    if bad.dim == bad.hopf.dim:
        dense = [[e.coeffs for e in row] for row in ref.rows(bad, M)]
        assert is_galois(bad).det.coeffs == berkowitz_det(dense, bad.base)


def test_benchmark_documents_match_reference():
    """Every Hopf algebra and bundle of the stored benchmark documents (read only)."""
    seen = 0
    for path in sorted(SEED0.glob("*/*.json")) + sorted(SEED0.parent.glob("taft6_*.json")):
        if path.name in ("schema.json", "unresolved.json"):
            continue  # rejected before any verifier runs
        doc = load_document(path)
        for H in doc.hopf_algebras.values():
            assert verify_hopf(H).to_json() == ref.verify_hopf(H).to_json(), path
            seen += 1
        for A in doc.bundles.values():
            assert (verify_comodule_algebra(A).to_json()
                    == ref.verify_comodule_algebra(A).to_json()), path
            seen += 1
    assert seen >= 20


def test_non_associative_cocycle_message():
    H4 = sweedler_h4(QQ)
    C = base_ring(QQ)
    t = [list(row) for row in trivial_cocycle(C, H4).sigma]
    t[1][2] = C.one()
    with pytest.raises(NotAssociativeError) as err:
        twisted_product(C, H4, Cocycle(C, H4, tuple(tuple(r) for r in t)))
    assert str(err.value) == "twisted product fails associativity on (X, X, Y)"

    # a group-algebra cocycle breaking sigma(g, g) sigma(g^2, g) = sigma(g, g) sigma(g, g^2)
    H3 = cyclic_group_algebra(3, QQ)
    R = laurent_ring(QQ, "u")
    t = [list(row) for row in trivial_cocycle(R, H3).sigma]
    t[1][1], t[2][1] = R.gen("u"), R.from_int(3)
    with pytest.raises(NotAssociativeError) as err:
        twisted_product(R, H3, Cocycle(R, H3, tuple(tuple(r) for r in t)))
    assert str(err.value) == "twisted product fails associativity on (g, g, g)"


# -------------------------------------------------------------------------
# checks on generators: the shortcut only ever certifies a pass
# -------------------------------------------------------------------------

T4 = taft(4, 2, F5)
KUMMER4 = kummer_bundle(4, F241.from_int(64), F241)  # 64^2 = -1 mod 241


def _generators(R):
    """The generators of a word tree of R's algebra, found on R's tables
    as they are."""
    ops = ring_ops(R.base) if isinstance(R, ComoduleAlgebra) else field_ops(R.field)
    tree = word_tree(R.dim, R.mult, R.unit, ops.is_unit)
    return None if tree is None else tree.gens


def _non_generator_pairs(n, gens):
    return [(i, j) for i in range(n) for j in range(n) if i not in gens and j not in gens]


def test_word_trees_of_taft_and_kummer():
    assert _generators(T4) == (1, 4)  # X, Y
    assert _generators(KUMMER4) == (1,)  # w
    # the dual group algebra's unit is the sum of all basis elements: no tree
    H = KUMMER4.hopf
    assert _generators(H) is None


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_non_generator_corruptions_match_reference(data):
    """One or two products of two non-generators are changed, added or zeroed;
    the reports, and the verdict that decides the shortcut, match the
    reference."""
    hopf = data.draw(st.booleans())
    mult = T4.mult if hopf else KUMMER4.mult
    for _ in range(data.draw(st.integers(1, 2))):
        if hopf:
            mult = _corrupt_entry(data, mult, _non_generator_pairs(T4.dim, (1, 4)),
                                  _nonzero_scalar(data, F5), F5.zero())
        else:
            C = KUMMER4.base
            value = C.from_scalar(_nonzero_scalar(data, F241))
            if data.draw(st.booleans()):
                value = value * C.gen("z") ** data.draw(st.sampled_from((-1, 1)))
            mult = _corrupt_entry(data, mult, _non_generator_pairs(KUMMER4.dim, (1,)),
                                  value, C.zero())
    if hopf:
        R = HopfAlgebra(F5, T4.labels, mult, T4.unit, T4.comult, T4.counit, T4.antipode)
        ops, want = field_ops(F5), ref.verify_hopf(R)
        assert verify_hopf(R).to_json() == want.to_json()
    else:
        A = KUMMER4
        R = ComoduleAlgebra(A.base, A.hopf, A.labels, mult, A.unit, A.coaction)
        ops, want = ring_ops(R.base), ref.verify_comodule_algebra(R)
        assert verify_comodule_algebra(R).to_json() == want.to_json()
    # the verdict's failures are the reference's, pass or fail and witness,
    # and it keeps the word tree only when both checks pass
    got, L = R.verdict, R.labels
    checks = {c.name: c for c in want.checks}
    assert ((got.unit is None, "" if got.unit is None else f"fails on {L[got.unit]}")
            == (checks["unit"].ok, checks["unit"].witness))
    assert ((got.assoc is None, "" if got.assoc is None else "({}*{})*{}".format(
        *(L[i] for i in got.assoc))) == (checks["associativity"].ok,
                                         checks["associativity"].witness))
    if got.unit is None and got.assoc is None:
        assert got.tree == word_tree(R.dim, R.mult, R.unit, ops.is_unit)
    else:
        assert got.tree is None


def _hopf_table(K, labels, mult, comult, counit):
    one = K.one()
    identity = {i: {i: one} for i in range(len(labels))}
    return HopfAlgebra(K, labels, mult, {0: one}, comult, counit, identity)


def _non_unit_step():
    """x x = e y with e = (1 + r)/2 an idempotent non-unit of Q[r | r^2 = 1]:
    y is no word in x, and (y x) x != y (x x) although every row of x passes."""
    C0 = base_ring(QQ)
    C, _, r = adjoin_root(C0, C0.one(), 2, "r")
    one = C.one()
    e = C.from_scalar(Fraction(1, 2)) * (one + r)
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (1, 0): {1: one},
            (2, 0): {2: one}, (1, 1): {2: e}, (2, 1): {2: one - e}}
    return ComoduleAlgebra(C, cyclic_group_algebra(1, QQ), ("1", "x", "y"), mult, {0: one},
                           {i: {(i, 0): one} for i in range(3)})


def _unit_fails():
    """1 1 = 0 over F2: every row of x passes, (1 1) x != 1 (1 x)."""
    F2 = PrimeField(2)
    return _hopf_table(F2, ("1", "x"), {(0, 1): {1: 1}},
                       {0: {(0, 0): 1}, 1: {(1, 0): 1, (0, 1): 1}}, {0: 1})


def _not_unital():
    """F2[x]/(x^2), x primitive, but Delta(1) = 1 (x) 1 + x (x) x: Delta(x b) =
    Delta(x) Delta(b) for all b, Delta(1 1) != Delta(1) Delta(1)."""
    F2 = PrimeField(2)
    return _hopf_table(F2, ("1", "x"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                       {0: {(0, 0): 1, (1, 1): 1}, 1: {(1, 0): 1, (0, 1): 1}}, {0: 1})


def _hopf_not_associative():
    """An ABG bundle coacted on by H4 with XY XY = X: H is not associative, and
    rho(xy xy) != rho(xy) rho(xy) although rho(x b) = rho(x) rho(b) for all b."""
    H = sweedler_h4(QQ)
    mult = dict(H.mult)
    mult[(3, 3)] = {1: QQ.one()}
    H = HopfAlgebra(QQ, H.labels, mult, H.unit, H.comult, H.counit, H.antipode)
    C = base_ring(QQ)
    A = abg_bundle(AbgParams(C, 3, 5, 7))
    return ComoduleAlgebra(C, H, A.labels, A.mult, A.unit, A.coaction)


@pytest.mark.parametrize("build, check", [
    (_non_unit_step, "associativity"),
    (_unit_fails, "associativity"),
    (_not_unital, "comultiplication is multiplicative"),
    (_hopf_not_associative, "coaction respects product"),
])
def test_generator_shortcut_needs_its_premises(build, check):
    """Each object passes its check on the generator rows alone; a shortcut
    taken without the closure test or a premise would certify it."""
    obj = build()
    if isinstance(obj, HopfAlgebra):
        rep, want = verify_hopf(obj), ref.verify_hopf(obj)
    else:
        rep, want = verify_comodule_algebra(obj), ref.verify_comodule_algebra(obj)
    assert rep.to_json() == want.to_json()
    assert [c.ok for c in rep.checks if c.name == check] == [False]


# -------------------------------------------------------------------------
# isomorphisms: the map checks against the all-pairs reference
# -------------------------------------------------------------------------

def _identity(C, n):
    return [[C.one() if i == j else C.zero() for j in range(n)] for i in range(n)]


def _endpoint_isos(w):
    """(source, target, matrix) of both endpoint isomorphisms a witness claims."""
    return [(push_forward(w.step.morphism, A), push_forward(at, w.family), M)
            for A, at, M in ((w.at_zero, w.interval.at_zero, w.iso_zero),
                             (w.at_one, w.interval.at_one, w.iso_one))]


def _iso_inputs():
    Q = base_ring(QQ)
    p = AbgParams(Q, 4, 1, 4)
    verdict = abg_triviality_criterion(p)
    red = sqrt_reduction(AbgParams(Q, 4, 5, 7), 2)
    T = trivial_bundle(polynomial_ring(QQ, "u"), sweedler_h4(QQ))
    # no word tree: 1 is the sum of the idempotents of the dual group algebra
    D = trivial_bundle(Q, dual_hopf(cyclic_group_algebra(3, QQ)))
    return [
        (abg_bundle(p), verdict.target, [list(r) for r in verdict.matrix]),
        (abg_bundle(red.source), abg_bundle(red.target), [list(r) for r in red.matrix]),
        (T, T, _identity(T.base, 4)),
        (D, D, _identity(Q, 3)),
        *_endpoint_isos(kummer_trivialization_witness(3, F241.from_int(15), F241)[1]),
    ]


ISOS = _iso_inputs()


def _element(data, C):
    value = C.from_scalar(_nonzero_scalar(data, C.field))
    if C.gens and data.draw(st.booleans()):
        value = value * C.gen(data.draw(st.integers(0, len(C.gens) - 1)))
    return value


def _unimodular(data, C, M):
    """M times elementary matrices: the determinant is unchanged."""
    M = [list(r) for r in M]
    n = len(M)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j:
            c = _element(data, C)
            for row in M:
                row[j] = row[j] + c * row[i]
    return M


def _mutated_iso(data):
    A, B, M = data.draw(st.sampled_from(ISOS))
    C, n = A.base, A.dim
    M = [list(r) for r in M]
    how = data.draw(st.sampled_from(
        ("none", "entry", "unimodular", "singular", "scale unit", "source", "target")))
    if how == "entry":
        M[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = (
            C.zero() if data.draw(st.booleans()) else _element(data, C))
    elif how == "unimodular":
        M = _unimodular(data, C, M)
    elif how == "singular":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for row in M:
            row[j] = row[i] if i != j else C.zero()
    elif how == "scale unit":  # phi(a_0) times a unit: phi(1) != 1 where 1 = a_0
        c = C.from_scalar(_nonzero_scalar(data, C.field))
        for row in M:
            row[0] = c * row[0]
    else:  # a corrupted source or target: not associative or not unital
        X = A if how == "source" else B
        keys = [(i, j) for i in range(n) for j in range(n)]
        X = ComoduleAlgebra(C, X.hopf, X.labels, _corrupt_entry(
            data, X.mult, keys, _element(data, C), C.zero()), X.unit, X.coaction)
        A, B = (X, B) if how == "source" else (A, X)
    return A, B, M


@pytest.mark.parametrize("A, B, M", ISOS,
                         ids=["criterion", "sqrt", "trivial", "dual", "kummer-0", "kummer-1"])
def test_iso_reports_match_reference_on_passing_inputs(A, B, M):
    rep = check_iso(A, B, M)
    assert rep.ok
    assert rep.to_json() == ref.check_iso(A, B, M).to_json()


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_mutated_iso_reports_match_reference(data):
    A, B, M = _mutated_iso(data)
    assert check_iso(A, B, M).to_json() == ref.check_iso(A, B, M).to_json()


def _generator_rows_pass(A, B, M, gens):
    one = A.base.one()
    phi = [ref._apply_matrix(M, {i: one}) for i in range(A.dim)]
    return all(ref._apply_matrix(M, ref._a_mul_vec(A, {i: one}, {j: one}))
               == ref._a_mul_vec(B, phi[i], phi[j]) for i in gens for j in range(A.dim))


def _abg_pair(corrupt_source, key, row):
    """An ABG bundle and a copy with the product at key changed, under the identity."""
    C = base_ring(QQ)
    A = abg_bundle(AbgParams(C, 3, 5, 7))
    mult = {**A.mult, key: {l: C.from_int(c) for l, c in row.items()}}
    X = ComoduleAlgebra(C, A.hopf, A.labels, mult, A.unit, A.coaction)
    A, B = (X, A) if corrupt_source else (A, X)
    return A, B, _identity(C, 4)


def _phi_one_not_one():
    """phi(1) = 1 + x on Q[x]/(x^2), phi(x) = x: phi(x b) = phi(x) phi(b) for
    all b, phi(1 1) != phi(1) phi(1)."""
    C = base_ring(QQ)
    one, zero = C.one(), C.zero()
    A = ComoduleAlgebra(C, cyclic_group_algebra(1, QQ), ("1", "x"),
                        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                        {0: one}, {i: {(i, 0): one} for i in range(2)})
    return A, A, [[one, zero], [one, one]]


@pytest.mark.parametrize("build, side, premise", [
    (lambda: _abg_pair(True, (3, 3), {1: 2}), "source", "associativity"),
    (lambda: _abg_pair(False, (3, 3), {1: 2}), "target", "associativity"),
    (lambda: _abg_pair(False, (0, 3), {3: 2}), "target", "unit"),
    (_phi_one_not_one, "map", "preserves unit"),
])
def test_iso_generator_shortcut_needs_its_premises(build, side, premise):
    """The generator rows pass and a later pair fails; a shortcut taken
    without the broken premise would certify the map."""
    A, B, M = build()
    gens = _generators(A)
    assert gens and _generator_rows_pass(A, B, M, gens)
    rep = check_iso(A, B, M)
    assert rep.to_json() == ref.check_iso(A, B, M).to_json()
    assert [c.ok for c in rep.checks if c.name == "preserves product"] == [False]
    broken = {"source": ref.verify_comodule_algebra(A), "target": ref.verify_comodule_algebra(B),
              "map": rep}[side]
    assert [c.ok for c in broken.checks if c.name == premise] == [False]


def test_kummer_witness_isos_scan_only_generator_rows(monkeypatch):
    """The product check of check_iso on the Kummer witness isomorphism at 0
    scans the row of the generator w and no other row.  At 1 the source is
    the trivial bundle over the dual group algebra, whose 1 is the sum of the
    idempotents: it has no word tree, so every row is scanned."""
    scanned = []
    algebra_map, on_generators = axioms.algebra_map, axioms.on_generators

    def recording(*args):
        monkeypatch.setattr(axioms, "on_generators", lambda scan, n, gens: on_generators(
            lambda rows: scanned.append(tuple(rows)) or scan(rows), n, gens))
        try:
            return algebra_map(*args)
        finally:
            monkeypatch.setattr(axioms, "on_generators", on_generators)

    monkeypatch.setattr(axioms, "algebra_map", recording)
    for N in (6, 8):
        K, q = _kummer(N)
        rows = []
        for A, B, M in _endpoint_isos(kummer_trivialization_witness(N, q, K)[1]):
            scanned.clear()
            assert check_iso(A, B, M).ok
            rows.append(list(scanned))
        assert rows == [[(1,)], [tuple(range(N))]]
