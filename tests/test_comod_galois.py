"""Comodule algebras, push-forwards, the structure map, convolution.

The rank-2 sample bundle adjoins a square root v of a base element u with
the order-2 group algebra coacting by the sign character.  Over k[u] the
structure-map determinant is -u (not a unit, ramified); over k[u, u^-1]
it is a unit.  Both facts were checked by hand and are frozen here.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import axioms, comod, galois, linalg
from hopfgal.bundles import AbgParams, abg_bundle, abg_cleaving, kummer_bundle
from hopfgal.cleft import cleaving_of_twisted_product
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
from hopfgal.document import load_document
from hopfgal.homotopy import identity_matrix, kummer_trivialization_witness, verify_witness
from hopfgal.hopf import (Bialgebra, cyclic_group_algebra, dual_hopf, solve_antipode,
                          sweedler_h4, taft)
from hopfgal.rings import (
    BaseElement,
    BaseMorphism,
    adjoin_root,
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
    M = ref.entries(A, canonical_matrix(A))
    assert len(M) == 16 and all(len(row) == 16 for row in M)
    col = [M[r][0 * 4 + 1] for r in range(16)]
    nonzero = [(r, c) for r, c in enumerate(col) if not c.is_zero]
    assert nonzero == [(1 * 4 + 1, A.base.one())]


def test_rank_one_corner():
    C = base_ring(QQ)
    H = sweedler_h4(QQ)
    one = C.one()
    A = ComoduleAlgebra(C, H, ("1",), {(0, 0): {0: one}}, {0: one},
                        {0: {(0, 0): one}})
    M = ref.entries(A, canonical_matrix(A))
    assert len(M) == 4 and all(len(row) == 1 for row in M)
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
    assert is_galois(push_forward(f, A)).det == f(is_galois(A).det)
    assert verify_bundle(left).ok


def test_push_forward_wrong_source_rejected():
    C = laurent_ring(QQ, "u")
    D = polynomial_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    f = BaseMorphism(D, D, {"u": D.gen("u")})
    with pytest.raises(RingMismatchError):
        push_forward(f, A)


@st.composite
def _base_changes(draw):
    """(f, x, substituted): a morphism from K[x, z^+-1, r | r^n = z] to
    K[s, w^+-1, v | v^m = w] with r -> a v^j w^k, z -> (a v^j w^k)^n and x
    -> a drawn element, an element x of the source, and f(x) computed in
    the target by substitution with BaseElement arithmetic."""
    K = draw(st.sampled_from([QQ, PrimeField(5), F7]))
    n, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    C0, T0 = base_ring(K).add_free("x").add_laurent("z"), base_ring(K).add_free("s").add_laurent("w")
    C, _, _ = adjoin_root(C0, C0.gen("z"), n, "r")
    T, _, v = adjoin_root(T0, T0.gen("w"), m, "v")
    scalar = st.integers(1, 4).map(K.from_int)  # nonzero in each field

    def element(R, ranges):
        monos = draw(st.lists(st.tuples(*map(st.sampled_from, ranges)), max_size=4, unique=True))
        return R.element({mono: draw(scalar) for mono in monos})
    root = T.from_scalar(draw(scalar)) * v ** draw(st.integers(0, m - 1)) * (
        T.gen("w") ** draw(st.integers(-2, 2)))
    images = {"x": element(T, [range(3), range(-2, 3), range(m)]), "z": root ** n, "r": root}
    f = BaseMorphism(C, T, images)
    x = element(C, [range(3), range(-2, 3), range(n)])
    substituted = T.zero()
    for mono, c in x.coeffs.items():
        term = T.from_scalar(c)
        for g, e in zip(C.gens, mono):
            term = term * images[g.name] ** e
        substituted = substituted + term
    return f, x, substituted


@settings(max_examples=60, deadline=None)
@given(_base_changes(), st.data())
def test_base_change_is_substitution(case, data):
    """``apply`` on a coefficient dict is substitution of the generator
    images, and push_forward maps every table entry c to f(c)."""
    f, x, substituted = case
    C = f.source
    assert f.apply(x.coeffs) == substituted.coeffs
    assert f(x) == substituted
    alpha = C.gen("z") ** data.draw(st.integers(-2, 2)) * C.gen("r")
    A = abg_bundle(AbgParams(C, alpha, x, x * C.gen("x") + 1))
    B = push_forward(f, A)

    def image(row):
        return {k: v for k, c in row.items() if (v := f(BaseElement(C, c)).coeffs)}
    for got, table in ((B.mult, A.mult), (B.coaction, A.coaction)):
        assert got == {key: v for key, row in table.items() if (v := image(row))}
    assert B.unit == image(A.unit)


def test_push_forward_builds_no_base_element(monkeypatch):
    """Base change maps the coefficient dicts a record holds: the three
    push-forwards of a Kummer witness wrap no entry in a BaseElement."""
    _, w = kummer_trivialization_witness(5, F241.from_int(87), F241)
    built = []
    init = BaseElement.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(BaseElement, "__init__", spy)
    pushed = [push_forward(w.step.morphism, w.at_zero),
              push_forward(w.interval.at_zero, w.family),
              push_forward(w.interval.at_one, w.family)]
    assert built == []
    monkeypatch.undo()
    assert all(verify_bundle(B).ok for B in pushed)


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


def test_check_iso_refuses_a_matrix_over_another_ring():
    # Q[v] has as many generators as Q[u], so its entries' coefficient dicts
    # would read as elements of Q[u]
    A = trivial_bundle(polynomial_ring(QQ, "u"), sweedler_h4(QQ))
    with pytest.raises(RingMismatchError):
        check_iso(A, A, identity_matrix(polynomial_ring(QQ, "v"), A.dim))


def _bialgebra(H):
    return Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)


@pytest.mark.parametrize("H", [sweedler_h4(QQ), taft(3, 2, F7), dual_hopf(taft(3, 2, F7))],
                         ids=repr)
def test_trivial_cleaving_inverse_is_antipode(H):
    """The convolution inverse of the identity cleaving of C (x) H is S:
    the closed-form antipode and the one solve_antipode recovers, on the
    generators (Sweedler, Taft) or on the whole basis (the dual, whose 1 is
    a sum of basis elements)."""
    C = base_ring(H.field)
    A = trivial_bundle(C, H)
    gamma = HModuleMap(A, tuple({k: C.one()} for k in range(H.dim)))
    inv = convolution_invert(gamma)
    for S in (H.antipode, solve_antipode(_bialgebra(H))):
        assert inv == HModuleMap(A, tuple(
            {i: C.from_scalar(c) for i, c in S.get(k, {}).items()} for k in range(H.dim)))
    e = unit_counit_map(A)
    assert convolve(gamma, inv) == e
    assert convolve(inv, gamma) == e


def test_antipode_and_cleaving_inverse_share_one_solve(monkeypatch):
    """solve_antipode and convolution_invert both set up their system in
    axioms.solve_convolution: the first over the field, the second over the
    base ring."""
    calls = []

    def spy(*args):
        calls.append(args[0])
        return solve(*args)
    solve = axioms.solve_convolution
    monkeypatch.setattr(axioms, "solve_convolution", spy)
    H = taft(3, 2, F7)
    assert solve_antipode(_bialgebra(H)) == H.antipode
    assert len(calls) == 1 and calls[0].zero == F7.zero()  # the field's Ops
    C = base_ring(F7)
    A = trivial_bundle(C, H)
    convolution_invert(HModuleMap(A, tuple({k: C.one()} for k in range(H.dim))))
    assert len(calls) == 2 and calls[1] is A.ops


def test_convolution_invert_over_laurent_base():
    C = laurent_ring(QQ, "u")
    u = C.gen("u")
    A = c2_root_bundle(C, u)
    # gamma(1) = 1, gamma(g) = v; inverse must send g to v/u since v^2 = u
    gamma = HModuleMap(A, ({0: C.one()}, {1: C.one()}))
    inv = convolution_invert(gamma)
    assert ref.elements(C, inv.values[0]) == {0: C.one()}
    assert ref.elements(C, inv.values[1]) == {1: C.inverse(u)}


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


def test_the_ring_layer_of_linalg_computes_on_coefficient_dicts(monkeypatch):
    """The Galois determinant, a bundle isomorphism, a convolution inverse
    and a unit test under a root hand linalg coefficient dicts as they are
    and get dicts back: every entry reaching the elimination kernel, and
    every entry and result at the ring entry points, is a dict."""
    entries, results, eliminations = [], [], []
    eliminate = linalg._eliminate

    def spying(rows, ops, *rest):
        eliminations.append(len(rows))
        entries.extend(x for row in rows for x in row.values())
        return eliminate(rows, ops, *rest)
    monkeypatch.setattr(linalg, "_eliminate", spying)

    def recording(f):
        def entry_point(M, *rest):
            entries.extend(x for row in M
                           for x in (row.values() if isinstance(row, dict) else row))
            out = f(M, *rest)
            results.extend([] if out is None else out if isinstance(out, list) else [out])
            return out
        return entry_point
    for module, name in ((galois, "ring_det"), (comod, "ring_det"), (comod, "_solve"),
                         (linalg, "_solve")):  # the root unit test solves in linalg.regular
        monkeypatch.setattr(module, name, recording(getattr(module, name)))

    C = laurent_ring(QQ, "u")
    A = c2_root_bundle(C, C.gen("u"))
    L = laurent_ring(F7, "z")
    R, _, r = adjoin_root(L, L.gen("z"), 2, name="r")  # r^2 = z, so r^-1 = r z^-1
    runs = (lambda: is_galois(A).ok,
            lambda: check_iso(A, A, identity_matrix(C, A.dim)).ok,
            lambda: convolution_invert(HModuleMap(A, ({0: C.one()}, {1: C.one()}))) is not None,
            lambda: R.try_inverse(r) == r * R.gen("z") ** -1)
    for run in runs:
        before = len(eliminations)
        assert run()
        assert len(eliminations) > before
    assert entries and all(type(x) is dict for x in entries)
    assert results and all(type(x) is dict for x in results)


# --------------------------------------------------------------------------
# a bundle's tables hold coefficient dicts, read by the checks as they are
# --------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: kummer_bundle(4, PrimeField(241).from_int(64), PrimeField(241)),  # 64^2 = -1
    lambda: abg_bundle(AbgParams(base_ring(QQ), 3, 5, 7))], ids=["kummer4", "abg"])
def test_the_checks_read_the_bundles_own_tables(build, monkeypatch):
    """verify_comodule_algebra and check_iso hand A's and B's tables to the
    axiom checker as the records hold them, with no copy; B's coaction is
    handed as a lookup that yields the entries of B's own table.  A holds
    its verdict, so check_iso scans only B's associativity."""
    A, B = build(), build()
    calls = []
    for name in ("associativity", "comodule_map"):
        def spy(*args, _check=getattr(axioms, name), _name=name):
            calls.append((_name, args))
            return _check(*args)
        monkeypatch.setattr(axioms, name, spy)

    def tables(name, i):
        return [id(args[i]) for called, args in calls if called == name]
    assert verify_comodule_algebra(A).ok
    # H's own associativity is checked on H's table, A's on A's
    assert id(A.mult) in tables("associativity", 2)
    assert set(tables("associativity", 2)) <= {id(A.mult), id(A.hopf.mult)}
    # coassociativity: rho is the map, and A's coaction the source's
    assert tables("comodule_map", 2) == tables("comodule_map", 3) == [id(A.coaction)]
    calls.clear()
    assert check_iso(A, B, identity_matrix(A.base, A.dim)).ok
    assert tables("associativity", 2) == [id(B.mult)]
    assert tables("comodule_map", 3) == [id(A.coaction)]
    bcoact, = [args[4] for called, args in calls if called == "comodule_map"]
    assert all(v is B.coaction[p][key] for p in range(B.dim) for key, v in bcoact(p))
    assert sum(len(list(bcoact(p))) for p in range(B.dim)) == sum(map(len, B.coaction.values()))


def test_each_algebra_is_scanned_once(monkeypatch):
    """verify_bundle and verify_witness on seed-0 kummer.json scan each
    table's associativity at most once: each record holds its verdict, so
    the norm route, the coaction's premise on H and check_iso's premises
    read the verdicts already found."""
    doc = load_document(str(SEED0 / "bundle-towers" / "kummer.json"))
    scanned, keep = {}, []

    def spy(ops, n, mult, tree=None, _check=axioms.associativity):
        keep.append(mult)  # so that no id is reused while counting
        scanned[id(mult)] = scanned.get(id(mult), 0) + 1
        return _check(ops, n, mult, tree)
    monkeypatch.setattr(axioms, "associativity", spy)
    for run, obj in ((verify_bundle, doc.bundles["K10"]),
                     (verify_witness, doc.witnesses["w10"])):
        scanned.clear()
        assert run(obj).ok
        assert scanned and max(scanned.values()) == 1, (run, sorted(scanned.values()))


def _bundles():
    """A bundle with the cleavings that the library certifies on it, if any."""
    def abg(t):
        A = abg_bundle(AbgParams(base_ring(QQ), *t))
        return A, [abg_cleaving(A).gamma_inv]

    def kummer(n):
        K = PrimeField(241)
        q = next(K.from_int(a) for a in range(2, 241) if K.has_order(K.from_int(a), n))
        return kummer_bundle(n, q, K), []

    def trivial(names):
        A = trivial_bundle(polynomial_ring(QQ, *names), sweedler_h4(QQ))
        cm = cleaving_of_twisted_product(A)
        return A, [cm.gamma, cm.gamma_inv]

    nonzero = st.integers(-4, 4).filter(bool)
    return st.one_of(st.tuples(nonzero, st.integers(-4, 4), st.integers(-4, 4)).map(abg),
                     st.sampled_from([2, 3, 4, 5, 6]).map(kummer),
                     st.sampled_from([(), ("u",), ("u", "v")]).map(trivial))


def _as_elements(C, vec):
    """vec as BaseElements of C, with a zero entry at an unused index."""
    return {**{k: BaseElement(C, c) for k, c in vec.items()}, -1: C.zero()}


@settings(deadline=None, max_examples=40)
@given(_bundles(), st.data())
def test_records_read_base_elements_at_the_edge(built, data):
    """A record built from BaseElement entries, with zeros and empty rows
    among them, equals and hashes equal to the one built from coefficient
    dicts; an entry of another ring is refused."""
    A, maps = built
    C, H = A.base, A.hopf

    def elements(table):
        return {**{key: _as_elements(C, row) for key, row in table.items()}, (-1, -1): {}}
    wrapped = ComoduleAlgebra(C, H, A.labels, elements(A.mult), _as_elements(C, A.unit),
                              elements(A.coaction))
    raw = ComoduleAlgebra(C, H, A.labels, dict(A.mult), dict(A.unit), dict(A.coaction))
    assert wrapped == raw == A and hash(wrapped) == hash(raw) == hash(A)
    assert wrapped.mult == A.mult and wrapped.coaction == A.coaction
    for f in maps:
        g = HModuleMap(A, tuple(_as_elements(C, v) for v in f.values))
        assert g == HModuleMap(A, f.values) == f and hash(g) == hash(f)

    other = C.add_free("extra")

    def foreign(vec):
        """vec with one entry lifted into another ring."""
        i = data.draw(st.sampled_from(sorted(vec, key=repr)))
        return {**vec, i: BaseElement(other, {m + (0,): c for m, c in vec[i].items()})}
    tables = {"mult": A.mult, "unit": A.unit, "coaction": A.coaction}
    name = data.draw(st.sampled_from(sorted(tables)))
    if name == "unit":
        tables["unit"] = foreign(A.unit)
    else:
        key = data.draw(st.sampled_from(sorted(tables[name], key=repr)))
        tables[name] = {**tables[name], key: foreign(tables[name][key])}
    with pytest.raises(RingMismatchError):
        ComoduleAlgebra(C, H, A.labels, **tables)
    for f in maps:
        k = data.draw(st.sampled_from([k for k, v in enumerate(f.values) if v]))
        values = list(f.values)
        values[k] = foreign(values[k])
        with pytest.raises(RingMismatchError):
            HModuleMap(A, tuple(values))


# --------------------------------------------------------------------------
# the Galois determinant as a norm over a commutative A, against the
# canonical matrix as the oracle
# --------------------------------------------------------------------------

F13, F241 = PrimeField(13), PrimeField(241)
SEED0 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "seed0"


def _of_order(K, N):
    return next(K.from_int(a) for a in range(2, K.p) if K.has_order(K.from_int(a), N))


def _canonical_det(A) -> dict:
    """det beta by the canonical-matrix route, which is_galois falls back to."""
    return linalg.ring_det(canonical_matrix(A), A.base)


def _norm_route(A):
    """det beta by the norm route, or None where is_galois falls back."""
    return galois._norm_det(A, galois._structure_columns(A))


@pytest.mark.parametrize("K, N", [(K, N) for K in (F241, F13) for N in range(2, 25)
                                  if (K.p - 1) % N == 0], ids=repr)
def test_the_norm_route_gives_the_canonical_determinant_on_kummer_bundles(K, N):
    A = kummer_bundle(N, _of_order(K, N), K)
    want = _canonical_det(A)
    assert _norm_route(A) == want
    assert is_galois(A).det.coeffs == want


def _stored_and_witness_bundles():
    """The seed-0 bundles and witness bundles, and a Kummer witness's at N = 8
    and 12 over F241: trivial bundles and families, on which elimination
    over A stalls, Kummer bundles, on which it does not, nongalois.json's B
    and the non-commutative ABG bundles."""
    out = []
    for name in ("kummer", "nongalois", "abg_uvw"):
        doc = load_document(str(SEED0 / "bundle-towers" / f"{name}.json"))
        out += [(f"{name}:{key}", B) for key, B in sorted(doc.bundles.items())]
        out += [(f"{name}:{key}.{end}", getattr(w, end)) for key, w in sorted(doc.witnesses.items())
                for end in ("family", "at_zero", "at_one")]
    for N in (8, 12):
        _, w = kummer_trivialization_witness(N, _of_order(F241, N), F241)
        out += [(f"witness{N}.{end}", getattr(w, end)) for end in ("family", "at_zero", "at_one")]
    return out


@pytest.mark.parametrize("name, A", _stored_and_witness_bundles(), ids=lambda x: x
                         if isinstance(x, str) else "")
def test_is_galois_gives_the_canonical_determinant_on_stored_bundles(name, A):
    """Whichever route runs, the determinant is the canonical one; the norm
    route answers only over a commutative A."""
    want = _canonical_det(A)
    assert is_galois(A).det.coeffs == want
    route = _norm_route(A)
    assert route in (None, want)
    if axioms.commutativity(A.dim, A.mult) is not None:
        assert route is None


def test_the_norm_route_falls_back_where_elimination_over_a_stalls():
    """The trivial bundle of a Kummer witness has no unit entry in X, and
    nongalois.json's B stalls too; the Kummer bundles do not."""
    _, w = kummer_trivialization_witness(8, _of_order(F241, 8), F241)
    B = load_document(str(SEED0 / "bundle-towers" / "nongalois.json")).bundles["B"]
    assert _norm_route(w.at_one) is None and _norm_route(w.family) is None
    assert _norm_route(B) is None
    assert _norm_route(w.at_zero) is not None


def _kummer4_with(mult=None, unit=None):
    A = kummer_bundle(4, _of_order(F241, 4), F241)
    return ComoduleAlgebra(A.base, A.hopf, A.labels, {**A.mult, **(mult or {})},
                           A.unit if unit is None else unit, A.coaction)


FIVE_Z = {0: {(1,): F241.from_int(5)}}  # 5z a_0 over F241[z^+-1]


@pytest.mark.parametrize("build, premise", [
    (lambda: _kummer4_with(mult={(1, 3): FIVE_Z, (3, 1): FIVE_Z}), "associativity"),
    (lambda: _kummer4_with(mult={(2, 2): FIVE_Z}), "associativity"),
    (lambda: _kummer4_with(unit={0: {(0,): F241.from_int(2)}}), "unit"),
], ids=["a1a3", "a2a2", "unit"])
def test_the_norm_route_needs_its_premises(build, premise, monkeypatch):
    """Each corrupted Kummer table over F241[z^+-1] stays commutative and
    breaks one premise; the norm route taken without it would give another
    determinant, so the canonical-matrix route runs."""
    A = build()
    assert axioms.commutativity(A.dim, A.mult) is None
    assert [c.ok for c in ref.verify_comodule_algebra(A).checks if c.name == premise] == [False]
    want = _canonical_det(A)
    assert _norm_route(A) is None
    assert is_galois(A).det.coeffs == want
    monkeypatch.setattr(axioms.Verdict, "ok", True)
    assert _norm_route(A) not in (None, want)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_corrupted_commutative_tables_keep_the_canonical_determinant(data):
    """A Kummer bundle over F241 or F13 with a product a_i a_j = a_j a_i, or
    its unit, replaced by a drawn vector: when the unit or associativity
    fails the norm route declines, and is_galois gives the canonical
    determinant."""
    K = data.draw(st.sampled_from((F241, F13)))
    N = data.draw(st.sampled_from((2, 3, 4, 6)))
    A = kummer_bundle(N, _of_order(K, N), K)
    C = A.base
    vector = st.dictionaries(st.integers(0, N - 1), st.tuples(
        st.integers(-2, 2), st.integers(1, K.p - 1)), min_size=1, max_size=2).map(
        lambda v: {l: {(e,): K.from_int(c)} for l, (e, c) in v.items()})
    mult, unit = dict(A.mult), A.unit
    if data.draw(st.booleans()):
        i, j = sorted(data.draw(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))))
        mult[(i, j)] = mult[(j, i)] = data.draw(vector)
    else:
        unit = data.draw(vector)
    bad = ComoduleAlgebra(C, A.hopf, A.labels, mult, unit, A.coaction)
    want = _canonical_det(bad)
    checks = {c.name: c.ok for c in ref.verify_comodule_algebra(bad).checks}
    if not (checks["unit"] and checks["associativity"]):
        assert _norm_route(bad) is None
    assert _norm_route(bad) in (None, want)
    assert is_galois(bad).det.coeffs == want
