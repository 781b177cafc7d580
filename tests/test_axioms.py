"""The table-based axiom checker against the basis-vector reference.

``reference_axioms`` keeps the verifiers written on basis vectors through
the public vector operations.  Every report of ``verify_hopf`` and
``verify_comodule_algebra`` must equal the reference's JSON exactly, on the
untouched inputs and after one structure constant is changed, added or
zeroed.  Zeroed entries stay in the tables as explicit zeros, so the
checker's dropping of zero coefficients is exercised too.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.bundles import AbgParams, abg_bundle, kummer_bundle
from hopfgal.cleft import Cocycle, trivial_cocycle, twisted_product
from hopfgal.comod import ComoduleAlgebra, verify_comodule_algebra
from hopfgal.document import load_document
from hopfgal.errors import NotAssociativeError
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.hopf import (
    HopfAlgebra,
    cyclic_group_algebra,
    dual_hopf,
    is_commutative_hopf,
    sweedler_h4,
    taft,
    verify_hopf,
)
from hopfgal.rings import base_ring, laurent_ring, polynomial_ring

import reference_axioms as ref

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
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        rows = [list(r) for r in antipode]
        rows[i][j] = zero if data.draw(st.booleans()) else value
        antipode = tuple(tuple(r) for r in rows)
    return HopfAlgebra(H.field, H.labels, mult, unit, comult, counit, antipode)


def _commutative_reference(H) -> bool:
    return all(H.mul_vec(H.basis_vec(i), H.basis_vec(j))
               == H.mul_vec(H.basis_vec(j), H.basis_vec(i))
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


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_corrupted_bundle_reports_match_reference(data):
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
    bad = ComoduleAlgebra(C, H, A.labels, mult, unit, coaction)
    assert verify_comodule_algebra(bad).to_json() == ref.verify_comodule_algebra(bad).to_json()


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
