"""Record, the base of the value objects: construction, equality, hashing,
immutability and repr, on small local classes and on the library's own."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.cleft import Cocycle, trivial_cocycle
from hopfgal.comod import ComoduleAlgebra, HModuleMap, check_iso, trivial_bundle, unit_counit_map
from hopfgal.document import Document
from hopfgal.bundles import AbgParams
from hopfgal.errors import DimensionMismatchError, RingMismatchError
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import GaloisVerdict, canonical_matrix
from hopfgal.homotopy import HomotopyWitness, cleft_trivialization_witness
from hopfgal.hopf import Bialgebra, HopfAlgebra, cyclic_group_algebra, sweedler_h4, taft
from hopfgal.record import Record
from hopfgal.report import Check, Report
from hopfgal.rings import FREE, Generator, base_ring, polynomial_ring


class Point(Record, frozen=True):
    x: int
    y: int = 0


class Pair(Record, frozen=True):
    x: int
    y: int = 0


class Point3(Point, frozen=True):
    z: int = 0

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("negative z")


class Bag(Record):
    name: str
    items: list = []
    index: dict = {}


def test_construction_by_position_keyword_and_default():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
    assert Point(5).y == 0
    assert Point3(1, 2, 3)._astuple() == (1, 2, 3)
    assert Point3(1, z=4) == Point3(1, 0, 4)
    assert Point3._fields == ("x", "y", "z")
    assert HopfAlgebra._fields == Bialgebra._fields + ("antipode",)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"w": 2})])
def test_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_post_init_runs_after_the_fields_are_set():
    with pytest.raises(ValueError, match="negative z"):
        Point3(1, 2, -1)
    H = sweedler_h4(QQ)
    with pytest.raises(DimensionMismatchError):
        Cocycle(base_ring(QQ), H, ((QQ.one(),),))


def test_equal_objects_hash_equal():
    assert hash(Point(1, 2)) == hash(Point(1, 2))
    a, b = Generator("u", FREE, grade=2), Generator("u", FREE, 0, 2)
    assert a == b and hash(a) == hash(b)
    assert len({GaloisVerdict("galois"), GaloisVerdict("galois", None)}) == 1
    R = base_ring(QQ).add_free("u")
    assert hash(trivial_bundle(R, sweedler_h4(QQ))) == hash(trivial_bundle(R, sweedler_h4(QQ)))


F7 = PrimeField(7)
HOPFS = [sweedler_h4(QQ), sweedler_h4(F7), taft(3, 2, F7), cyclic_group_algebra(3, QQ)]


def _padded(data, table, rows, cols, zero):
    """A copy of table with explicit zeros and empty rows drawn into it."""
    out = {key: dict(row) for key, row in table.items()}
    for key in data.draw(st.lists(rows, max_size=3)):
        out.setdefault(key, {})
    for key, col in data.draw(st.lists(st.tuples(rows, cols), max_size=4)):
        out.setdefault(key, {}).setdefault(col, zero)
    return out


def _padded_vec(data, vec, cols, zero):
    return _padded(data, {0: vec}, st.just(0), cols, zero)[0]


def _assert_equal_objects_hash_equal(pool):
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HOPFS), st.data())
def test_equal_structure_records_hash_equal(H, data):
    """Explicit zeros and empty rows do not count: a padded twin equals the
    record and hashes equal; a Bialgebra never equals a HopfAlgebra."""
    K, d = H.field, H.dim
    idx = st.integers(0, d - 1)
    pair = st.tuples(idx, idx)
    z = K.zero()
    tables = (_padded(data, H.mult, pair, idx, z), _padded_vec(data, H.unit, idx, z),
              _padded(data, H.comult, idx, pair, z), _padded_vec(data, H.counit, idx, z))
    twin = HopfAlgebra(K, H.labels, *tables, _padded(data, H.antipode, idx, idx, z))
    B = Bialgebra(K, H.labels, *tables)
    B0 = Bialgebra(K, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert twin == H and B == B0 and B != H and H != B

    R = polynomial_ring(K, "u")
    A = trivial_bundle(R, H)
    zr = R.zero()
    A2 = ComoduleAlgebra(R, twin, A.labels, _padded(data, A.mult, pair, idx, zr),
                         _padded_vec(data, A.unit, idx, zr),
                         _padded(data, A.coaction, idx, pair, zr))
    e = unit_counit_map(A)
    e2 = HModuleMap(A2, tuple(_padded_vec(data, v, idx, zr) for v in e.values))
    sigma = trivial_cocycle(R, H)
    sigma2 = Cocycle(R, twin, tuple(tuple(R.element(dict(c.coeffs)) for c in row)
                                    for row in sigma.sigma))
    M, M2 = canonical_matrix(A), canonical_matrix(A2)
    assert A2 == A and e2 == e and sigma2 == sigma and M2 == M

    n = data.draw(st.integers(-8, 8))
    x = R.from_int(n)
    assert x != n and x != n + 7  # a BaseElement never equals an int
    _assert_equal_objects_hash_equal([H, twin, B, B0, A, A2, e, e2, sigma, sigma2, x, n, n + 7])


def test_equality_needs_the_same_class():
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2) != Point3(1, 2)
    assert Point(1, 2).__eq__((1, 2)) is NotImplemented
    assert Point(1, 2) != Point(2, 1)


def test_frozen_records_refuse_assignment_and_deletion():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 3
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(AttributeError):
        Generator("u", FREE).grade = 1
    assert p == Point(1, 2)


def test_mutable_records_are_unhashable_and_assignable():
    for obj in (Document(QQ), Report("r"), Check("c", True)):
        with pytest.raises(TypeError):
            hash(obj)
    rep = Report("old")
    rep.title = "new"
    assert rep.title == "new"


def test_list_and_dict_defaults_are_fresh_per_instance():
    a, b = Report("a"), Report("b")
    a.add("check", True)
    a.nest(Report("sub"))
    assert b.checks == [] and b.subreports == []
    d, e = Document(QQ), Document(PrimeField(5))
    d.rings["C"] = base_ring(QQ)
    assert e.rings == {} and Document(QQ).rings == {}
    x, y = Bag("x"), Bag("y")
    x.items.append(1)
    x.index[1] = 2
    assert (y.items, y.index) == ([], {})
    assert Bag.items == [] and Bag.index == {}


def test_methods_written_in_the_class_body_win():
    H = sweedler_h4(QQ)
    # an explicit zero coefficient is dropped when the record is built
    twin = HopfAlgebra(H.field, H.labels, {**H.mult, (0, 0): {**H.mult[(0, 0)], 1: QQ.zero()}},
                       H.unit, H.comult, H.counit, H.antipode)
    assert twin._astuple() == H._astuple()
    assert twin == H and hash(twin) == hash(H)
    # Record's hash would hash the dict fields; Bialgebra's hash and
    # HopfAlgebra's own repr win
    with pytest.raises(TypeError):
        Record.__hash__(H)
    assert hash(H) == hash((H.field, H.labels))
    assert repr(H) == "<HopfAlgebra dim 4 over Q>"
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert hash(B) == hash((H.field, H.labels))
    assert B != H and H != B  # equality holds only between instances of one class


def test_repr_lists_the_fields_in_order():
    assert repr(Point3(1, 2, 3)) == "Point3(x=1, y=2, z=3)"
    assert repr(Generator("u", FREE)) == "Generator(name='u', kind='free', degree=0, grade=0)"
    assert repr(Check("c", False, "w")) == "Check(name='c', ok=False, witness='w')"


# Every table of every record, with each index position it has: (record,
# table, position, the bound of that index, the record built with the bad
# index b at that position).  The bundle has rank 4 over a 2-dimensional H,
# so an H index of 2 lies below the rank and must still be refused.
H4 = sweedler_h4(QQ)
R_U = polynomial_ring(QQ, "u")
H2 = cyclic_group_algebra(2, QQ)
A4 = trivial_bundle(R_U, H4)
A42 = ComoduleAlgebra(R_U, H2, A4.labels, A4.mult, A4.unit,
                      {i: {(i, 0): R_U.one()} for i in range(4)})


def _hopf_with(record, table, row):
    """record built from H4's tables with ``row`` merged into ``table``."""
    tables = {"mult": H4.mult, "unit": H4.unit, "comult": H4.comult, "counit": H4.counit}
    if record is HopfAlgebra:
        tables["antipode"] = H4.antipode
    tables[table] = {**tables[table], **row}
    return record(QQ, H4.labels, **tables)


def _bundle_with(table, row):
    tables = {"mult": A42.mult, "unit": A42.unit, "coaction": A42.coaction}
    tables[table] = {**tables[table], **row}
    return ComoduleAlgebra(R_U, H2, A42.labels, **tables)


ONE, R_ONE = QQ.one(), R_U.one()
HOPF_PLACES = [
    ("mult", "key 0", lambda b: {(b, 0): {0: ONE}}),
    ("mult", "key 1", lambda b: {(0, b): {0: ONE}}),
    ("mult", "value", lambda b: {(0, 0): {b: ONE}}),
    ("unit", "key", lambda b: {b: ONE}),
    ("comult", "key", lambda b: {b: {(0, 0): ONE}}),
    ("comult", "value 0", lambda b: {0: {(b, 0): ONE}}),
    ("comult", "value 1", lambda b: {0: {(0, b): ONE}}),
    ("counit", "key", lambda b: {b: ONE}),
]
OUT_OF_RANGE = [
    *((f"{rec.__name__}.{table} {where}", 4, lambda b, rec=rec, t=table, r=row: _hopf_with(rec, t, r(b)))
      for rec in (Bialgebra, HopfAlgebra) for table, where, row in HOPF_PLACES),
    ("HopfAlgebra.antipode key", 4, lambda b: _hopf_with(HopfAlgebra, "antipode", {b: {0: ONE}})),
    ("HopfAlgebra.antipode value", 4, lambda b: _hopf_with(HopfAlgebra, "antipode", {0: {b: ONE}})),
    ("ComoduleAlgebra.mult key 0", 4, lambda b: _bundle_with("mult", {(b, 0): {0: R_ONE}})),
    ("ComoduleAlgebra.mult key 1", 4, lambda b: _bundle_with("mult", {(0, b): {0: R_ONE}})),
    ("ComoduleAlgebra.mult value", 4, lambda b: _bundle_with("mult", {(0, 0): {b: R_ONE}})),
    ("ComoduleAlgebra.unit key", 4, lambda b: _bundle_with("unit", {b: R_ONE})),
    ("ComoduleAlgebra.coaction key", 4, lambda b: _bundle_with("coaction", {b: {(0, 0): R_ONE}})),
    ("ComoduleAlgebra.coaction A index", 4,
     lambda b: _bundle_with("coaction", {0: {(b, 0): R_ONE}})),
    ("ComoduleAlgebra.coaction H index", 2,
     lambda b: _bundle_with("coaction", {0: {(0, b): R_ONE}})),
    ("HModuleMap.values value", 4, lambda b: HModuleMap(A42, ({b: R_ONE.coeffs}, {}))),
]


@pytest.mark.parametrize("bad", ["n", -1])
@pytest.mark.parametrize("build", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_every_table_index_is_range_checked_when_the_record_is_built(build, bad):
    """An index n or -1, for n its bound, as a key or as a value, is
    refused by the constructor, so no check or writer reads past a basis;
    the same record with the index 0 there builds."""
    n, make = build
    make(0)
    with pytest.raises(DimensionMismatchError, match=" index out of range"):
        make(n if bad == "n" else bad)


def test_a_cocycle_entry_of_another_ring_is_refused():
    """A Q[v] value in a cocycle over Q[u], with as many generators, used to
    be read as the same polynomial in u."""
    R_V = polynomial_ring(QQ, "v")
    rows = [list(row) for row in trivial_cocycle(R_U, H4).sigma]
    rows[1][1] = R_V.gen("v")
    with pytest.raises(RingMismatchError):
        Cocycle(R_U, H4, tuple(map(tuple, rows)))
    sigma = trivial_cocycle(R_U, H4)
    assert sigma.table == {(a, b): c.coeffs for a, row in enumerate(sigma.sigma)
                           for b, c in enumerate(row) if c.coeffs}


@pytest.mark.parametrize("entry", [1, 0, "1", 2.0], ids=repr)
def test_an_entry_that_is_no_element_of_the_base_is_refused(entry):
    """A table over a base ring holds coefficient dicts or BaseElements of
    it; any other entry of a bundle, a map from H, a cocycle or
    ``check_iso``'s matrix is refused by name when it is read, not met
    later by the arithmetic, nor dropped when it is a false 0."""
    refused = pytest.raises(RingMismatchError, match=f"entry {entry!r} is not an element of ")
    with refused:
        ComoduleAlgebra(R_U, H4, A4.labels, {**A4.mult, (1, 1): {0: entry}}, A4.unit,
                        A4.coaction)
    with refused:
        HModuleMap(A4, ({0: entry}, {}, {}, {}))
    rows = [list(row) for row in trivial_cocycle(R_U, H4).sigma]
    rows[1][1] = entry
    with refused:
        Cocycle(R_U, H4, tuple(map(tuple, rows)))
    with refused:
        check_iso(A4, A4, [[entry if i == j else R_U.zero() for j in range(4)]
                           for i in range(4)])


def test_a_witness_and_a_cocycle_freeze_their_matrices():
    """Given lists, each holds tuples, so it equals and hashes like the
    record given tuples."""
    w = cleft_trivialization_witness(AbgParams(base_ring(QQ), 4, 1, 4)).links[0][0]
    lists = HomotopyWitness(w.step, w.family, w.at_zero, w.at_one,
                            [list(row) for row in w.iso_zero], list(map(list, w.iso_one)))
    assert lists == w and hash(lists) == hash(w)
    assert type(lists.iso_zero) is tuple and all(type(row) is tuple for row in lists.iso_one)
    sigma = trivial_cocycle(R_U, H4)
    listed = Cocycle(R_U, H4, [list(row) for row in sigma.sigma])
    assert listed == sigma and hash(listed) == hash(sigma)
