"""Record, the base of the value objects: construction, equality, hashing,
immutability and repr, on small local classes and on the library's own."""

import pytest

from hopfgal.cleft import Cocycle
from hopfgal.comod import trivial_bundle
from hopfgal.document import Document
from hopfgal.errors import DimensionMismatchError
from hopfgal.fields import QQ, PrimeField
from hopfgal.galois import GaloisVerdict
from hopfgal.hopf import Bialgebra, HopfAlgebra, sweedler_h4
from hopfgal.record import Record
from hopfgal.report import Check, Report
from hopfgal.rings import FREE, Generator, base_ring


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
    # an explicit zero coefficient: unequal field by field, equal in normal form
    twin = HopfAlgebra(H.field, H.labels, {**H.mult, (0, 0): {**H.mult[(0, 0)], 1: QQ.zero()}},
                       H.unit, H.comult, H.counit, H.antipode)
    assert twin._astuple() != H._astuple()
    assert twin == H and hash(twin) == hash(H)
    assert hash(H) == hash((H.field, H.labels, H.antipode))
    assert repr(H) == "<HopfAlgebra dim 4 over Q>"
    B = Bialgebra(H.field, H.labels, H.mult, H.unit, H.comult, H.counit)
    assert hash(B) == hash((H.field, H.labels))
    assert B == H  # Bialgebra.__eq__ accepts any Bialgebra, subclasses included


def test_repr_lists_the_fields_in_order():
    assert repr(Point3(1, 2, 3)) == "Point3(x=1, y=2, z=3)"
    assert repr(Generator("u", FREE)) == "Generator(name='u', kind='free', degree=0, grade=0)"
    assert repr(Check("c", False, "w")) == "Check(name='c', ok=False, witness='w')"
