"""The library's frozen records, built by `errors.record` instead of
`dataclasses`: construction, `__post_init__`, immutability, repr and the
instance `__dict__` that cached properties fill."""

import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ulset
from ulset import (
    NU,
    ExtReal,
    FunctionalHandle,
    HalfSpace,
    MonotoneCone,
    OrderCone,
    PointCloud,
    Polyhedron,
    Strategy,
    make_handle,
)
from ulset import analysis, errors, evaluator, geometry, scalarization
from ulset.evaluator import DEFAULT_T_MAX, DEFAULT_TOL

SRC = Path(ulset.__file__).parent


def _records():
    return {name: cls for mod in (geometry, evaluator, scalarization, analysis)
            for name, cls in vars(mod).items()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            and cls.__setattr__ is errors._assign}


RECORDS = sorted(_records())


def _mirror(cls):
    """The frozen dataclass of cls's fields and defaults."""
    fields = [(name, object, dataclasses.field(default=vars(cls)[name]))
              if name in vars(cls) else name for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, eq=False)


def _samples():
    """One instance of every record, by the module that defines it."""
    h = make_handle(Polyhedron((HalfSpace([1.0, 0.0], 0.5), HalfSpace([0.0, 1.0], 0.0))),
                    [1.0, 1.0])
    cloud = PointCloud([[1.0, 2.0], [0.5, 3.0]], labels=("a", "b"))
    return {
        "HalfSpace": h.set.halfspaces[0],
        "Polyhedron": h.set,
        "SetUnion": ulset.SetUnion((h.set,)),
        "SetIntersection": ulset.SetIntersection((h.set, h.set)),
        "Shift": ulset.Shift(h.set, [1.0, -1.0]),
        "ComplementClosure": ulset.ComplementClosure(h.set),
        "ExtReal": ExtReal.finite(1.5),
        "FunctionalHandle": h,
        "PointCloud": cloud,
        "OrderCone": OrderCone.nonneg(2),
        "MonotoneCone": MonotoneCone((np.array([1.0, 0.0]),)),
        "PropertyReport": analysis.check_sublevel_identity(h, 20, 0),
        "SeparationVerdict": analysis.separate(h, cloud),
        "LipschitzEstimate": analysis.estimate_lipschitz(h),
    }


def test_every_record_has_a_sample():
    assert sorted(_samples()) == RECORDS


class TestConstruction:
    def test_defaults(self):
        h = make_handle(Polyhedron((HalfSpace([1.0], 0.0),)), [1.0])
        fh = FunctionalHandle(h.set, h.k, Strategy.CLOSED_FORM)
        assert (fh.t_max, fh.tol) == (DEFAULT_T_MAX, DEFAULT_TOL)
        assert PointCloud([[1.0]]).labels is None
        assert OrderCone(Polyhedron((HalfSpace([-1.0], 0.0),))).generators is None

    def test_positional_and_keyword(self):
        h = make_handle(Polyhedron((HalfSpace([1.0], 0.0),)), [1.0])
        by_position = FunctionalHandle(h.set, h.k, Strategy.BISECTION, 5.0, 1e-6)
        by_keyword = FunctionalHandle(tol=1e-6, strategy=Strategy.BISECTION, t_max=5.0,
                                      k=h.k, set=h.set)
        for fh in (by_position, by_keyword):
            assert fh.set is h.set and fh.k.tolist() == h.k.tolist()
            assert (fh.strategy, fh.t_max, fh.tol) == (Strategy.BISECTION, 5.0, 1e-6)
        assert PointCloud([[1.0], [2.0]], ["x", 3]).labels == ("x", "3")
        rep = Polyhedron((HalfSpace([-1.0], 0.0),))
        assert np.array_equal(OrderCone(rep, generators=[[2.0]]).generators[0], [2.0])

    @pytest.mark.parametrize("cls, args, kwargs", [
        (HalfSpace, (), {}),
        (HalfSpace, ([1.0, 0.0],), {}),
        (HalfSpace, ([1.0, 0.0], 0.0), {"c": 1}),
        (HalfSpace, ([1.0, 0.0], 0.0, 1), {}),
        (HalfSpace, ([1.0, 0.0],), {"a": [0.0, 1.0]}),
        (FunctionalHandle, (), {"tol": 1.0}),
        (FunctionalHandle, (None,) * 6, {}),
        (ExtReal, (), {}),
        (ExtReal, (1.0, 2.0), {}),
    ], ids=["none", "missing", "unknown", "too_many", "twice", "three_missing",
            "too_many_with_defaults", "ext_missing", "ext_too_many"])
    def test_bad_arguments_raise_the_dataclass_type_error(self, cls, args, kwargs):
        mirror = _mirror(cls)
        with pytest.raises(TypeError) as expected:
            mirror(*args, **kwargs)
        with pytest.raises(TypeError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("name", RECORDS)
    def test_signature_is_the_dataclass_signature(self, name):
        """__init__ takes the fields by name, with their defaults, as the
        dataclass's does, annotations aside, and belongs to the class's
        module."""
        def params(cls):
            return [p.replace(annotation=inspect.Parameter.empty)
                    for p in inspect.signature(cls).parameters.values()]

        cls = _records()[name]
        assert params(cls) == params(_mirror(cls))
        assert cls.__init__.__module__ == cls.__module__

    def test_post_init_normalises(self):
        p = Polyhedron([HalfSpace([1.0, 0.0], 1)])
        assert isinstance(p.halfspaces, tuple)
        assert type(p.halfspaces[0].b) is float
        assert p.halfspaces[0].a.flags.writeable is False


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_refused(name):
    record = _samples()[name]
    field = next(iter(type(record).__annotations__))
    before = vars(record).copy()
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert vars(record).keys() == before.keys()


@pytest.mark.parametrize("name", [n for n in RECORDS if n != "ExtReal"])
def test_repr_is_the_dataclass_text(name):
    record = _samples()[name]
    fields = list(type(record).__annotations__)
    mirror = dataclasses.make_dataclass(name, fields, frozen=True, eq=False)
    assert repr(record) == repr(mirror(**{f: getattr(record, f) for f in fields}))


def test_own_repr_kept():
    assert (repr(ExtReal.finite(1.5)), repr(NU)) == ("ExtReal.finite(1.5)", "NU")


def test_equality_is_identity():
    a, b = HalfSpace([1.0, 0.0], 0.0), HalfSpace([1.0, 0.0], 0.0)
    assert a == a and a != b
    assert len({a, b}) == 2
    assert ExtReal.finite(1.0) == ExtReal.finite(1.0)  # ExtReal defines its own


def test_reports_compare_and_hash_by_value():
    """PropertyReport keeps the value equality and hash of the frozen
    dataclass it was."""
    fields = list(analysis.PropertyReport.__annotations__)
    mirror = dataclasses.make_dataclass("PropertyReport", fields, frozen=True)
    values = ("sublevel", analysis.HOLDS, None, 0.0, 20, 0, 20)
    a, b = analysis.PropertyReport(*values), analysis.PropertyReport(*values)
    other = analysis.PropertyReport(*values[:-1], 19)
    assert (a == b, a != b, a == other, a == values) == (True, False, False, False)
    assert hash(a) == hash(b) == hash(mirror(*values))
    assert len({a, b, other}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(analysis.PropertyReport(*values[:2], {"inputs": {}}, *values[3:]))


def test_cached_properties_stored_on_the_instance():
    h = make_handle(Polyhedron((HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], 0.0))),
                    [1.0, 1.0])
    p = h.set
    assert p.normals is p.normals and "normals" in vars(p)
    assert p.plan is p.plan and "plan" in vars(p)
    assert h.motions is h.motions and "motions" in vars(h)
    assert h.cert is h.cert and "cert" in vars(h)
    assert h.interior is h.interior and "interior" in vars(h)


def _traced_bytes_each(make, n=20_000) -> float:
    """Bytes tracemalloc counts per object make(i) builds, the list that
    holds them excluded."""
    held = [None] * n
    tracemalloc.start()
    try:
        for i in range(n):
            held[i] = make(i)
        return tracemalloc.get_traced_memory()[0] / n
    finally:
        tracemalloc.stop()


def test_records_take_no_more_memory_than_plain_objects():
    """A record's instance keeps the key-sharing __dict__ that a plain
    class's gets from assigning its fields in __init__. A byte an instance
    of slack absorbs one-off allocations, such as a cache a first call fills."""

    @errors.record
    class Pair:
        x: object
        y: object = None

    class PlainPair:
        def __init__(self, x, y=None):
            self.x, self.y = x, y

    class PlainExtReal:
        def __init__(self, key):
            self._key = key

    keys = [float(i) + 0.5 for i in range(20_000)]
    assert _traced_bytes_each(lambda i: Pair(keys[i], keys[i])) <= _traced_bytes_each(
        lambda i: PlainPair(keys[i], keys[i])) + 1
    assert _traced_bytes_each(lambda i: ExtReal(keys[i])) <= _traced_bytes_each(
        lambda i: PlainExtReal(keys[i])) + 1


def test_no_module_imports_dataclasses():
    """Every record is built by errors.record, not by dataclasses."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == []
