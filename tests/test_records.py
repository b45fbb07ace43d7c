"""Value semantics of the package's 9 record classes, pinned.

The expected reprs, equalities, hashes and errors were recorded on the
frozen-dataclass implementation these classes replaced, so every class
keeps them exactly: failure reports print reprs, and sets and dicts of
these values keep their order only while their hashes do.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from privcache.bitvec import Bits
from privcache.reference import DemandClass, SubsetIndex, classify
from privcache.scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    VVector,
)
from privcache.verify import VerificationReport
from privcache.yma import UVector


def build():
    """One fixed instance of each class, built afresh on every call."""
    params = SchemeParams(2, 2, 1, 6)
    d = AuxDemand((1, 0), 2)
    return {
        SubsetIndex: SubsetIndex((0, 2), 4),
        UVector: UVector((0, 1, 1), 2),
        SchemeParams: params,
        FileLibrary: FileLibrary(params, (Bits(0b101100, 6), Bits(0b010011, 6))),
        AuxDemand: d,
        VVector: VVector((1, 1, 1)),
        CacheContent: CacheContent(0, 1, (0, 2, 2), params),
        DeliverySignal: DeliverySignal(d, 2, (1, 2), params),
        VerificationReport: VerificationReport("demo", 3, [((0,), "1", "0")], 0.25),
    }


_PARAMS = "SchemeParams(num_files=2, num_users=2, r=1, file_bits=6)"
REPRS = {
    SubsetIndex: "SubsetIndex(members=(0, 2), universe=4)",
    UVector: "UVector(entries=(0, 1, 1), num_files=2)",
    SchemeParams: _PARAMS,
    FileLibrary: f"FileLibrary(params={_PARAMS}, files=(Bits('001101'), Bits('110010')))",
    AuxDemand: "AuxDemand(digits=(1, 0), num_files=2)",
    VVector: "VVector(bits=(1, 1, 1))",
    CacheContent: f"CacheContent(user=0, key=1, signals=(0, 2, 2), params={_PARAMS})",
    DeliverySignal: (
        "DeliverySignal(aux=AuxDemand(digits=(1, 0), num_files=2), t_d=2, segments=(1, 2), "
        f"params={_PARAMS})"
    ),
    VerificationReport: "VerificationReport(scope='demo', cases_run=3, failures=[((0,), '1', '0')], elapsed=0.25)",
}
FIELDS = {
    SubsetIndex: ("members", "universe"),
    UVector: ("entries", "num_files"),
    SchemeParams: ("num_files", "num_users", "r", "file_bits"),
    FileLibrary: ("params", "files"),
    AuxDemand: ("digits", "num_files"),
    VVector: ("bits",),
    CacheContent: ("user", "key", "signals", "params"),
    DeliverySignal: ("aux", "t_d", "segments", "params"),
    VerificationReport: ("scope", "cases_run", "failures", "elapsed"),
}
CLASSES = list(FIELDS)
FROZEN = [cls for cls in CLASSES if cls is not VerificationReport]
# every cached_property, read through a path that needs the plan where it does
CACHED = [
    (SchemeParams, "counts"),
    (SchemeParams, "plan"),
    (FileLibrary, "subfiles"),
    (AuxDemand, "selector"),
    (CacheContent, "signal_values"),
    (DeliverySignal, "segment_values"),
]


def fields_of(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def test_every_class_is_pinned():
    assert len(CLASSES) == 9 and len(FROZEN) == 8
    assert list(build()) == CLASSES == list(REPRS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_pinned(cls):
    assert repr(build()[cls]) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction_equals_positional(cls):
    obj = build()[cls]
    by_name = cls(**dict(zip(FIELDS[cls], fields_of(obj))))
    assert by_name == obj and by_name is not obj
    assert fields_of(by_name) == fields_of(obj)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_equal_instances_are_equal_and_hash_alike(cls):
    a, b = build()[cls], build()[cls]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields_of(a))
    assert len({a, b}) == 1
    assert a._values == tuple(getattr(a, name) for name in cls._fields)


@pytest.mark.parametrize("values", [(Fraction(1),), (Fraction(1), Fraction(2), Fraction(3))])
def test_a_store_of_the_wrong_length_raises(values):
    with pytest.raises(ValueError):
        object.__new__(UVector)._store(*values)


def _differing():
    """Per frozen class, an instance that differs from build()'s in one field."""
    params, d = SchemeParams(2, 2, 1, 6), AuxDemand((1, 0), 2)
    return {
        SubsetIndex: SubsetIndex((0, 3), 4),
        UVector: UVector((0, 1, 0), 2),
        SchemeParams: SchemeParams(2, 2, 1, 12),
        FileLibrary: FileLibrary(params, (Bits(0, 6), Bits(0b010011, 6))),
        AuxDemand: AuxDemand((1, 1), 2),
        VVector: VVector((1, 0, 1)),
        CacheContent: CacheContent(0, 0, (0, 2, 2), params),
        DeliverySignal: DeliverySignal(d, 2, (1, 3), params),
    }


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_instances_differing_in_one_field_are_unequal(cls):
    obj, other = build()[cls], _differing()[cls]
    assert obj != other and not obj == other


def _with_field(obj, name, value):
    """A copy of `obj` with one field set to `value`, past any validation."""
    values = dict(zip(FIELDS[type(obj)], fields_of(obj)), **{name: value})
    if isinstance(obj, VerificationReport):
        return VerificationReport(**values)
    copy = object.__new__(type(obj))
    copy._store(*(values[field] for field in type(obj)._fields))
    return copy


@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls in CLASSES for name in FIELDS[cls]], ids=lambda v: getattr(v, "__name__", v)
)
def test_equality_reads_every_field(cls, name):
    obj = build()[cls]
    assert _with_field(obj, name, getattr(obj, name)) == obj
    other = _with_field(obj, name, object())
    assert obj != other and other != obj and not obj == other


def test_classes_with_equal_fields_are_unequal():
    assert AuxDemand((0, 1), 2) != UVector((0, 1), 2)
    assert not AuxDemand((0, 1), 2) == UVector((0, 1), 2)
    objs = build()
    for a in objs.values():
        assert a.__eq__(object()) is NotImplemented
        assert a != fields_of(a)
        for b in objs.values():
            if type(a) is not type(b):
                assert a != b and not a == b


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_every_field_is_frozen(cls):
    obj = build()[cls]
    for name in FIELDS[cls]:
        value = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    assert repr(obj) == REPRS[cls]


@pytest.mark.parametrize("cls, name", CACHED, ids=lambda v: getattr(v, "__name__", v))
def test_cached_properties_are_computed_once(cls, name):
    obj = build()[cls]
    first = getattr(obj, name)
    assert getattr(obj, name) is first
    # the cached value joins neither equality, hash nor repr
    fresh = build()[cls]
    assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == REPRS[cls]


def test_cached_values_are_pinned():
    objs = build()
    assert objs[SchemeParams].counts == (3, 3, 0, 1)
    assert objs[AuxDemand].selector == (0, 1, 2)
    assert classify(objs[AuxDemand]) is DemandClass.D1
    assert objs[FileLibrary].subfiles == ((0b00, 0b11, 0b10), (0b11, 0b00, 0b01))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_instances_survive_pickling(cls):
    obj = build()[cls]
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and repr(copy) == REPRS[cls]


def test_verification_report_is_a_mutable_unhashable_record():
    report = build()[VerificationReport]
    assert report == build()[VerificationReport]
    assert report != VerificationReport("demo", 3, [], 0.25)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    report.elapsed = 1.5
    report.failures.append(((1,), "0", "1"))
    assert report.elapsed == 1.5 and len(report.failures) == 2
    assert not report.passed


def test_verification_reports_own_their_failure_lists():
    a, b = VerificationReport("a", 0), VerificationReport("a", 0)
    assert a.failures == [] and a.elapsed == 0.0 and a.passed
    assert repr(a) == "VerificationReport(scope='a', cases_run=0, failures=[], elapsed=0.0)"
    assert a == b and a.failures is not b.failures
    a.failures.append(("case", "want", "got"))
    assert b.failures == [] and a != b
    listed = []
    assert VerificationReport(scope="c", cases_run=1, failures=listed).failures is listed
