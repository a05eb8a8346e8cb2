"""Value semantics of the immutable record types and of NSClass."""

import copy
import json
import pickle
import re
from fractions import Fraction

import pytest

from cdcalc import (
    Ambient,
    BoundEntry,
    BoundStatus,
    CheckResult,
    Cone2D,
    ConeRay,
    CurveClass,
    KernelBundleData,
    LinearSeries,
    NSClass,
    Report,
    SystemData,
    brill_noether_rho,
    c1d_class,
    check_pushpull_closed_form,
    chern_character,
    dm_class,
    full_catalog,
    general_effective_cone_gm2,
    known_bounds,
    mult_degeneracy_class,
    pushpull,
    report_json,
    run_all,
    subordinate_class,
    twisted_kernel_class,
)

RAY = ConeRay(Fraction(2), Fraction(-3))
CHECK = CheckResult("demo", {"g": 5}, "1", "1", True, 7)
VALUES = [
    subordinate_class(Ambient(6, 4), LinearSeries(5, 1)),
    Ambient(6, 4),
    LinearSeries(5, 1),
    SystemData(2, 7, 3),
    KernelBundleData(5, 3),
    CHECK,
    Report("0.1.0", 5, 6, [CHECK]),
    RAY,
    Cone2D(ConeRay(Fraction(0), Fraction(1)), RAY),
    BoundEntry(CurveClass.GENERAL, 6, 4, RAY, BoundStatus.PROVED_BOUNDARY, "demo"),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("clone", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trip(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    try:
        expected = hash(value)
    except TypeError:  # records holding a dict or a list
        return
    assert hash(twin) == expected


def test_equality_needs_same_type():
    assert Ambient(6, 4) != (6, 4)
    assert LinearSeries(5, 1) != Ambient(5, 1)
    assert Ambient(6, 4) == Ambient(6, 4) and Ambient(6, 4) != Ambient(6, 5)
    assert hash(Ambient(6, 4)) == hash(Ambient(6, 4))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set_or_deleted(value):
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_shows_every_field():
    assert repr(Ambient(6, 4)) == "Ambient(g=6, d=4)"
    assert repr(SystemData(2, 7, 3)) == "SystemData(rank=2, degree=7, dim_v=3)"
    assert repr(RAY) == "ConeRay(theta=Fraction(1, 1), x=Fraction(-3, 2))"
    text = repr(VALUES[-1])
    for field in BoundEntry.__slots__:
        assert f"{field}=" in text


def test_report_default_checks_not_shared():
    first, second = Report("0.1.0", 5, 6), Report("0.1.0", 5, 6)
    first.checks.append(CHECK)
    assert second.checks == []


def test_rays_stay_normalised_after_pickle():
    ray = pickle.loads(pickle.dumps(ConeRay(Fraction(-4), Fraction(6))))
    assert (ray.theta, ray.x) == (Fraction(-1), Fraction(3, 2))
    cone = pickle.loads(pickle.dumps(Cone2D(RAY, ConeRay(Fraction(0), Fraction(2)))))
    assert cone.ray1 == RAY
    assert (cone.ray2.theta, cone.ray2.x) == (Fraction(0), Fraction(1))


@pytest.mark.parametrize("values", [(), ("demo",), ("demo", {}, "1", "1", True, 7, 0)])
def test_default_constructor_needs_one_value_per_field(values):
    fields = r"CheckResult takes 6 values \(check_id, params, lhs, rhs, passed, micros\)"
    with pytest.raises(TypeError, match=fields):
        CheckResult(*values)


def test_default_constructor_is_positional_only():
    with pytest.raises(TypeError):
        BoundEntry(curve=CurveClass.GENERAL, g=6, d=4, ray=RAY,
                   status=BoundStatus.PROVED_BOUNDARY, source="demo")


@pytest.mark.parametrize("record, values, field", [
    (Ambient, (6.0, 4), "g"),
    (Ambient, (6, 4.0), "d"),
    (Ambient, (6.5, 4), "g"),
    (Ambient, (6, True), "d"),
    (LinearSeries, (5.0, 1), "n"),
    (LinearSeries, (5, Fraction(1)), "r"),
    (SystemData, (1, 2.5, 3), "degree"),
    (KernelBundleData, (5.0, 3), "base_degree"),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_integer_fields_refuse_every_other_type(record, values, field):
    with pytest.raises(TypeError, match=rf"^{record.__name__} field {field} must be an int, got "):
        record(*values)


AMB = Ambient(8, 6)


# Every public builder or check that takes integer arguments, with a bad value in one of them,
# and the words its TypeError starts with.
@pytest.mark.parametrize("call, words", [
    (lambda bad: Ambient(bad, 4), "Ambient field g"),
    (lambda bad: Ambient(8, bad), "Ambient field d"),
    (lambda bad: dm_class(bad, 1), "dm_class argument g"),
    (lambda bad: dm_class(8, bad), "dm_class argument m"),
    (lambda bad: c1d_class(Ambient(bad, 6)), "Ambient field g"),
    (lambda bad: c1d_class(Ambient(8, bad)), "Ambient field d"),
    (lambda bad: pushpull(AMB.x() * AMB.theta(), bad), "pushpull argument k"),
    (lambda bad: pushpull(AMB.zero(), bad), "pushpull argument k"),
    (lambda bad: check_pushpull_closed_form(bad, 1), "dm_class argument g"),
    (lambda bad: check_pushpull_closed_form(8, bad), "dm_class argument m"),
    (lambda bad: known_bounds(CurveClass.HYPERELLIPTIC, bad, 6), "known_bounds argument g"),
    (lambda bad: known_bounds(CurveClass.GENERAL, 8, bad), "known_bounds argument d"),
    (lambda bad: full_catalog(bad, 8), "full_catalog argument g_min"),
    (lambda bad: full_catalog(6, bad), "full_catalog argument g_max"),
    (lambda bad: run_all(bad, 6), "run_all argument g_min"),
    (lambda bad: run_all(5, bad), "run_all argument g_max"),
    (lambda bad: brill_noether_rho(bad, 1, 4), "brill_noether_rho argument g"),
    (lambda bad: brill_noether_rho(6, bad, 4), "brill_noether_rho argument r"),
    (lambda bad: brill_noether_rho(6, 1, bad), "brill_noether_rho argument d"),
    (lambda bad: chern_character(AMB, bad, 3, 2), "chern_character argument rank"),
    (lambda bad: chern_character(AMB, 1, bad, 2), "chern_character argument degree"),
    (lambda bad: chern_character(AMB, 1, 3, bad), "chern_character argument max_degree"),
    (lambda bad: mult_degeneracy_class(bad, 4, 2), "mult_degeneracy_class argument g"),
    (lambda bad: mult_degeneracy_class(8, bad, 2), "mult_degeneracy_class argument d"),
    (lambda bad: mult_degeneracy_class(8, 4, bad), "mult_degeneracy_class argument r"),
    (lambda bad: twisted_kernel_class(bad, KernelBundleData(13, 7), 7), "twisted_kernel_class argument g"),
    (lambda bad: twisted_kernel_class(8, KernelBundleData(13, 7), bad), "twisted_kernel_class argument h1"),
])
@pytest.mark.parametrize("bad", [6.0, True])
def test_integer_arguments_refuse_floats_and_bools(call, words, bad):
    with pytest.raises(TypeError, match=rf"^{words} must be an int, got {bad!r}$"):
        call(bad)


def test_cone_genus_refuses_floats_and_bools():
    # named as the argument, before the range check reads True as 1 or a float reaches Ambient
    for bad in (6.0, True):
        words = f"general_effective_cone_gm2 argument g must be an int, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(words)}$"):
            general_effective_cone_gm2(bad)


@pytest.mark.parametrize("values, words", [
    ((1, 5, 6), "Report field version must be a str, got 1"),
    (("0.1.0", 5.0, 6), "Report field g_min must be an int, got 5.0"),
    (("0.1.0", 5, True), "Report field g_max must be an int, got True"),
    (("0.1.0", 5, 6, (CHECK,)), "Report field checks must be a list of CheckResult, got "),
    (("0.1.0", 5, 6, [CHECK, {"id": "demo"}]), "Report field checks must be a list of CheckResult, got "),
    (("demo", {}, "1", "1", 1, 0), "CheckResult field passed must be a bool, got 1"),
    (("demo", {}, "1", "1", None, 0), "CheckResult field passed must be a bool, got None"),
    (("demo", {}, "1", "1", True, 7.0), "CheckResult field micros must be an int, got 7.0"),
    (("demo", {}, "1", "1", True, False), "CheckResult field micros must be an int, got False"),
])
def test_report_records_refuse_fields_outside_the_schema(values, words):
    record = Report if len(values) < 6 else CheckResult
    with pytest.raises(TypeError, match="^" + re.escape(words)):
        record(*values)


def test_check_result_refuses_negative_micros():
    with pytest.raises(ValueError, match=r"^CheckResult field micros must be nonnegative, got -1$"):
        CheckResult("demo", {}, "1", "1", True, -1)


@pytest.mark.parametrize("later", [True, 1.5, float("nan"), "5"])
def test_check_result_keeps_its_checked_params(later):
    params = {"g": 5}
    row = CheckResult("demo", params, "1", "1", True, 0)
    text = report_json(Report("0.1.0", 5, 5, [row]))
    params["g"], params["m"] = later, later
    assert row.params == {"g": 5}
    assert report_json(Report("0.1.0", 5, 5, [row])) == text
    assert json.loads(text)["checks"][0]["params"] == {"g": 5}


@pytest.mark.parametrize("g, d", [(2, 1), (6, 4), (8, 7), (3, 5), (10**30, 10**20)])
def test_fast_ambient_is_the_checked_ambient(g, d):
    fast, checked = Ambient._make(g, d), Ambient(g, d)
    assert type(fast) is Ambient
    assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)


def test_fast_built_class_clones_through_the_validating_constructor(monkeypatch):
    # pushpull builds its result by `_of` on an ambient built by `Ambient._make`
    value = pushpull(c1d_class(Ambient(8, 7)), 3)
    assert value.ambient == Ambient(8, 4)
    built = []
    for cls in (NSClass, Ambient):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    for clone, names in [(lambda v: pickle.loads(pickle.dumps(v)), ["Ambient", "NSClass"]),
                         (copy.copy, ["NSClass"]), (copy.deepcopy, ["Ambient", "NSClass"])]:
        built.clear()
        twin = clone(value)
        assert sorted(built) == names
        assert twin == value and hash(twin) == hash(value) and twin.ambient == value.ambient
