import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from cdcalc import (
    Ambient,
    BoundStatus,
    Cone2D,
    ConeRay,
    CurveClass,
    LinearSeries,
    NSClass,
    bounds_from_json,
    bounds_to_json,
    contains,
    diagonal_class,
    dm_class,
    full_catalog,
    general_effective_cone_gm2,
    known_bounds,
    pair,
    ray_from_class,
    slope,
    subordinate_class,
)


def test_ray_canonical_form():
    ray = ConeRay(Fraction(-2), Fraction(18))
    assert (ray.theta, ray.x) == (Fraction(-1), Fraction(9))
    assert ConeRay(Fraction(0), Fraction(5)) == ConeRay(Fraction(0), Fraction(1))
    assert ConeRay(Fraction(3), Fraction(-9, 2)) == ConeRay(Fraction(1), Fraction(-3, 2))
    with pytest.raises(ValueError):
        ConeRay(Fraction(0), Fraction(0))


def test_ray_rejects_floats():
    with pytest.raises(TypeError):
        ConeRay(0.5, 1)
    with pytest.raises(TypeError):
        ConeRay(Fraction(1), 0.25)
    assert ConeRay(2, -3) == ConeRay(Fraction(1), Fraction(-3, 2))


@pytest.mark.parametrize("theta, x, name", [("1", "-3/2", "str"), (Fraction(1), " 3e-2 ", "str"),
                                            (Decimal("0.5"), 1, "Decimal"), (1, None, "NoneType")])
def test_ray_refuses_coefficients_that_are_not_int_or_fraction(theta, x, name):
    with pytest.raises(TypeError, match=rf"^coefficients must be int or Fraction, got {name}$"):
        ConeRay(theta, x)


def test_ray_str():
    assert str(ConeRay(Fraction(1), Fraction(-3, 2))) == "1*theta - 3/2*x"
    assert str(ConeRay(Fraction(-1), Fraction(9))) == "-1*theta + 9*x"
    assert str(ConeRay(Fraction(0), Fraction(2))) == "1*x"


def test_slope():
    assert slope(ConeRay(Fraction(1), Fraction(-3, 2))) == Fraction(3, 2)
    assert slope(ConeRay(Fraction(0), Fraction(1))) is None
    for g in range(5, 15):
        assert slope(ConeRay(Fraction(g - 2), Fraction(-g))) == Fraction(g, g - 2)


def test_cone_deterministic_order():
    a = ConeRay(Fraction(-1), Fraction(9))
    b = ConeRay(Fraction(1), Fraction(-3, 2))
    assert Cone2D(a, b) == Cone2D(b, a)
    assert Cone2D(a, b).ray1 == b  # smaller slope first


def test_cone_rejects_proportional_rays():
    with pytest.raises(ValueError, match="degenerate"):
        Cone2D(ConeRay(Fraction(1), Fraction(-2)), ConeRay(Fraction(3), Fraction(-6)))
    with pytest.raises(ValueError, match="degenerate"):
        Cone2D(ConeRay(Fraction(1), Fraction(-2)), ConeRay(Fraction(-1), Fraction(2)))


def test_ray_from_class():
    amb = Ambient(6, 4)
    ray = ray_from_class(NSClass(amb, {(0, 1): -2, (1, 0): 18}))
    assert ray == ConeRay(Fraction(-1), Fraction(9))
    with pytest.raises(ValueError, match="pure degree 1"):
        ray_from_class(amb.theta() ** 2)
    with pytest.raises(ValueError):
        ray_from_class(amb.zero())


def test_contains_g6_examples():
    amb = Ambient(6, 4)
    cone = general_effective_cone_gm2(6)
    assert contains(cone, amb.theta())
    assert not contains(cone, amb.theta() - 2 * amb.x())
    assert contains(cone, cone.ray1)
    assert contains(cone, cone.ray2)
    assert contains(cone, amb.zero())
    with pytest.raises(ValueError, match="pure degree 1"):
        contains(cone, amb.one())


def test_contains_scaling_invariance():
    rng = random.Random(431)
    cone = general_effective_cone_gm2(7)
    amb = Ambient(7, 5)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9))
        b = Fraction(rng.randint(-9, 9))
        if a == 0 and b == 0:
            continue
        query = NSClass(amb, {(0, 1): a, (1, 0): b})
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert contains(cone, query) == contains(cone, scale * query)


def test_contains_matches_nonnegative_combination():
    # against the coordinates of the query in the rays' basis, for cones of
    # either orientation (the sign of the determinant)
    rng = random.Random(433)
    signs = set()
    for _ in range(500):
        p1, p2, (a, b) = ((Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                           Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3))
        if 0 in (p1[0] * p2[1] - p2[0] * p1[1], a or b):
            continue  # proportional rays, or the zero query
        cone = Cone2D(ConeRay(*p1), ConeRay(*p2))
        r1, r2 = cone.ray1, cone.ray2
        det = r1.theta * r2.x - r2.theta * r1.x
        s, t = (a * r2.x - r2.theta * b) / det, (r1.theta * b - a * r1.x) / det
        assert (s * r1.theta + t * r2.theta, s * r1.x + t * r2.x) == (a, b)
        assert contains(cone, ConeRay(a, b)) == (s >= 0 and t >= 0)
        signs.add(det > 0)
    assert signs == {True, False}


def test_contains_does_no_fraction_arithmetic(monkeypatch):
    amb = Ambient(9, 7)
    cone = general_effective_cone_gm2(9)
    on_edge = NSClass(amb, {(0, 1): Fraction(7, 2), (1, 0): Fraction(-9, 2)})
    queries = [amb.theta(), amb.theta() - 2 * amb.x(), on_edge, amb.zero(),
               cone.ray1, cone.ray2, ConeRay(Fraction(-1, 3), Fraction(2, 7)), ConeRay(0, -1)]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in contains")

    for name in ("__mul__", "__rmul__", "__sub__", "__rsub__", "__add__", "__radd__", "__truediv__",
                 "__rtruediv__", "__lt__", "__gt__", "__le__", "__ge__", "__eq__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) < 1  # the guard is live
    answers = [contains(cone, query) for query in queries]
    monkeypatch.undo()
    assert answers == [True, False, True, True, True, True, False, False]


def test_general_cone_rays():
    cone = general_effective_cone_gm2(6)
    assert {cone.ray1, cone.ray2} == {
        ConeRay(Fraction(-1), Fraction(9)),
        ConeRay(Fraction(1), Fraction(-3, 2)),
    }
    cone5 = general_effective_cone_gm2(5)
    assert {cone5.ray1, cone5.ray2} == {
        ConeRay(Fraction(-1), Fraction(7)),
        ConeRay(Fraction(1), Fraction(-5, 3)),
    }
    with pytest.raises(ValueError, match="g >= 5"):
        general_effective_cone_gm2(4)


def test_general_cone_is_spanned_by_the_diagonal_and_d1():
    # the cone is built from integer directions; here its rays are read off the two classes
    for g in range(5, 301):
        diagonal = ray_from_class(diagonal_class(Ambient(g, g - 2)))
        assert general_effective_cone_gm2(g) == Cone2D(diagonal, ray_from_class(dm_class(g, 1)))


def test_general_catalogue_rays_are_those_of_dm():
    # the catalogue's general-curve ray on C_{g-2m} is built from integers; D_m spans the same ray
    entries = [e for e in full_catalog(5, 60) if e.curve is CurveClass.GENERAL]
    assert len(entries) == sum((g - 2) // 2 for g in range(5, 61))
    for e in entries:
        assert e.ray == ray_from_class(dm_class(e.g, (e.g - e.d) // 2))


def test_general_cone_slope_and_orthogonality_sweep():
    for g in range(5, 41):
        cone = general_effective_cone_gm2(g)
        non_diagonal = cone.ray1 if cone.ray1.theta > 0 else cone.ray2
        assert slope(non_diagonal) == Fraction(g, g - 2)
        assert Fraction(1) < slope(non_diagonal) < Fraction(2)
        # the bounding ray pairs to zero against the pencil-subordinate curve
        amb = Ambient(g, g - 2)
        gamma = subordinate_class(amb, LinearSeries(g - 1, 1))
        scaled = NSClass(amb, {(0, 1): g - 2, (1, 0): -g})
        assert pair(scaled, gamma) == 0


def test_known_bounds_trigonal():
    (entry,) = known_bounds(CurveClass.TRIGONAL, 8, 6)
    assert entry.ray == ConeRay(Fraction(1), Fraction(-2))
    assert entry.status is BoundStatus.PROVED_BOUNDARY


def test_known_bounds_hyperelliptic():
    (low,) = known_bounds(CurveClass.HYPERELLIPTIC, 8, 6)
    assert low.ray == ConeRay(Fraction(1), Fraction(-3))
    assert low.status is BoundStatus.PROVED_BOUNDARY
    (high,) = known_bounds(CurveClass.HYPERELLIPTIC, 8, 7)
    assert high.ray == ConeRay(Fraction(1), Fraction(-2))
    assert high.status is BoundStatus.PROVED_BOUNDARY


def test_known_bounds_general_statuses():
    (m1,) = known_bounds(CurveClass.GENERAL, 7, 5)
    assert m1.status is BoundStatus.PROVED_BOUNDARY
    assert slope(m1.ray) == Fraction(7, 5)
    (m2,) = known_bounds(CurveClass.GENERAL, 8, 4)
    assert m2.status is BoundStatus.EFFECTIVE_BOUND
    assert m2.ray == ConeRay(Fraction(1), Fraction(-2))
    (m3,) = known_bounds(CurveClass.GENERAL, 10, 4)
    assert m3.status is BoundStatus.VIRTUAL_BOUND
    assert slope(m3.ray) == Fraction(10, 4)


def test_known_bounds_plane_quintic():
    (entry,) = known_bounds(CurveClass.PLANE_QUINTIC, 6, 4)
    assert entry.status is BoundStatus.EXCLUSION
    assert entry.ray == ConeRay(Fraction(1), Fraction(-2))


def test_known_bounds_unsupported():
    with pytest.raises(ValueError, match="no catalogued bound"):
        known_bounds(CurveClass.TRIGONAL, 8, 5)
    with pytest.raises(ValueError, match="no catalogued bound"):
        known_bounds(CurveClass.GENERAL, 8, 5)  # odd gap
    with pytest.raises(ValueError, match="no catalogued bound"):
        known_bounds(CurveClass.GENERAL, 4, 2)  # g < 5
    with pytest.raises(ValueError, match="no catalogued bound"):
        known_bounds(CurveClass.PLANE_QUINTIC, 6, 3)
    with pytest.raises(ValueError, match="no catalogued bound"):
        known_bounds(CurveClass.HYPERELLIPTIC, 3, 1)


@pytest.mark.parametrize("curve", list(CurveClass))
def test_known_bounds_only_for_d_between_2_and_g(curve):
    # full_catalog enumerates exactly 2 <= d < g, so nothing may lie outside
    for g in range(-3, 30):
        for d in [*range(-3, 2), *range(g, g + 4)]:
            with pytest.raises(ValueError, match="no catalogued bound"):
                known_bounds(curve, g, d)


def test_full_catalog_contents():
    entries = full_catalog(6, 6)
    combos = {(e.curve, e.d) for e in entries}
    assert combos == {
        (CurveClass.HYPERELLIPTIC, 4),
        (CurveClass.HYPERELLIPTIC, 5),
        (CurveClass.TRIGONAL, 4),
        (CurveClass.GENERAL, 4),
        (CurveClass.GENERAL, 2),
        (CurveClass.PLANE_QUINTIC, 4),
    }
    with pytest.raises(ValueError):
        full_catalog(8, 6)


def test_general_catalogue_rays_pair_to_zero_on_the_pencil_curve():
    # the catalogue's d = g-2 ray for a general curve, rebuilt as a class on
    # C_{g-2}, is orthogonal to the curve of divisors subordinate to a pencil
    entries = [e for e in full_catalog(5, 40) if e.curve is CurveClass.GENERAL and e.d == e.g - 2]
    assert [e.g for e in entries] == list(range(5, 41))
    for e in entries:
        amb = Ambient(e.g, e.g - 2)
        ray_class = e.ray.theta * amb.theta() + e.ray.x * amb.x()
        assert pair(ray_class, subordinate_class(amb, LinearSeries(e.g - 1, 1))) == 0


def test_catalog_json_round_trip():
    entries = full_catalog(5, 12)
    text = bounds_to_json(entries)
    assert bounds_from_json(text) == entries
    assert bounds_to_json(bounds_from_json(text)) == text  # byte-identical
    wide = full_catalog(2, 60)  # every (g, d) the catalogue writes passes the reader's 2 <= d < g
    assert bounds_from_json(bounds_to_json(wide)) == wide
    records = json.loads(text)
    assert list(records[0]) == ["curveClass", "g", "d", "rayTheta", "rayX", "status", "paperRef"]
    statuses = {r["status"] for r in records}
    assert statuses <= {"proved-boundary", "effective-bound", "virtual-bound", "exclusion"}


def _record(**changes):
    record = json.loads(bounds_to_json(known_bounds(CurveClass.GENERAL, 6, 4)))[0]
    record.update(changes)
    return record


@pytest.mark.parametrize("record, field", [
    (_record(rayTheta=0.5), "rayTheta"),
    (_record(rayX=-1.5), "rayX"),
    (_record(rayX="1/0"), "rayX"),
    (_record(rayTheta="half"), "rayTheta"),
    (_record(rayTheta="0", rayX="0"), "rayTheta"),
    (_record(g=6.7), "g"),
    (_record(g=True), "g"),
    (_record(d="4"), "d"),
    (_record(curveClass="elliptic"), "curveClass"),
    (_record(status="maybe"), "status"),
    (_record(paperRef=None), "paperRef"),
    ({k: v for k, v in _record().items() if k != "rayX"}, "rayX"),
    ({k: v for k, v in _record().items() if k != "g"}, "g"),
    (_record(rayX="٣"), "rayX"),
    (_record(rayX="6_0"), "rayX"),
    (_record(rayX=" 3/4 "), "rayX"),
    (_record(rayTheta="+6/5"), "rayTheta"),
    (_record(rayTheta="1e3"), "rayTheta"),
    (_record(g=-5, d=100), "'g'/'d'.*g=-5, d=100"),
    (_record(d=1), "'g'/'d'.*g=6, d=1"),
    (_record(d=6), "'g'/'d'.*g=6, d=6"),
])
def test_bounds_from_json_rejects_malformed_field(record, field):
    with pytest.raises(ValueError, match=field):
        bounds_from_json(json.dumps([record]))


@pytest.mark.parametrize("text", ['{"g": 6}', '[["general", 6, 4]]', '[1]', '"x"'])
def test_bounds_from_json_rejects_wrong_shape(text):
    with pytest.raises(ValueError):
        bounds_from_json(text)


def test_bounds_from_json_reads_exact_decimal_strings():
    (entry,) = bounds_from_json(json.dumps([_record(rayTheta="1", rayX="-1.5")]))
    assert entry.ray == ConeRay(Fraction(1), Fraction(-3, 2))
    assert (type(entry.g), entry.g, entry.d) == (int, 6, 4)
