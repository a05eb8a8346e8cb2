"""Two-ray convex cones in the (theta, x)-plane and a catalog of cone bounds.

A divisor class a*theta + b*x on C_d is treated as the point (a, b); a cone
is spanned by two non-proportional rays and membership is decided by an
exact 2x2 linear solve, so boundary cases (the interesting ones) are never
blurred by rounding.  The catalog records, per curve class and symmetric
power, the best known restriction on the non-diagonal edge of the effective
cone, tagged by claim strength: a proved boundary ray, a bound by an honest
effective divisor, a bound by a virtual divisor, or the exclusion of a
direction from the cone.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import _EXPORTS
from .catalog import _dm, diagonal_class
from .nsring import Ambient, NSClass, Record, _coerce_coeff, _signed_sum, format_rational

__all__ = list(_EXPORTS["conelab"])


class ConeRay(Record):
    """A direction a*theta + b*x, up to positive scaling.

    Stored in canonical form: both coefficients exact rationals, scaled so
    the first nonzero one is +1 or -1.
    """

    __slots__ = ("theta", "x")

    def __init__(self, theta: Fraction, x: Fraction):
        a, b = _coerce_coeff(theta), _coerce_coeff(x)
        if a == 0 and b == 0:
            raise ValueError("a ray needs a nonzero direction")
        scale = abs(a) if a != 0 else abs(b)
        super().__init__(a / scale, b / scale)

    def __str__(self) -> str:
        terms = ((self.theta, "theta"), (self.x, "x"))
        return _signed_sum(term for term in terms if term[0])


def slope(ray: ConeRay) -> Fraction | None:
    """The t with ray proportional to theta - t*x, or None for the vertical ray."""
    if ray.theta == 0:
        return None
    return -ray.x / ray.theta


def _sort_key(ray: ConeRay) -> tuple[int, Fraction]:
    t = slope(ray)
    return (1, Fraction(0)) if t is None else (0, t)


class Cone2D(Record):
    """The cone of nonnegative combinations of two independent rays."""

    __slots__ = ("ray1", "ray2")

    def __init__(self, ray1: ConeRay, ray2: ConeRay):
        det = ray1.theta * ray2.x - ray2.theta * ray1.x
        if det == 0:
            raise ValueError("degenerate cone: rays are proportional")
        if _sort_key(ray2) < _sort_key(ray1):
            ray1, ray2 = ray2, ray1
        super().__init__(ray1, ray2)


def ray_from_class(c: NSClass) -> ConeRay:
    """The ray spanned by a divisor class."""
    a, b = _divisor_coeffs(c)
    return ConeRay(a, b)


def _divisor_coeffs(c: NSClass) -> tuple[int, int]:  # the numerators: the denominator only scales
    if c.is_zero():
        return (0, 0)
    if c.pure_degree() != 1:
        raise ValueError(f"cone queries need a divisor class (pure degree 1), got {c}")
    return (c._terms.get((0, 1), 0), c._terms.get((1, 0), 0))


def contains(cone: Cone2D, query: NSClass | ConeRay) -> bool:
    """Whether the class lies in the cone, by the signs of an exact 2x2 Cramer solve."""
    if isinstance(query, ConeRay):
        a, b = query.theta, query.x
    else:
        a, b = _divisor_coeffs(query)
    r1, r2 = cone.ray1, cone.ray2
    s = r2.x * a - r2.theta * b  # the coordinates times the determinant; Fraction * int is the fast order
    t = r1.theta * b - r1.x * a
    positive = r1.theta * r2.x > r2.theta * r1.x  # the sign of the determinant
    return (s >= 0 and t >= 0) if positive else (s <= 0 and t <= 0)


def general_effective_cone_gm2(g: int) -> Cone2D:
    """Effective cone of C_{g-2} for a general curve of genus g >= 5.

    Spanned by the diagonal and by the ray of D_1 = dm_class(g, 1), which is
    theta - (g/(g-2))*x; it pairs to exactly zero against the curve of divisors
    subordinate to a pencil of degree g-1, which is what pins it as a boundary.
    That ray is read off D_1 built without its binomial, which only scales it.
    """
    if g < 5:
        raise ValueError(f"general-curve cone description needs g >= 5, got g={g}")
    diagonal = ray_from_class(diagonal_class(Ambient(g, g - 2)))
    return Cone2D(diagonal, ray_from_class(_dm(g, 1, scaled=False)))


class CurveClass(str, Enum):
    GENERAL = "general"
    HYPERELLIPTIC = "hyperelliptic"
    TRIGONAL = "trigonal"
    PLANE_QUINTIC = "planeQuintic"


class BoundStatus(str, Enum):
    PROVED_BOUNDARY = "proved-boundary"
    EFFECTIVE_BOUND = "effective-bound"
    VIRTUAL_BOUND = "virtual-bound"
    EXCLUSION = "exclusion"


class BoundEntry(Record):
    """One catalogued restriction on the effective cone of C_d."""

    __slots__ = ("curve", "g", "d", "ray", "status", "source")


# (curve, g - d) -> (t, source) for the proved boundary ray theta - t*x of a special curve.
_SPECIAL_RAYS = {
    (CurveClass.HYPERELLIPTIC, 2): (3, "non-diagonal boundary ray on C_(g-2), hyperelliptic curve"),
    (CurveClass.HYPERELLIPTIC, 1): (2, "non-diagonal boundary ray on C_(g-1), hyperelliptic curve"),
    (CurveClass.TRIGONAL, 2): (2, "non-diagonal boundary ray on C_(g-2), trigonal curve"),
}

# min(m, 3) for m = (g - d)/2 -> (status, source) of the general curve's ray, that of D_m on C_d.
_GENERAL_RAYS = {
    1: (BoundStatus.PROVED_BOUNDARY,
        "boundary ray: pairs to zero against the pencil-subordinate curve class"),
    2: (BoundStatus.EFFECTIVE_BOUND,
        "bound by an honest effective divisor (secant behavior of the push-pull locus)"),
    3: (BoundStatus.VIRTUAL_BOUND,
        "bound by a virtual divisor class (push-pull of the moving-divisor locus)"),
}


def _bounds(curve: CurveClass, g: int, d: int) -> list[BoundEntry]:
    """The catalogue's entries for (curve, g, d); empty unless 2 <= d < g, and wherever it is silent."""
    if not 2 <= d < g:
        return []
    if (curve, g - d) in _SPECIAL_RAYS:
        t, source = _SPECIAL_RAYS[curve, g - d]
        return [BoundEntry(curve, g, d, ConeRay(Fraction(1), Fraction(-t)),
                           BoundStatus.PROVED_BOUNDARY, source)]
    if curve is CurveClass.GENERAL and g >= 5 and (g - d) % 2 == 0:
        status, source = _GENERAL_RAYS[min((g - d) // 2, 3)]
        ray = ray_from_class(_dm(g, (g - d) // 2, scaled=False))
        return [BoundEntry(curve, g, d, ray, status, source)]
    if curve is CurveClass.PLANE_QUINTIC and (g, d) == (6, 4):
        return [BoundEntry(curve, g, d, ConeRay(Fraction(1), Fraction(-2)), BoundStatus.EXCLUSION,
                           "excluded direction: no effective divisor on C_4 is proportional to it")]
    return []


def known_bounds(curve: CurveClass, g: int, d: int) -> list[BoundEntry]:
    """Catalogued non-diagonal cone bounds for the given curve class and C_d.

    Raises for (curve, g, d) combinations the catalog says nothing about.
    """
    curve = CurveClass(curve)
    entries = _bounds(curve, g, d)
    if not entries:
        raise ValueError(f"no catalogued bound for ({curve.value}, g={g}, d={d})")
    return entries


def full_catalog(g_min: int, g_max: int) -> list[BoundEntry]:
    """Every catalogued entry with genus in [g_min, g_max], deterministically ordered."""
    if g_min > g_max:
        raise ValueError(f"empty genus range [{g_min}, {g_max}]")
    entries = [entry for curve in CurveClass for g in range(g_min, g_max + 1)
               for d in range(2, g) for entry in _bounds(curve, g, d)]
    entries.sort(key=lambda e: (e.curve.value, e.g, e.d))
    return entries


def bounds_to_json(entries: list[BoundEntry]) -> str:
    """Serialize catalog entries deterministically (fixed key order, canonical rationals)."""
    import json

    payload = [
        {
            "curveClass": e.curve.value,
            "g": e.g,
            "d": e.d,
            "rayTheta": format_rational(e.ray.theta),
            "rayX": format_rational(e.ray.x),
            "status": e.status.value,
            "paperRef": e.source,
        }
        for e in entries
    ]
    return json.dumps(payload, indent=2) + "\n"


def _field(record: dict, name: str, kind: type):
    if name not in record:
        raise ValueError(f"bound record is missing field {name!r}")
    value = record[name]
    if type(value) is not kind:  # also rejects bool for int
        raise ValueError(f"bound record field {name!r} must be a {kind.__name__}, got {value!r}")
    return value


def _parsed_field(record: dict, name: str, parse):
    text = _field(record, name, str)
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bound record field {name!r} has invalid value {text!r}") from None


def bounds_from_json(text: str) -> list[BoundEntry]:
    """Read back the output of bounds_to_json.

    Exact input only: g and d must be JSON integers, the ray coordinates
    strings such as "-6/5".  A malformed record raises ValueError naming
    the offending field.
    """
    import json

    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("bounds JSON must be a list of records")
    entries = []
    for record in records:
        if not isinstance(record, dict):
            raise ValueError(f"bound record must be an object, got {record!r}")
        theta = _parsed_field(record, "rayTheta", Fraction)
        x = _parsed_field(record, "rayX", Fraction)
        try:
            ray = ConeRay(theta, x)
        except ValueError as exc:
            raise ValueError(f"bound record fields 'rayTheta'/'rayX': {exc}") from None
        entries.append(
            BoundEntry(
                _parsed_field(record, "curveClass", CurveClass),
                _field(record, "g", int),
                _field(record, "d", int),
                ray,
                _parsed_field(record, "status", BoundStatus),
                _field(record, "paperRef", str),
            )
        )
    return entries
