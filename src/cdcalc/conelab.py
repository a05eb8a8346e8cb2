"""Two-ray convex cones in the (theta, x)-plane and a catalog of cone bounds.

A divisor class a*theta + b*x on C_d is treated as the point (a, b); a cone
is spanned by two non-proportional rays and membership is decided by the
signs of integer cross products of the rays' and the query's directions, so
boundary cases (the interesting ones) are never blurred by rounding.  The
catalog records, per curve class and symmetric power, the best known
restriction on the non-diagonal edge of the effective cone, tagged by claim
strength: a proved boundary ray, a bound by an honest effective divisor, a
bound by a virtual divisor, or the exclusion of a direction from the cone.
"""

import re
from enum import Enum
from math import gcd

from . import _EXPORTS
from .nsring import NSClass, Record, _fraction, _lowest_terms, _ratio, _require_ints, _signed_sum

__all__ = list(_EXPORTS["conelab"])


class ConeRay(Record):
    """A direction a*theta + b*x, up to positive scaling.

    Stored as its integer direction: the positive multiple (p, q) of (a, b)
    with gcd(p, q) == 1, the one exact representation `Cone2D` and
    `contains` compute with.  The public reads `theta` and `x` are the
    canonical Fractions, scaled so the first nonzero one is +1 or -1, built at
    the edge as `NSClass.terms()` builds them; repr shows them.
    """

    __slots__ = ("_p", "_q")

    def __init__(self, theta: "int | Fraction", x: "int | Fraction"):
        (n1, d1), (n2, d2) = _ratio(theta), _ratio(x)
        p, q = n1 * d2, n2 * d1  # the direction times d1 * d2 > 0
        if not (p or q):
            raise ValueError("a ray needs a nonzero direction")
        common = gcd(p, q)
        super().__init__(p // common, q // common)

    @property
    def theta(self) -> "Fraction":
        return _fraction()(self._p, abs(self._p or self._q))

    @property
    def x(self) -> "Fraction":
        return _fraction()(self._q, abs(self._p or self._q))

    def _texts(self) -> tuple[str, str]:
        """`theta` and `x` as the text `format_rational` writes for them, read from the integers."""
        p, q = self._p, self._q
        scale = abs(p or q)
        return _lowest_terms(p, scale), _lowest_terms(q, scale)

    def __str__(self) -> str:
        return _signed_sum(term for term in zip(self._texts(), ("*theta", "*x")) if term[0] != "0")

    def __repr__(self) -> str:
        return f"ConeRay(theta={self.theta!r}, x={self.x!r})"


def slope(ray: ConeRay) -> "Fraction | None":
    """The t with ray proportional to theta - t*x, or None for the vertical ray."""
    return _fraction()(-ray._q, ray._p) if ray._p else None


class Cone2D(Record):
    """The cone of nonnegative combinations of two independent rays, the smaller slope first."""

    __slots__ = ("ray1", "ray2")

    def __init__(self, ray1: ConeRay, ray2: ConeRay):
        for ray in (ray1, ray2):
            if type(ray) is not ConeRay:
                raise TypeError(f"Cone2D ray must be a ConeRay, got {ray!r}")
        p1, q1, p2, q2 = ray1._p, ray1._q, ray2._p, ray2._q
        det = p1 * q2 - p2 * q1
        if not det:
            raise ValueError("degenerate cone: rays are proportional")
        # -q/p is the slope, so for two non-vertical rays slope2 < slope1 iff det * p1 * p2 > 0
        if p2 and (not p1 or det * p1 * p2 > 0):
            ray1, ray2 = ray2, ray1
        super().__init__(ray1, ray2)


def ray_from_class(c: NSClass) -> ConeRay:
    """The ray spanned by a divisor class."""
    a, b = _divisor_coeffs(c)
    return ConeRay(a, b)


def _divisor_coeffs(c: NSClass) -> tuple[int, int]:  # the numerators: the denominator only scales
    terms = c._terms  # numerators are nonzero, so a divisor class has no key but these two
    a, b = terms.get((0, 1), 0), terms.get((1, 0), 0)
    if len(terms) != (a != 0) + (b != 0):
        raise ValueError(f"cone queries need a divisor class (pure degree 1), got {c}")
    return (a, b)


def contains(cone: Cone2D, query: NSClass | ConeRay) -> bool:
    """Whether the class lies in the cone, by the signs of integer cross products (no Fraction)."""
    a, b = (query._p, query._q) if isinstance(query, ConeRay) else _divisor_coeffs(query)
    ray1, ray2 = cone.ray1, cone.ray2
    p1, q1, p2, q2 = ray1._p, ray1._q, ray2._p, ray2._q
    s, t = q2 * a - p2 * b, p1 * b - q1 * a  # the coordinates in the rays' basis times the determinant
    return (s >= 0 and t >= 0) if p1 * q2 > p2 * q1 else (s <= 0 and t <= 0)


def general_effective_cone_gm2(g: int) -> Cone2D:
    """Effective cone of C_{g-2} for a general curve of genus g >= 5.

    Spanned by the diagonal, 2((2g-3)x - theta) on C_{g-2}, and by the ray of
    D_1 = dm_class(g, 1), which is theta - (g/(g-2))*x; D_1 pairs to exactly
    zero against the curve of divisors subordinate to a pencil of degree g-1,
    which is what pins it as a boundary.  Both rays are built from their
    integer directions (-1, 2g-3) and (g-2, -g), without building either
    class; a test checks them against the rays of the two classes.
    """
    _require_ints("general_effective_cone_gm2 argument", g=g)
    if g < 5:
        raise ValueError(f"general-curve cone description needs g >= 5, got g={g}")
    return Cone2D(ConeRay(-1, 2 * g - 3), ConeRay(g - 2, -g))


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
        return [BoundEntry(curve, g, d, ConeRay(1, -t), BoundStatus.PROVED_BOUNDARY, source)]
    if curve is CurveClass.GENERAL and g >= 5 and (g - d) % 2 == 0:
        status, source = _GENERAL_RAYS[min((g - d) // 2, 3)]  # the ray of D_m = (d/g)theta - x
        return [BoundEntry(curve, g, d, ConeRay(d, -g), status, source)]
    if curve is CurveClass.PLANE_QUINTIC and (g, d) == (6, 4):
        return [BoundEntry(curve, g, d, ConeRay(1, -2), BoundStatus.EXCLUSION,
                           "excluded direction: no effective divisor on C_4 is proportional to it")]
    return []


def known_bounds(curve: CurveClass, g: int, d: int) -> list[BoundEntry]:
    """Catalogued non-diagonal cone bounds for the given curve class and C_d.

    Raises for (curve, g, d) combinations the catalog says nothing about.
    """
    curve = CurveClass(curve)
    _require_ints("known_bounds argument", g=g, d=d)
    entries = _bounds(curve, g, d)
    if not entries:
        raise ValueError(f"no catalogued bound for ({curve.value}, g={g}, d={d})")
    return entries


def full_catalog(g_min: int, g_max: int) -> list[BoundEntry]:
    """Every catalogued entry with genus in [g_min, g_max], deterministically ordered."""
    _require_ints("full_catalog argument", g_min=g_min, g_max=g_max)
    if g_min > g_max:
        raise ValueError(f"empty genus range [{g_min}, {g_max}]")
    entries = [entry for curve in CurveClass for g in range(g_min, g_max + 1)
               for d in range(2, g) for entry in _bounds(curve, g, d)]
    entries.sort(key=lambda e: (e.curve.value, e.g, e.d))
    return entries


def bounds_to_json(entries: list[BoundEntry]) -> str:
    """Serialize catalog entries deterministically (fixed key order, canonical rationals)."""
    import json

    payload = []
    for e in entries:
        theta, x = e.ray._texts()
        payload.append({"curveClass": e.curve.value, "g": e.g, "d": e.d, "rayTheta": theta, "rayX": x,
                        "status": e.status.value, "paperRef": e.source})
    return json.dumps(payload, indent=2) + "\n"


def _field(record: dict, name: str, kind: type):
    if name not in record:
        raise ValueError(f"bound record is missing field {name!r}")
    value = record[name]
    if type(value) is not kind:  # also rejects bool for int
        raise ValueError(f"bound record field {name!r} must be a {kind.__name__}, got {value!r}")
    return value


# Compiled by `re` on the first read, so a `cone` call does not pay for it.
_RATIONAL = r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?"  # Fraction(str) also reads " 1", "1e3", "٣"


def _rational(text: str) -> "Fraction":
    if not re.fullmatch(_RATIONAL, text):
        raise ValueError(text)
    return _fraction()(text)


def _parsed_field(record: dict, name: str, parse):
    text = _field(record, name, str)
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bound record field {name!r} has invalid value {text!r}") from None


def bounds_from_json(text: str) -> list[BoundEntry]:
    """Read back the output of bounds_to_json.

    Exact input only: g and d must be JSON integers with 2 <= d < g, the ray
    coordinates ASCII strings "-6", "-6/5" or "-1.5" (the "-" optional).  A
    malformed record raises ValueError naming the offending field.
    """
    import json

    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("bounds JSON must be a list of records")
    entries = []
    for record in records:
        if not isinstance(record, dict):
            raise ValueError(f"bound record must be an object, got {record!r}")
        theta, x = (_parsed_field(record, name, _rational) for name in ("rayTheta", "rayX"))
        try:
            ray = ConeRay(theta, x)
        except ValueError as exc:
            raise ValueError(f"bound record fields 'rayTheta'/'rayX': {exc}") from None
        g, d = _field(record, "g", int), _field(record, "d", int)
        if not 2 <= d < g:
            raise ValueError(f"bound record fields 'g'/'d' need 2 <= d < g, got g={g}, d={d}")
        entries.append(BoundEntry(_parsed_field(record, "curveClass", CurveClass), g, d, ray,
                                  _parsed_field(record, "status", BoundStatus),
                                  _field(record, "paperRef", str)))
    return entries
