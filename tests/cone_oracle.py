"""The reference cone arithmetic: `ConeRay`, `Cone2D` and `contains` in `Fraction`s.

This is the arithmetic that `cdcalc.conelab` replaced with integer
directions, kept word for word apart from returning plain tuples: a ray is
normalised by dividing by its first nonzero coordinate, a cone orders its
rays by slope, and membership is read off the signs of a Cramer solve.  On
any input, both must give equal ray fields, the same ray order, the same
membership, or the same `ValueError` message.  It lives only in the tests;
the package has one implementation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from cdcalc.nsring import NSClass, _coerce_coeff

Ray = namedtuple("Ray", "theta x")
Cone = namedtuple("Cone", "ray1 ray2")


def ray(theta, x) -> Ray:
    a, b = _coerce_coeff(theta), _coerce_coeff(x)
    if a == 0 and b == 0:
        raise ValueError("a ray needs a nonzero direction")
    scale = abs(a) if a != 0 else abs(b)
    return Ray(a / scale, b / scale)


def slope(ray: Ray) -> Fraction | None:
    if ray.theta == 0:
        return None
    return -ray.x / ray.theta


def _sort_key(ray: Ray) -> tuple[int, Fraction]:
    t = slope(ray)
    return (1, Fraction(0)) if t is None else (0, t)


def cone(ray1: Ray, ray2: Ray) -> Cone:
    det = ray1.theta * ray2.x - ray2.theta * ray1.x
    if det == 0:
        raise ValueError("degenerate cone: rays are proportional")
    if _sort_key(ray2) < _sort_key(ray1):
        ray1, ray2 = ray2, ray1
    return Cone(ray1, ray2)


def _divisor_coeffs(c: NSClass) -> tuple[int, int]:
    if c.is_zero():
        return (0, 0)
    if c.pure_degree() != 1:
        raise ValueError(f"cone queries need a divisor class (pure degree 1), got {c}")
    return (c._terms.get((0, 1), 0), c._terms.get((1, 0), 0))


def contains(cone: Cone, query: NSClass | Ray) -> bool:
    if isinstance(query, Ray):
        a, b = query.theta, query.x
    else:
        a, b = _divisor_coeffs(query)
    r1, r2 = cone.ray1, cone.ray2
    s = r2.x * a - r2.theta * b
    t = r1.theta * b - r1.x * a
    positive = r1.theta * r2.x > r2.theta * r1.x
    return (s >= 0 and t >= 0) if positive else (s <= 0 and t <= 0)
