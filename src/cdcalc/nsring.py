"""Exact arithmetic in the (x, theta) divisor-class ring of a symmetric power.

For a smooth projective curve of genus g, the d-th symmetric power C_d is a
smooth projective variety of dimension d carrying two basic divisor classes:
x, the class of the embedding D' -> D' + p of C_{d-1}, and theta, the
pullback of a theta-divisor under the Abel-Jacobi map.  This module models
the subring of algebraic cohomology generated by x and theta as formal
polynomials with exact rational coefficients, graded by total degree and
truncated above degree d (those classes vanish for dimension reasons).

Top-degree monomials evaluate by the Poincare formula

    x^k * theta^(d-k) = g! / (g-d+k)! = g (g-1) ... (g-d+k+1)
                                             for 0 <= k <= d <= g,

extended linearly.  The weight of x^k is a falling product of only d-k
factors, so one call builds all the weights it needs in one pass, one factor
at a time, down to the lowest x-exponent present.  `eval_top` and `pair`
share that path: each side's integer numerators are summed against the
weights, and a single Fraction is built at the end.  `pair` never builds
the product class.

A class holds integer numerators over one denominator (see `NSClass`), so
the ring operations, `eval_top`, `pair` and `catalog.pushpull` run in
integers.  `_ratio` reads every exact input and `_lowest_terms` writes every
exact value, so Fractions are built only at the edges: `terms()`,
`coefficient()`, pickling, the reciprocal in `/` and the scalars `eval_top`
and `pair` return.

Equality of classes is formal (coefficient-wise): no relations among the
monomials x^i theta^j below top degree are imposed, so the ring is valid
for any curve, not only those whose Neron-Severi space the two classes span.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent workers.  The
one piece of module state is the table of monomial keys (see `NSClass`),
which only ever gains entries, through the atomic `dict.setdefault`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from . import _EXPORTS

__all__ = list(_EXPORTS["nsring"])

RationalInput = int | Fraction


def _ratio(value: RationalInput) -> tuple[int, int]:
    """The one reader of an exact input: (numerator, denominator > 0) as plain ints, in lowest terms.

    Anything but an int (a bool reads as 0 or 1) or a Fraction raises TypeError.
    """
    if type(value) is Fraction or isinstance(value, int):
        return value.as_integer_ratio()
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


class Record:
    """Base of the immutable value types: fields held in ``__slots__``.

    A subclass lists its fields (at least two) in ``__slots__``.  The default
    constructor takes one value per field, in that order; a subclass that
    validates or normalises its input does so in its own ``__init__`` and
    then calls ``super().__init__``.  Records compare equal only to records
    of the same type with equal fields, hash and print by their fields,
    refuse assignment and deletion, and pickle and copy by calling the
    constructor again.
    """

    __slots__ = ()

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            fields = self.__slots__
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values "
                            f"({', '.join(fields)}), got {len(values)}")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields in __slots__")
        cls._values = attrgetter(*cls.__slots__)  # a plain callable: pass the record
        # Each slot's own setter: `__setattr__` below refuses every write, so `__init__` uses these.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._values(self))

    def _require_ints(self, *values) -> None:
        """Refuse the first of `values`, this record's leading fields in order, that is not an int."""
        for name, value in zip(self.__slots__, values):
            if type(value) is not int:
                raise TypeError(f"{type(self).__name__} field {name} must be an int, got {value!r}")


class Ambient(Record):
    """The pair (g, d): genus of the curve and index of the symmetric power."""

    __slots__ = ("g", "d")

    def __init__(self, g: int, d: int):
        self._require_ints(g, d)
        if g < 2:
            raise ValueError(f"genus must be at least 2, got g={g}")
        if d < 1:
            raise ValueError(f"symmetric power index must be at least 1, got d={d}")
        super().__init__(g, d)

    def zero(self) -> "NSClass":
        return NSClass(self, {})

    def one(self) -> "NSClass":
        return NSClass(self, {(0, 0): 1})

    def x(self) -> "NSClass":
        return NSClass(self, {(1, 0): 1})

    def theta(self) -> "NSClass":
        return NSClass(self, {(0, 1): 1})

    def monomial(self, i: int, j: int, coeff: RationalInput = 1) -> "NSClass":
        return NSClass(self, {(i, j): coeff})

    def __str__(self) -> str:
        return f"(g={self.g}, d={self.d})"


# The shared monomial keys: (i, j) -> the one (i, j) tuple every class stores.
_KEYS: dict[tuple[int, int], tuple[int, int]] = {}


class NSClass(Record):
    """A formal polynomial in x and theta with exact rational coefficients.

    Terms are stored sparsely as a map (i, j) -> integer numerator of the
    monomial x^i theta^j over one denominator `den` > 0, and no prime divides
    den and every numerator.  Exponents must be ints (not floats or bools).
    Terms of degree above d are dropped at construction and zero numerators
    are pruned, so equal classes always have identical fields.

    Every key is stored through the module table `_KEYS`, so all classes
    holding x^i theta^j share one (i, j) tuple.  Only stored keys enter the
    table, so it holds at most (D+1)(D+2)/2 keys, D being the largest degree
    of any term ever stored.
    """

    __slots__ = ("ambient", "den", "_terms")

    def __init__(self, ambient: Ambient, terms=None):
        read, shared = [], _KEYS.setdefault  # (key, numerator, denominator) of each nonzero term
        for key, raw in (terms or {}).items():
            i, j = key
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"exponents must be ints, got x^{i!r}*theta^{j!r}")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term x^{i}*theta^{j}")
            if i + j > ambient.d:
                continue  # vanishes for dimension reasons
            n, q = _ratio(raw)
            if n:
                read.append((shared(key, key), n, q))
        den = lcm(*[q for _key, _n, q in read])  # n/q in lowest terms, so gcd(den, *numerators) == 1
        super().__init__(ambient, den, {key: n * (den // q) for key, n, q in read})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {key: Fraction(n, self.den) for key, n in self._terms.items()}

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self._terms.get((i, j), 0), self.den)

    def is_zero(self) -> bool:
        return not self._terms

    def pure_degree(self) -> int | None:
        """Total degree if the class is homogeneous and nonzero, else None."""
        degrees = {i + j for (i, j) in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_part(self, k: int) -> "NSClass":
        return _of(self.ambient, {key: n for key, n in self._terms.items() if sum(key) == k}, self.den)

    def truncate_degree(self, k: int) -> "NSClass":
        return _of(self.ambient, {key: n for key, n in self._terms.items() if sum(key) <= k}, self.den)

    # -- ring structure -----------------------------------------------------

    def _require_same_ambient(self, other: "NSClass") -> None:
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __add__(self, other):
        if not isinstance(other, NSClass):
            return NotImplemented
        self._require_same_ambient(other)
        den = lcm(self.den, other.den)
        scale_a, scale_b = den // self.den, den // other.den
        merged = {key: n * scale_a for key, n in self._terms.items()}
        for key, n in other._terms.items():
            merged[key] = merged.get(key, 0) + n * scale_b
        return _of(self.ambient, merged, den)

    def __sub__(self, other):
        if not isinstance(other, NSClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _of(self.ambient, {key: -n for key, n in self._terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, NSClass):
            self._require_same_ambient(other)
            product: dict[tuple[int, int], int] = {}
            for (i1, j1), n1 in self._terms.items():
                for (i2, j2), n2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    if key[0] + key[1] > self.ambient.d:
                        continue
                    product[key] = product.get(key, 0) + n1 * n2
            return _of(self.ambient, product, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            return _of(self.ambient, {key: n * num for key, n in self._terms.items()}, self.den * den)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            return self * Fraction(den, num)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = self.ambient.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
                if result.is_zero():
                    break
            exponent >>= 1
            if exponent:
                base = base * base
                if base.is_zero():
                    return base
        return result

    # -- comparison / display -----------------------------------------------

    def __hash__(self):  # Record hashes the field values, and _terms is a dict
        return hash((self.ambient, self.den, frozenset(self._terms.items())))

    def __reduce__(self):  # through the public constructor, which checks its input
        return (NSClass, (self.ambient, self.terms()))

    def __str__(self) -> str:
        return format_class(self)

    def __repr__(self) -> str:
        return f"NSClass{self.ambient}: {format_class(self)}"


def _of(ambient: Ambient, nums: dict, den: int) -> NSClass:
    """The class sum of nums[i, j]/den x^i theta^j, for den > 0 and keys of degree at most d.

    The private constructor: drops zero numerators, shares keys through `_KEYS`, divides out the gcd.
    """
    shared = _KEYS.setdefault
    clean = {shared(key, key): n for key, n in nums.items() if n}
    common = gcd(den, *clean.values())
    if common != 1:
        den //= common
        clean = {key: n // common for key, n in clean.items()}
    cls = object.__new__(NSClass)
    Record.__init__(cls, ambient, den, clean)
    return cls


def format_rational(q: RationalInput) -> str:
    """Canonical string for an exact rational: "p/q", or "p" when integral."""
    return _lowest_terms(*_ratio(q))


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("theta" if j == 1 else f"theta^{j}")
    return "*".join(parts)


def _signed_sum(terms) -> str:
    """Join (nonzero coefficient text, monomial) pairs as "c1*m1 - c2*m2 + c3", or "0" if none.

    The one place a signed sum's text is decided, for classes and cone rays alike.
    """
    pieces = []
    for text, monomial in terms:
        pieces.append(" - " + text[1:] if text[0] == "-" else " + " + text)
        if monomial:
            pieces.append("*" + monomial)
    if not pieces:
        return "0"
    head = pieces[0]
    pieces[0] = head[3:] if head[1] == "+" else "-" + head[3:]
    return "".join(pieces)


def format_class(c: NSClass) -> str:
    """Canonical textual form, the interchange format for the CLI and reports.

    Terms are ordered by total degree descending, then by x-exponent
    ascending; coefficients are always written explicitly, e.g.
    "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3".
    """
    terms, den = c._terms, c.den
    keys = sorted(terms, key=lambda key: (-(key[0] + key[1]), key[0]))
    return _signed_sum((_lowest_terms(terms[key], den), _format_monomial(*key)) for key in keys)


def _lowest_terms(n: int, den: int) -> str:
    """The one writer of an exact value: n/den (den > 0) as "p/q" in lowest terms, or "p" if integral."""
    common = gcd(n, den)
    return str(n // den) if common == den else f"{n // common}/{den // common}"


def _top_weights(g: int, d: int, low: int) -> list[int]:
    """Poincare values on C_d: entry k is g!/(g-k)!, the value of x^(d-k) theta^k.

    The cumulative falling product g (g-1) ... (g-k+1), built one factor at a
    time for k = 0 .. d-low, i.e. for every x-exponent from d down to low.
    """
    weights = [1]
    for k in range(d - low):
        weights.append(weights[-1] * (g - k))
    return weights


def _check_evaluable(amb: Ambient) -> None:
    if amb.d > amb.g:
        raise ValueError(f"evaluation undefined: requires d <= g, got {amb}")


def eval_top(c: NSClass) -> Fraction:
    """Evaluate a top-degree class as a rational number.

    By the Poincare formula, x^k theta^(d-k) = g!/(g-d+k)! on C_d when
    d <= g; the input must be homogeneous of degree exactly d (the zero
    class is allowed and evaluates to 0).
    """
    g, d = c.ambient.g, c.ambient.d
    _check_evaluable(c.ambient)
    if c.is_zero():
        return Fraction(0)
    if c.pure_degree() != d:
        raise ValueError(f"not a top-degree class: need pure degree {d}, got {format_class(c)}")
    weights = _top_weights(g, d, min(i for i, _j in c._terms))
    return Fraction(sum(n * weights[d - i] for (i, _j), n in c._terms.items()), c.den)


def pair(a: NSClass, b: NSClass) -> Fraction:
    """Intersection pairing of classes of complementary degree.

    Equals eval_top(a * b), but never builds the product class: both sides
    go over a common denominator and the sum of n1 * n2 * g!/(g-d+i1+i2)!
    runs in integers.  Symmetric and bilinear over exact rational scalars.
    """
    a._require_same_ambient(b)
    _check_evaluable(a.ambient)
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    da, db = a.pure_degree(), b.pure_degree()
    if da is None or db is None or da + db != a.ambient.d:
        raise ValueError(
            f"degree mismatch: degrees must be pure and sum to d={a.ambient.d}, "
            f"got {da} and {db}"
        )
    g, d = a.ambient.g, a.ambient.d
    weights = _top_weights(g, d, min(i for i, _j in a._terms) + min(i for i, _j in b._terms))
    total = 0
    for (i1, _j1), n1 in a._terms.items():
        top = d - i1
        total += n1 * sum(n2 * weights[top - i2] for (i2, _j2), n2 in b._terms.items())
    return Fraction(total, a.den * b.den)


def canonical_class(amb: Ambient) -> NSClass:
    """Class of the canonical bundle of C_d: theta + (g-d-1)*x."""
    return _of(amb, {(0, 1): 1, (1, 0): amb.g - amb.d - 1}, 1)
