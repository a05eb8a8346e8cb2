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
weights into one (numerator, denominator) pair, which the CLI prints as it
is and the public functions return as a single Fraction.  `pair` never
builds the product class.  Its private body `_pair` is the one function that
pairs two classes: the CLI prints its value and `checks` reads the pencil
row's pairings from it.

A class holds integer numerators over one denominator (see `NSClass`), so
the ring operations, `eval_top`, `pair` and `catalog.pushpull` run in
integers.  `_ratio` reads every exact input, `_over_lcm` is the one place
(key, numerator, denominator) triples are put over a common denominator (for
`NSClass` and `cli.parse_class`), and `_lowest_terms` writes every exact
value, so Fractions are built only at the edges: `terms()`, `coefficient()`,
pickling, the reciprocal in `/`, the scalars `eval_top` and `pair` return,
and the coordinates and slope of a cone ray (`conelab`), which is stored as
an integer direction.
`fractions` (with `decimal` and `numbers`) is imported by the first edge that
returns a Fraction, through `_fraction`; a command that prints integers and
classes never loads it.  No Fraction can exist before that module is loaded,
so `_ratio` and the scalar operators look for its class in `sys.modules`
only when a value is not an int, and never import it.

The class-building path (`_of`, `NSClass`, `format_class`, `eval_top`,
`pair`) fills its maps and lists with plain loops, not comprehensions.  On
Python 3.11 a comprehension is a nested function, created and called each
time it runs, and for the two-term classes of the verification sweep that
call costs more than the loop it replaces.  Python 3.12 inlines
comprehensions (PEP 709), where the loops cost about the same.

Equality of classes is formal (coefficient-wise): no relations among the
monomials x^i theta^j below top degree are imposed, so the ring is valid
for any curve, not only those whose Neron-Severi space the two classes span.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent workers.  The
two pieces of module state are the table of monomial keys (see `NSClass`)
and the print table (see `format_class`), keyed by the same stored keys;
both only ever gain entries, through the atomic `dict.setdefault`.
"""

import sys
from functools import cache
from math import gcd, lcm
from operator import attrgetter, itemgetter

from . import _EXPORTS

__all__ = list(_EXPORTS["nsring"])


@cache
def _fraction():
    """The Fraction class, imported by the first edge that returns one."""
    from fractions import Fraction

    return Fraction


def _fraction_types() -> tuple:
    """(Fraction,) once `fractions` is loaded, else (): for the scalar operators' test of a value that is
    not an int.  No Fraction exists before the module is loaded, so it is read, never imported."""
    fractions = sys.modules.get("fractions")
    return () if fractions is None else (fractions.Fraction,)


def _ratio(value: "int | Fraction") -> tuple[int, int]:
    """The one reader of an exact input: (numerator, denominator > 0) as plain ints, in lowest terms.

    Anything but an int (a bool reads as 0 or 1) or a Fraction raises TypeError.  A plain int is
    tested first; the Fraction class is read from `sys.modules` inline, as in `_fraction_types`,
    since this runs once per term and a call would cost as much as the test.
    """
    kind = type(value)
    if kind is int:
        return value.as_integer_ratio()
    fractions = sys.modules.get("fractions")
    if fractions is not None and kind is fractions.Fraction or isinstance(value, int):
        return value.as_integer_ratio()
    raise TypeError(f"coefficients must be int or Fraction, got {kind.__name__}")


def _require_ints(owner: str, **values) -> None:
    """Refuse the first named value that is not an int (a bool is not one): the one integer check.

    `owner` is "Ambient field" for a record's fields, "pushpull argument" for a function's.
    """
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{owner} {name} must be an int, got {value!r}")


def _over_lcm(triples: list[tuple[tuple[int, int], int, int]]) -> tuple[dict, int]:
    """Put (key, numerator, denominator > 0) triples over their lcm: (numerators summed per key, lcm)."""
    den, nums = lcm(*map(itemgetter(2), triples)), {}
    for key, n, q in triples:
        nums[key] = nums.get(key, 0) + n * (den // q)
    return nums, den


@cache
def _make_code(arity: int):
    """The code of `Record._make` for `arity` fields, compiled once per arity (compiling is the cost)."""
    fields = range(arity)
    params = ", ".join(f"value{i}" for i in fields)
    body = "".join(f"    set{i}(record, value{i})\n" for i in fields)
    return compile(f"def _make({params}):\n    record = new(cls)\n{body}    return record\n",
                   "<Record._make>", "exec")


class Record:
    """Base of the immutable value types: fields held in ``__slots__``.

    A subclass lists its fields (at least two) in ``__slots__``.  The default
    constructor takes one value per field, in that order; a subclass that
    validates or normalises its input does so in its own ``__init__`` and
    then calls ``super().__init__``.  Records compare equal only to records
    of the same type with equal fields, hash and print by their fields,
    refuse assignment and deletion, and pickle and copy by calling the
    constructor again.

    ``cls._make(*values)`` is the private fast path: it sets one value per
    field with no arity check and none of the subclass's validation.  It is
    reached only from values the library has already validated (a class's
    terms in `_of`, an ambient derived from checked ints, a check's result
    in `checks._run`), never from a caller's input.  Pickling and copying
    still go through the validating constructor.
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
        # `_make` is generated per class from one template, as `dataclasses` generates `__init__`,
        # so that it calls each setter directly: a loop over the setters costs twice as much.
        scope = {"new": object.__new__, "cls": cls, **{f"set{i}": s for i, s in enumerate(cls._setters)}}
        exec(_make_code(len(cls.__slots__)), scope)
        cls._make = staticmethod(scope["_make"])

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


class Ambient(Record):
    """The pair (g, d): genus of the curve and index of the symmetric power."""

    __slots__ = ("g", "d")

    def __init__(self, g: int, d: int):
        _require_ints("Ambient field", g=g, d=d)
        if g < 2:
            raise ValueError(f"genus must be at least 2, got g={g}")
        if d < 1:
            raise ValueError(f"symmetric power index must be at least 1, got d={d}")
        super().__init__(g, d)

    # The four constant classes are already exact and of degree at most 1 <= d: `_of` builds them.
    def zero(self) -> "NSClass":
        return _of(self, {}, 1)

    def one(self) -> "NSClass":
        return _of(self, {(0, 0): 1}, 1)

    def x(self) -> "NSClass":
        return _of(self, {(1, 0): 1}, 1)

    def theta(self) -> "NSClass":
        return _of(self, {(0, 1): 1}, 1)

    def monomial(self, i: int, j: int, coeff: "int | Fraction" = 1) -> "NSClass":
        return NSClass(self, {(i, j): coeff})

    def __str__(self) -> str:
        return f"(g={self.g}, d={self.d})"


# The shared monomial keys: (i, j) -> the one (i, j) tuple every class stores.
_KEYS: dict[tuple[int, int], tuple[int, int]] = {}
# The print table: (i, j) -> (print order, "*x^i*theta^j" text), filled by `_print_row`.
_PRINTED: dict[tuple[int, int], tuple[int, str]] = {}


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
        read, shared = [], _KEYS.setdefault  # (key, numerator, denominator), each nonzero term
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
        stored, den = _over_lcm(read)  # n/q in lowest terms, so gcd(den, *numerators) == 1
        super().__init__(ambient, den, stored)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> "dict[tuple[int, int], Fraction]":
        fraction = _fraction()
        return {key: fraction(n, self.den) for key, n in self._terms.items()}

    def coefficient(self, i: int, j: int) -> "Fraction":
        return _fraction()(self._terms.get((i, j), 0), self.den)

    def is_zero(self) -> bool:
        return not self._terms

    def pure_degree(self) -> int | None:
        """Total degree if the class is homogeneous and nonzero, else None."""
        degrees = set(map(sum, self._terms))
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_part(self, k: int) -> "NSClass":
        return _of(self.ambient, {key: n for key, n in self._terms.items() if sum(key) == k}, self.den)

    def truncate_degree(self, k: int) -> "NSClass":
        return _of(self.ambient, {key: n for key, n in self._terms.items() if sum(key) <= k}, self.den)

    # -- ring structure -----------------------------------------------------

    def _require_same_ambient(self, other: "NSClass") -> None:
        if self.ambient is not other.ambient and self.ambient != other.ambient:
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
        if isinstance(other, int) or isinstance(other, _fraction_types()):
            num, den = _ratio(other)
            return _of(self.ambient, {key: n * num for key, n in self._terms.items()}, self.den * den)
        return NotImplemented

    __rmul__ = __mul__  # the ring is commutative

    def __truediv__(self, other):
        if isinstance(other, int) or isinstance(other, _fraction_types()):
            num, den = _ratio(other)
            return self * _fraction()(den, num)
        return NotImplemented

    def __pow__(self, exponent: int):
        _require_ints("power argument", exponent=exponent)
        if exponent < 0:
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

    def __eq__(self, other):  # Record's rule, field by field: the ambients last, by identity first
        if type(other) is not type(self):
            return NotImplemented
        ambient = self.ambient
        return (self.den == other.den and self._terms == other._terms
                and (ambient is other.ambient or ambient == other.ambient))

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

    The private constructor: drops zero numerators, shares keys through `_KEYS` and divides out the
    gcd, in one pass over the terms.
    """
    shared, terms = _KEYS.setdefault, {}
    common = gcd(den, *nums.values())  # a zero numerator leaves the gcd as it is
    if common == 1:  # nothing to divide out, as for most classes built from integers
        for key, n in nums.items():
            if n:
                terms[shared(key, key)] = n
    else:
        den //= common
        for key, n in nums.items():
            if n:
                terms[shared(key, key)] = n // common
    return NSClass._make(ambient, den, terms)


def format_rational(q: "int | Fraction") -> str:
    """Canonical string for an exact rational: "p/q", or "p" when integral."""
    return _lowest_terms(*_ratio(q))


def _print_row(key: tuple[int, int]) -> tuple[int, str]:
    """The print table's row for a key, stored the first time the key is printed.

    The order i - D(D+3)/2, D = i + j, is the position of x^i theta^j when
    terms run by total degree descending, then x-exponent ascending, as one
    int per key.
    """
    i, j = key
    text = ("*x" if i == 1 else f"*x^{i}" if i else "") + ("*theta" if j == 1 else f"*theta^{j}" if j else "")
    return _PRINTED.setdefault(key, (i - (i + j) * (i + j + 3) // 2, text))


def _signed_sum(terms) -> str:
    """Join (nonzero coefficient text, monomial text such as "*x^2") pairs as "c1*m1 - c2*m2 + c3", or "0".

    The one place a signed sum's text is decided, for classes and cone rays alike.
    """
    text = ""
    for value, monomial in terms:
        text += f" - {value[1:]}{monomial}" if value[0] == "-" else f" + {value}{monomial}"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_class(c: NSClass) -> str:
    """Canonical textual form, the interchange format for the CLI and reports.

    Terms are ordered by total degree descending, then by x-exponent
    ascending; coefficients are always written explicitly, e.g.
    "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3".

    Each key's order and monomial text come from the print table
    `_PRINTED`, filled the first time the key is printed.  Only stored keys
    are printed, so it is bounded as `_KEYS` is.
    """
    den, row, rows = c.den, _PRINTED.get, []
    for key, n in c._terms.items():
        rows.append((row(key) or _print_row(key)) + (n,))
    rows.sort()
    pieces = []
    for _order, text, n in rows:
        pieces.append((str(n) if den == 1 else _lowest_terms(n, den), text))  # over 1, n is in lowest terms
    return _signed_sum(pieces)


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


def eval_top(c: NSClass) -> "Fraction":
    """Evaluate a top-degree class as a rational number.

    By the Poincare formula, x^k theta^(d-k) = g!/(g-d+k)! on C_d when
    d <= g; the input must be homogeneous of degree exactly d (the zero
    class is allowed and evaluates to 0).
    """
    return _fraction()(*_eval_top(c))


def _eval_top(c: NSClass) -> tuple[int, int]:
    """`eval_top`'s value as (numerator, denominator > 0), not necessarily in lowest terms."""
    g, d = c.ambient.g, c.ambient.d
    _check_evaluable(c.ambient)
    if c.is_zero():
        return 0, 1
    if c.pure_degree() != d:
        raise ValueError(f"not a top-degree class: need pure degree {d}, got {format_class(c)}")
    weights, total = _top_weights(g, d, min(c._terms)[0]), 0  # the least key has the least x-exponent
    for (i, _j), n in c._terms.items():
        total += n * weights[d - i]
    return total, c.den


def pair(a: NSClass, b: NSClass) -> "Fraction":
    """Intersection pairing of classes of complementary degree.

    Equals eval_top(a * b), but never builds the product class: both sides
    go over a common denominator and the sum of n1 * n2 * g!/(g-d+i1+i2)!
    runs in integers.  Symmetric and bilinear over exact rational scalars.
    """
    return _fraction()(*_pair(a, b))


def _pair(a: NSClass, b: NSClass) -> tuple[int, int]:
    """`pair`'s value as (numerator, denominator > 0), not necessarily in lowest terms.

    Refuses, in this order: two ambients, d > g, and (unless a class is zero)
    pure degrees that do not sum to d.
    """
    a._require_same_ambient(b)
    _check_evaluable(a.ambient)
    if not (a._terms and b._terms):
        return 0, 1
    g, d = a.ambient.g, a.ambient.d
    da, db = a.pure_degree(), b.pure_degree()
    if da is None or db is None or da + db != d:
        raise ValueError(f"degree mismatch: degrees must be pure and sum to d={d}, got {da} and {db}")
    weights = _top_weights(g, d, min(a._terms)[0] + min(b._terms)[0])
    total = 0
    for (i1, _j1), n1 in a._terms.items():
        top, inner = d - i1, 0
        for (i2, _j2), n2 in b._terms.items():
            inner += n2 * weights[top - i2]
        total += n1 * inner
    return total, a.den * b.den


def canonical_class(amb: Ambient) -> NSClass:
    """Class of the canonical bundle of C_d: theta + (g-d-1)*x."""
    return _of(amb, {(0, 1): 1, (1, 0): amb.g - amb.d - 1}, 1)
